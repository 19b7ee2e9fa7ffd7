"""Tests for links, topologies, and transfer contention."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simgpu.engine import Engine
from repro.simgpu.interconnect import (
    Interconnect,
    LinkSpec,
    NIC_SPEC,
    NVLINK_PAIR_SPEC,
    Topology,
    multinode_topology,
    nvlink_dgx1,
    pcie_topology,
    wire_bytes,
)
from repro.simgpu.profiler import Profiler


class TestWireBytes:
    def test_single_message(self):
        assert wire_bytes(1000, 0, 32) == 1032

    def test_many_messages(self):
        # 1000 B in 256-B messages = 4 messages → 4 headers
        assert wire_bytes(1000, 256, 32) == 1000 + 4 * 32

    def test_exact_multiple(self):
        assert wire_bytes(512, 256, 32) == 512 + 2 * 32

    def test_zero_payload_costs_nothing(self):
        assert wire_bytes(0, 256, 32) == 0.0

    def test_no_header(self):
        assert wire_bytes(777, 256, 0) == 777

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wire_bytes(-1, 256, 32)

    @given(
        payload=st.floats(min_value=1, max_value=1e9),
        msg=st.integers(min_value=1, max_value=4096),
        hdr=st.integers(min_value=0, max_value=128),
    )
    def test_wire_at_least_payload(self, payload, msg, hdr):
        w = wire_bytes(payload, msg, hdr)
        assert w >= payload
        # header overhead bounded by one header per message.
        assert w <= payload + (payload / msg + 1) * hdr


def _fired_at(ev):
    """A list that receives the instant ``ev`` fires."""
    at = []
    ev.add_callback(lambda: at.append(ev.engine.now))
    return at


def one_link(bw=10.0, lat=100.0, n=2):
    """A fabric whose every pair is one ``LinkSpec(bw, lat)`` link."""
    spec = LinkSpec(bandwidth=bw, latency_ns=lat)
    return Interconnect(Engine(), Topology(n, lambda s, d: spec))


class TestLink:
    """One link's booking, driven through ``Interconnect.transfer``."""

    def test_alpha_beta_timing(self):
        ic = one_link(bw=10.0, lat=100.0)
        ev = ic.transfer(0, 1, 1000.0)  # 1000/10 = 100 ns + 100 lat
        at = _fired_at(ev)
        ic.engine.run()
        assert ev.triggered
        assert at == [pytest.approx(200.0)]

    def test_serialisation_under_contention(self):
        ic = one_link(bw=10.0, lat=0.0)
        e1 = _fired_at(ic.transfer(0, 1, 1000.0))
        e2 = _fired_at(ic.transfer(0, 1, 1000.0))
        ic.engine.run()
        assert e1 == [pytest.approx(100.0)]
        assert e2 == [pytest.approx(200.0)]  # queued behind e1

    def test_headers_stretch_busy_time(self):
        ic = one_link(bw=1.0, lat=0.0)
        ic.transfer(0, 1, 1000.0, message_bytes=100, header_bytes=100)  # wire = 2000
        ic.engine.run()
        lk = ic.link(0, 1)
        assert lk.busy_time == pytest.approx(2000.0)
        assert lk.bytes_carried == pytest.approx(2000.0)

    def test_on_complete_called_at_delivery(self):
        ic = one_link(bw=10.0, lat=50.0)
        seen = _fired_at(ic.transfer(0, 1, 100.0))
        ic.engine.run()
        assert seen == [pytest.approx(60.0)]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0, latency_ns=0.0)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1.0, latency_ns=-1.0)


class TestTopology:
    def test_nvlink_clique_all_connected(self):
        topo = nvlink_dgx1(4)
        for s in range(4):
            for d in range(4):
                assert topo.connected(s, d) == (s != d)

    def test_self_link_is_none(self):
        topo = nvlink_dgx1(2)
        assert topo.link_spec(0, 0) is None

    def test_out_of_range_pair_rejected(self):
        topo = nvlink_dgx1(2)
        with pytest.raises(ValueError):
            topo.link_spec(0, 5)

    def test_multinode_intra_vs_inter(self):
        topo = multinode_topology(8, devices_per_node=4)
        assert topo.link_spec(0, 3) == NVLINK_PAIR_SPEC
        assert topo.link_spec(0, 4) == NIC_SPEC
        assert topo.link_spec(5, 7) == NVLINK_PAIR_SPEC

    def test_pcie_slower_than_nvlink(self):
        assert pcie_topology(2).link_spec(0, 1).bandwidth < nvlink_dgx1(2).link_spec(0, 1).bandwidth


class TestInterconnect:
    def make(self, n=3):
        eng = Engine()
        prof = Profiler()
        return Interconnect(eng, nvlink_dgx1(n), prof), eng, prof

    def test_links_cached(self):
        ic, eng, _ = self.make()
        assert ic.link(0, 1) is ic.link(0, 1)
        assert ic.link(0, 1) is not ic.link(1, 0)  # directed

    def test_self_transfer_rejected(self):
        ic, eng, _ = self.make()
        with pytest.raises(ValueError, match="not connected"):
            ic.transfer(1, 1, 100.0)

    def test_counter_credited_payload_not_wire(self):
        ic, eng, prof = self.make()
        ic.transfer(0, 1, 1000.0, message_bytes=100, header_bytes=100)
        eng.run()
        assert prof.counter(Interconnect.COUNTER).total == pytest.approx(1000.0)
        # but the link carried payload + headers
        assert ic.total_wire_bytes() == pytest.approx(2000.0)

    def test_per_pair_counter(self):
        ic, eng, prof = self.make()
        ic.transfer(0, 2, 500.0)
        ic.transfer(1, 2, 300.0)
        eng.run()
        pairs = prof.pair_counters(Interconnect.COUNTER)
        assert pairs["comm_bytes.dev0->dev2"].total == pytest.approx(500.0)
        assert pairs["comm_bytes.dev1->dev2"].total == pytest.approx(300.0)

    def test_custom_counter_name(self):
        ic, eng, prof = self.make()
        ic.transfer(0, 1, 100.0, counter="special")
        eng.run()
        assert prof.counter("special").total == pytest.approx(100.0)
        assert prof.counter(Interconnect.COUNTER).total == 0.0

    def test_distinct_pairs_transfer_in_parallel(self):
        ic, eng, _ = self.make()
        bw = NVLINK_PAIR_SPEC.bandwidth
        lat = NVLINK_PAIR_SPEC.latency_ns
        e1 = _fired_at(ic.transfer(0, 1, bw * 1000.0))  # 1000 ns of wire time
        e2 = _fired_at(ic.transfer(0, 2, bw * 1000.0))
        eng.run()
        # parallel links: both complete at 1000 + latency, not 2000+.
        assert e1 == [pytest.approx(1000.0 + lat)]
        assert e2 == [pytest.approx(1000.0 + lat)]

    def test_conservation_bytes_in_equals_bytes_out(self):
        """Every payload byte injected is delivered exactly once."""
        ic, eng, prof = self.make(4)
        rng = np.random.default_rng(0)
        total = 0.0
        for _ in range(50):
            s, d = rng.integers(0, 4, size=2)
            if s == d:
                continue
            nbytes = float(rng.integers(1, 10_000))
            total += nbytes
            ic.transfer(int(s), int(d), nbytes)
        eng.run()
        assert prof.counter(Interconnect.COUNTER).total == pytest.approx(total)


class TestNonFinitePayload:
    """A NaN, infinite or negative payload raises a ``ValueError`` naming
    the pair and the value, before any link state changes."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("message_bytes", [0, 256])
    def test_interconnect_transfer(self, bad, message_bytes):
        eng = Engine()
        ic = Interconnect(eng, nvlink_dgx1(2), Profiler())
        ic.transfer(0, 1, 1000.0)
        link = ic.link(0, 1)
        before = (link._free_at, link.busy_time, link.bytes_carried, link.transfer_count)
        with pytest.raises(ValueError, match=rf"transfer 0->1: .* got {bad!r}"):
            ic.transfer(0, 1, bad, message_bytes=message_bytes, header_bytes=32)
        assert (link._free_at, link.busy_time, link.bytes_carried, link.transfer_count) == before
        eng.run()
        assert eng.now == link._free_at + NVLINK_PAIR_SPEC.latency_ns
        assert ic.peek_link(1, 0) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_link_transfer(self, bad):
        """A rejected first transfer on a pair neither builds its link nor
        schedules anything."""
        ic = one_link(bw=10.0, lat=0.0)
        with pytest.raises(ValueError, match="transfer 0->1"):
            ic.transfer(0, 1, bad, message_bytes=256)
        assert (ic.peek_link(0, 1), ic.engine._seq) == (None, 0)


class TestFloatDeviceIds:
    """A float equal to a device id is not one: ``transfer``, ``link`` and
    a first booking raise ``ValueError`` before any pair is touched, so
    the fabric stays readable."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda ic: ic.transfer(0, 1.0, 256.0),
            lambda ic: ic.transfer(1.0, 0, 256.0),
            lambda ic: ic.link(1.0, 2),
            lambda ic: ic.link(0, np.float64(2)),
            lambda ic: ic.book_wave(2, [3, 1.0], [8.0, 8.0], 0, 0, Interconnect.COUNTER),
        ],
        ids=["transfer-dst", "transfer-src", "link-src", "link-numpy-float", "first-booking"],
    )
    def test_a_float_id_raises_and_leaves_the_fabric_readable(self, call):
        ic = Interconnect(Engine(), nvlink_dgx1(4), Profiler())
        ic.transfer(0, 1, 100.0)
        with pytest.raises(ValueError, match="a device id must be an integer, got"):
            call(ic)
        assert ic.engine._seq == 1
        assert [(lk.src, lk.dst) for lk in ic.links()] == [(0, 1)]
        assert ic.total_wire_bytes() == 100.0
        assert sorted(ic._rows) == [0]

    def test_numpy_integer_ids_keep_working(self):
        ic = Interconnect(Engine(), nvlink_dgx1(4), Profiler())
        ic.transfer(np.int64(0), np.int32(1), 100.0)
        ic.book_wave(np.int16(2), [np.int64(3), 1], [8.0, 8.0], 0, 0, Interconnect.COUNTER)
        assert ic.link(np.int64(2), np.int8(3)).transfer_count == 1
        assert [(lk.src, lk.dst) for lk in ic.links()] == [(0, 1), (2, 3), (2, 1)]


class TestNonFiniteFaultState:
    """A NaN or infinite fault value raises a ``ValueError`` naming the
    argument before the link changes, instead of failing later in the
    engine (``cannot schedule at nan``) or being ignored."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda lk, bad: lk.degrade(bandwidth_scale=bad), "bandwidth_scale"),
            (lambda lk, bad: lk.degrade(extra_latency_ns=bad), "extra_latency_ns"),
            (lambda lk, bad: lk.restore(bandwidth_scale=bad), "bandwidth_scale"),
            (lambda lk, bad: lk.restore(extra_latency_ns=bad), "extra_latency_ns"),
            (lambda lk, bad: lk.set_down_until(bad), "t"),
        ],
        ids=["degrade-scale", "degrade-latency", "restore-scale", "restore-latency", "down"],
    )
    def test_a_non_finite_value_raises_before_the_link_changes(self, call, name, bad):
        ic = one_link(bw=10.0, lat=100.0)
        ic.transfer(0, 1, 1000.0)
        lk = ic.link(0, 1)
        before = (lk.bandwidth_scale, lk.extra_latency_ns, lk.down_until)
        with pytest.raises(ValueError, match=rf"\b{name} must be"):
            call(lk, bad)
        assert (lk.bandwidth_scale, lk.extra_latency_ns, lk.down_until) == before
        at = _fired_at(ic.transfer(0, 1, 1000.0))
        ic.engine.run()
        assert at == [300.0]

    def test_finite_fault_values_still_apply(self):
        ic = one_link(bw=10.0, lat=0.0)
        lk = ic.link(0, 1)
        lk.degrade(bandwidth_scale=0.5, extra_latency_ns=5.0)
        lk.set_down_until(50.0)
        at = _fired_at(ic.transfer(0, 1, 100.0))
        ic.engine.run()
        assert at == [50.0 + 20.0 + 5.0]
        lk.restore(bandwidth_scale=0.5, extra_latency_ns=5.0)
        assert (lk.bandwidth_scale, lk.extra_latency_ns) == (1.0, 0.0)
