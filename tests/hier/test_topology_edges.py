"""Heterogeneous-topology edge cases the hierarchy leans on.

The routing layer's savings come entirely from the NIC's framing model
(``wire_bytes``, ``per_message_ns``, ``messages_sent``) and the exact
node-boundary link classification — pin those edges so a fabric-model
tweak cannot silently invalidate the BENCH_hier invariants.
"""

from __future__ import annotations

import pytest

from repro.comm.hier import inter_node_message_count, inter_node_wire_bytes
from repro.simgpu.engine import Engine
from repro.simgpu.interconnect import (
    NIC_SPEC,
    NVLINK_PAIR_SPEC,
    Interconnect,
    LinkSpec,
    Topology,
    multinode_topology,
    wire_bytes,
)


class TestNodeBoundaryLinkSelection:
    """Link classification exactly at the dpn-1 / dpn seam."""

    @pytest.mark.parametrize("dpn", [1, 2, 3, 4])
    def test_boundary_pairs(self, dpn):
        topo = multinode_topology(3 * dpn, devices_per_node=dpn)
        if dpn > 1:
            # Last device of node 0 and first device of node 0: intra.
            assert topo.link_spec(dpn - 1, 0) == NVLINK_PAIR_SPEC
        # Last device of node 0 to first of node 1: the seam crossing.
        assert topo.link_spec(dpn - 1, dpn) == NIC_SPEC
        assert topo.link_spec(dpn, dpn - 1) == NIC_SPEC
        # Far corners: first device of node 0, last device of node 2.
        assert topo.link_spec(0, 3 * dpn - 1) == NIC_SPEC

    def test_dpn_one_makes_every_pair_inter_node(self):
        topo = multinode_topology(3, devices_per_node=1)
        for s in range(3):
            for d in range(3):
                if s != d:
                    assert topo.link_spec(s, d) == NIC_SPEC

    def test_single_node_has_no_nic_links(self):
        topo = multinode_topology(4, devices_per_node=4)
        for s in range(4):
            for d in range(4):
                if s != d:
                    assert topo.link_spec(s, d) == NVLINK_PAIR_SPEC

    def test_ragged_tail_devices_still_classify(self):
        # n_devices need not be a multiple of dpn at topology level
        # (HierSpec enforces divisibility, the fabric does not): device 5
        # alone forms the tail of a 2-node-plus-one layout.
        topo = multinode_topology(5, devices_per_node=2)
        assert topo.link_spec(3, 4) == NIC_SPEC
        assert topo.link_spec(4, 3) == NIC_SPEC


class TestWireBytesEdges:
    def test_exact_multiple_has_no_partial_message(self):
        # 4096 payload in 1024-byte messages: exactly 4 headers, not 5.
        assert wire_bytes(4096, 1024, 64) == 4096 + 4 * 64

    def test_one_byte_over_a_multiple_adds_a_full_header(self):
        assert wire_bytes(4097, 1024, 64) == 4097 + 5 * 64

    def test_sub_header_payload_still_pays_a_full_header(self):
        # 8 payload bytes in a 64-byte-header scheme: wire is header-bound.
        assert wire_bytes(8, 1024, 64) == 8 + 64
        assert wire_bytes(1, 1024, 64) == 65

    def test_payload_equal_to_message_size_is_one_message(self):
        assert wire_bytes(1024, 1024, 64) == 1024 + 64


def fabric(spec=None):
    """Five devices, every pair one ``spec`` link (1 B/ns, no latency by
    default); returns the interconnect."""
    spec = spec or LinkSpec(bandwidth=1.0, latency_ns=0.0)
    return Interconnect(Engine(), Topology(5, lambda s, d: spec))


class TestMessagesSent:
    def test_counts_ceil_of_payload_over_message_size(self):
        ic = fabric()
        ic.transfer(0, 1, 4097, message_bytes=1024)
        assert ic.link(0, 1).messages_sent == 5

    def test_exact_multiple(self):
        ic = fabric()
        ic.transfer(0, 1, 4096, message_bytes=1024)
        assert ic.link(0, 1).messages_sent == 4

    def test_single_message_when_unframed(self):
        ic = fabric()
        ic.transfer(0, 1, 4096, message_bytes=0)
        assert ic.link(0, 1).messages_sent == 1

    def test_zero_payload_sends_nothing(self):
        ic = fabric()
        ic.transfer(0, 1, 0, message_bytes=1024)
        assert ic.link(0, 1).messages_sent == 0

    def test_accumulates_across_transfers(self):
        ic = fabric()
        ic.transfer(0, 1, 1024, message_bytes=1024)
        ic.transfer(0, 1, 1025, message_bytes=1024)
        assert ic.link(0, 1).messages_sent == 3

    def test_per_message_cost_charged_per_message(self):
        spec = LinkSpec(bandwidth=1.0, latency_ns=0.0, per_message_ns=10.0)
        framed = fabric(spec)
        framed.transfer(0, 1, 2048, message_bytes=1024)
        coalesced = fabric(spec)
        coalesced.transfer(0, 1, 2048, message_bytes=0)
        assert framed.link(0, 1).busy_time == coalesced.link(0, 1).busy_time + 10.0


class TestDegradedInterNodeLink:
    """Fault derates stack with the NIC framing math, not instead of it."""

    def run_transfer(self, ic, payload, **kw):
        done = []
        ev = ic.transfer(0, 4, payload, **kw)
        ev.add_callback(lambda: done.append(ic.engine.now))
        ic.engine.run()
        return done[0]

    def test_bandwidth_derate_slows_delivery(self):
        healthy = fabric(NIC_SPEC)
        t_healthy = self.run_transfer(healthy, 1 << 20, message_bytes=4096,
                                      header_bytes=64)
        degraded = fabric(NIC_SPEC)
        degraded.link(0, 4).degrade(bandwidth_scale=0.5)
        t_degraded = self.run_transfer(degraded, 1 << 20, message_bytes=4096,
                                       header_bytes=64)
        assert t_degraded > t_healthy
        # Message framing is unaffected by the derate.
        assert degraded.link(0, 4).messages_sent == healthy.link(0, 4).messages_sent

    def test_per_message_cost_survives_derate(self):
        # Per-message descriptor time is CPU/NIC-side, not wire time: the
        # bandwidth derate must not scale it.
        ic = fabric(LinkSpec(bandwidth=1.0, latency_ns=0.0, per_message_ns=100.0))
        lk = ic.link(0, 4)
        lk.degrade(bandwidth_scale=0.5)
        ic.transfer(0, 4, 1024, message_bytes=256)  # 4 messages
        # busy = wire/(bw*scale) + 4*per_message = 1024/0.5 + 400
        assert lk.busy_time == pytest.approx(2048 + 400)

    def test_downed_link_queues_then_delivers(self):
        ic = fabric()
        ic.link(0, 4).set_down_until(500.0)
        # waits out the outage, then 100ns wire
        assert self.run_transfer(ic, 100) == 600.0

    def test_restore_returns_to_healthy_timing(self):
        a, b = fabric(NIC_SPEC), fabric(NIC_SPEC)
        b.link(0, 4).degrade(bandwidth_scale=0.25, extra_latency_ns=1000.0)
        b.link(0, 4).restore(bandwidth_scale=0.25, extra_latency_ns=1000.0)
        t_a = self.run_transfer(a, 1 << 16)
        t_b = self.run_transfer(b, 1 << 16)
        assert t_a == t_b


class TestInterNodeAccounting:
    """The helpers the hier sweep and its validator measure with."""

    def make(self, n_nodes=2, dpn=2):
        eng = Engine()
        inter = Interconnect(
            eng, multinode_topology(n_nodes * dpn, devices_per_node=dpn)
        )
        return eng, inter

    def test_counts_only_cross_node_links(self):
        eng, inter = self.make()
        inter.transfer(0, 1, 1000, message_bytes=100)   # intra: 10 messages
        inter.transfer(0, 2, 1000, message_bytes=100)   # inter: 10 messages
        inter.transfer(2, 0, 500, message_bytes=0)      # inter: 1 message
        eng.run()
        assert inter_node_message_count(inter, 2) == 11
        assert inter_node_message_count(inter, 4) == 0  # all same node then

    def test_wire_bytes_include_headers(self):
        eng, inter = self.make()
        inter.transfer(1, 2, 1000, message_bytes=100, header_bytes=40)
        eng.run()
        assert inter_node_wire_bytes(inter, 2) == 1000 + 10 * 40

    def test_invalid_dpn_rejected(self):
        _, inter = self.make()
        with pytest.raises(ValueError):
            inter_node_message_count(inter, 0)
        with pytest.raises(ValueError):
            inter_node_wire_bytes(inter, -1)
