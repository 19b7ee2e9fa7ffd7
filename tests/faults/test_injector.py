"""FaultInjector: each fault kind measurably changes simulated behaviour,
windows revert, and every window lands in the profiler/Chrome trace."""

from __future__ import annotations

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.injector import SPAN_CATEGORY, WINDOW_COUNTER
from repro.simgpu.cluster import Cluster, dgx_v100
from repro.simgpu.interconnect import Topology
from repro.simgpu.kernel import KernelSpec, kernel_time
from repro.simgpu.stream import join
from repro.simgpu.trace import chrome_trace
from repro.simgpu.units import ms, us

PAYLOAD = 1 << 20  # 1 MiB


def timed_transfer(cluster: Cluster, at_ns: float = 0.0) -> float:
    """Duration of one 0→1 transfer issued at ``at_ns``."""
    out = []

    def prog(cl):
        done = cl.engine.event()

        def send():
            t0 = cl.engine.now

            def landed():
                out.append(cl.engine.now - t0)
                done.succeed()

            cl.then(cl.interconnect.transfer(0, 1, float(PAYLOAD)), landed)

        if at_ns > cl.engine.now:
            cl.then(at_ns - cl.engine.now, send)
        else:
            send()
        return done

    cluster.run(prog)
    return out[0]


def healthy_duration() -> float:
    return timed_transfer(dgx_v100(2))


class TestLinkFaults:
    def test_degrade_slows_then_reverts_exactly(self):
        d0 = healthy_duration()
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_degrade", 0.0, 1 * ms, src=0, dst=1, severity=0.5),
        ))
        FaultInjector(cluster, plan).install()
        inside = timed_transfer(cluster)
        after = timed_transfer(cluster, at_ns=2 * ms)
        assert inside > d0
        # Post-window arithmetic is bit-identical to the healthy link
        # (same absolute issue time, so float rounding matches too).
        assert after == timed_transfer(dgx_v100(2), at_ns=2 * ms)

    def test_latency_spike_adds_exactly_the_extra(self):
        d0 = healthy_duration()
        extra = 5 * us
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_latency", 0.0, 1 * ms, src=0, dst=1, severity=extra),
        ))
        FaultInjector(cluster, plan).install()
        assert timed_transfer(cluster) == d0 + extra
        assert timed_transfer(cluster, at_ns=2 * ms) == timed_transfer(
            dgx_v100(2), at_ns=2 * ms
        )

    def test_down_link_queues_until_up_edge(self):
        d0 = healthy_duration()
        down_until = 50 * us
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_down", 0.0, down_until, src=0, dst=1),
        ))
        FaultInjector(cluster, plan).install()
        # Issued at t=0 into the flap: service starts at the up edge.
        assert timed_transfer(cluster) == down_until + d0

    def test_direction_is_respected(self):
        d0 = healthy_duration()
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_degrade", 0.0, 1 * ms, src=1, dst=0, severity=0.25),
        ))
        FaultInjector(cluster, plan).install()
        # 0→1 is untouched by a 1→0 fault.
        assert timed_transfer(cluster) == d0


class TestDeviceFaults:
    KSPEC = KernelSpec(name="k", num_blocks=512, bytes_read=64 << 20)

    def run_kernel(self, cluster: Cluster) -> float:
        out = []

        def prog(cl):
            t0 = cl.engine.now
            dev = cl.device(0)
            done = join(cl.engine, [dev.default_stream.launch(dev, self.KSPEC)])
            done.add_callback(lambda: out.append(cl.engine.now - t0))
            return done

        cluster.run(prog)
        return out[0]

    def test_slowdown_stretches_by_severity(self):
        healthy = self.run_kernel(dgx_v100(1))
        assert healthy == pytest.approx(kernel_time(self.KSPEC, dgx_v100(1).device(0).spec))
        cluster = dgx_v100(1)
        plan = FaultPlan((
            FaultEvent("device_slowdown", 0.0, 100 * ms, device=0, severity=3.0),
        ))
        FaultInjector(cluster, plan).install()
        assert self.run_kernel(cluster) == pytest.approx(3.0 * healthy)

    def test_slowdown_reverts(self):
        healthy = self.run_kernel(dgx_v100(1))
        cluster = dgx_v100(1)
        plan = FaultPlan((
            FaultEvent("device_slowdown", 0.0, 10 * us, device=0, severity=4.0),
        ))
        FaultInjector(cluster, plan).install()
        def wait(cl):
            done = cl.engine.event()
            cl.then(1 * ms, done.succeed)
            return done
        cluster.run(wait)
        assert self.run_kernel(cluster) == pytest.approx(healthy)

    def test_stall_freezes_progress(self):
        healthy = self.run_kernel(dgx_v100(1))
        stall = 30 * us
        cluster = dgx_v100(1)
        plan = FaultPlan((
            FaultEvent("device_stall", 0.0, stall, device=0),
        ))
        FaultInjector(cluster, plan).install()
        assert self.run_kernel(cluster) == pytest.approx(healthy + stall)

    def test_other_devices_unaffected(self):
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("device_slowdown", 0.0, 100 * ms, device=1, severity=5.0),
        ))
        FaultInjector(cluster, plan).install()
        assert self.run_kernel(cluster) == pytest.approx(self.run_kernel(dgx_v100(1)))


class TestValidationAndRecording:
    def test_plan_must_fit_cluster(self):
        plan = FaultPlan((FaultEvent("device_stall", 0.0, 1.0, device=7),))
        with pytest.raises(ValueError, match="device 7"):
            FaultInjector(dgx_v100(2), plan)

    def test_link_must_exist_in_topology(self):
        isolated = Cluster(2, topology=Topology(2, lambda s, d: None, name="isolated"))
        plan = FaultPlan((FaultEvent("link_down", 0.0, 1.0, src=0, dst=1),))
        with pytest.raises(ValueError, match="does not exist"):
            FaultInjector(isolated, plan)

    def test_install_twice_raises(self):
        inj = FaultInjector(
            dgx_v100(2),
            FaultPlan((FaultEvent("device_stall", 0.0, 1.0, device=0),)),
        )
        inj.install()
        with pytest.raises(RuntimeError, match="twice"):
            inj.install()

    def test_windows_recorded_as_spans_and_counters(self):
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_degrade", 0.0, 20 * us, src=0, dst=1, severity=0.5),
            FaultEvent("device_stall", 10 * us, 30 * us, device=1),
        ))
        FaultInjector(cluster, plan).install()
        timed_transfer(cluster, at_ns=50 * us)
        spans = cluster.profiler.spans_by_category(SPAN_CATEGORY)
        assert {s.name for s in spans} == {
            "fault.link_degrade.0->1", "fault.device_stall.dev1",
        }
        # Full planned extents, stamped at the apply edge.
        degrade = next(s for s in spans if "degrade" in s.name)
        assert (degrade.t_start, degrade.t_end) == (0.0, 20 * us)
        assert cluster.profiler.counter(WINDOW_COUNTER).total == 2.0

    def test_fault_windows_visible_in_chrome_trace(self):
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_latency", 0.0, 20 * us, src=0, dst=1, severity=1000.0),
        ))
        FaultInjector(cluster, plan).install()
        timed_transfer(cluster, at_ns=50 * us)
        trace = chrome_trace(cluster.profiler)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "fault.link_latency.0->1" in names
        assert WINDOW_COUNTER in names

    def test_overlapping_degrades_compose(self):
        d0 = healthy_duration()
        cluster = dgx_v100(2)
        plan = FaultPlan((
            FaultEvent("link_degrade", 0.0, 1 * ms, src=0, dst=1, severity=0.5),
            FaultEvent("link_degrade", 0.0, 1 * ms, src=0, dst=1, severity=0.5),
        ))
        FaultInjector(cluster, plan).install()
        inside = timed_transfer(cluster)
        single = dgx_v100(2)
        FaultInjector(single, FaultPlan((
            FaultEvent("link_degrade", 0.0, 1 * ms, src=0, dst=1, severity=0.5),
        ))).install()
        assert inside > timed_transfer(single) > d0
        # Both reverted: healthy again.
        assert timed_transfer(cluster, at_ns=2 * ms) == timed_transfer(
            dgx_v100(2), at_ns=2 * ms
        )
