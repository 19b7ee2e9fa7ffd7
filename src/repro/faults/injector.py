"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live cluster.

The injector turns each fault window into two engine callbacks — apply at
``t_start`` and revert at ``t_end`` (relative to installation time) — that
mutate the fault state on :class:`~repro.simgpu.interconnect.Link` /
:class:`~repro.simgpu.device.Device`.  Windows of the same kind compose:
two overlapping 0.5x bandwidth derates yield 0.25x until the first one
reverts.  ``link_down`` and ``device_stall`` extend the target's absolute
hold-until time at the window's *start*, so they need no revert callback
and behave correctly even when the simulation ends mid-window.

Every window is recorded as a profiler span (category ``"fault"``) at
apply time covering the whole planned extent, plus a ``faults.windows``
counter tick — both visible in Chrome traces.

Kernel launches are timed when they are booked, so each device slowdown
and stall edge is also registered on its device at installation: a
launch replays the edges registered by then, a window that opens
mid-kernel included (:meth:`FaultInjector.install`).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from ..simgpu.cluster import Cluster
from .plan import DEVICE_KINDS, FaultEvent, FaultPlan

__all__ = ["FaultInjector", "SPAN_CATEGORY", "WINDOW_COUNTER", "pair_is_down"]

#: profiler span category of every fault window
SPAN_CATEGORY = "fault"
#: profiler counter ticked once per applied window
WINDOW_COUNTER = "faults.windows"


def _slow(severity: float, slowdown: float, stalled_until: float) -> Tuple[float, float]:
    return slowdown * severity, stalled_until


def _heal(severity: float, slowdown: float, stalled_until: float) -> Tuple[float, float]:
    return slowdown / severity, stalled_until


def _stall(end: float, slowdown: float, stalled_until: float) -> Tuple[float, float]:
    return slowdown, max(stalled_until, end)


def pair_is_down(cluster: Cluster, src: int, dst: int) -> bool:
    """True when ``src`` cannot currently reach ``dst`` directly.

    Either the topology never connected the pair, or its link is inside a
    ``link_down`` window right now.  Never instantiates the link.
    """
    if src == dst:
        return False
    if not cluster.topology.connected(src, dst):
        return True
    lk = cluster.interconnect.peek_link(src, dst)
    return lk is not None and lk.is_down(cluster.engine.now)


class FaultInjector:
    """Schedules a plan's windows on a cluster's engine.

    One injector installs one plan exactly once; the windows then play out
    on the simulated clock with no further coordination.  The plan's
    relative times are anchored at ``engine.now`` of the :meth:`install`
    call.
    """

    def __init__(self, cluster: Cluster, plan: FaultPlan):
        if plan.max_devices_referenced() > cluster.n_devices:
            raise ValueError(
                f"plan references device {plan.max_devices_referenced() - 1} but "
                f"cluster has {cluster.n_devices} devices"
            )
        for ev in plan.events:
            if ev.kind not in DEVICE_KINDS and not cluster.topology.connected(ev.src, ev.dst):
                raise ValueError(
                    f"plan faults link ({ev.src}, {ev.dst}) which does not exist "
                    f"in {cluster.topology.name}"
                )
        self.cluster = cluster
        self.plan = plan
        self.installed_at: Optional[float] = None
        self.applied: List[FaultEvent] = []

    def install(self) -> "FaultInjector":
        """Anchor the plan at the current simulated time; returns self.

        Every window edge becomes an engine entry now, and each
        ``device_slowdown`` and ``device_stall`` edge is also registered
        on its device (:meth:`Device.add_edge
        <repro.simgpu.device.Device.add_edge>`).  A launch is timed when
        it is booked, by replaying the edges registered by then, so the
        plan covers the launches booked after this call, a window that
        opens mid-kernel included.  A launch booked earlier, even one
        still waiting in its stream, keeps the timing it was booked with.
        """
        if self.installed_at is not None:
            raise RuntimeError("FaultInjector.install() called twice")
        engine = self.cluster.engine
        t0 = self.installed_at = engine.now
        for ev in self.plan.events:
            start, end = t0 + ev.t_start, t0 + ev.t_end
            apply = engine.call_at(start, lambda e=ev: self._apply(e))
            if ev.kind in ("link_degrade", "link_latency", "device_slowdown"):
                revert = engine.call_at(end, lambda e=ev: self._revert(e))
            if ev.kind == "device_stall":
                self.cluster.device(ev.device).add_edge((start, apply[1], partial(_stall, end)))
            elif ev.kind == "device_slowdown":
                device = self.cluster.device(ev.device)
                device.add_edge((start, apply[1], partial(_slow, ev.severity)))
                device.add_edge((end, revert[1], partial(_heal, ev.severity)))
        return self

    # -- window edges ------------------------------------------------------------

    def _apply(self, ev: FaultEvent) -> None:
        cluster = self.cluster
        now = cluster.engine.now
        assert self.installed_at is not None
        abs_end = self.installed_at + ev.t_end
        if ev.kind == "link_degrade":
            cluster.interconnect.link(ev.src, ev.dst).degrade(bandwidth_scale=ev.severity)
        elif ev.kind == "link_latency":
            cluster.interconnect.link(ev.src, ev.dst).degrade(extra_latency_ns=ev.severity)
        elif ev.kind == "link_down":
            cluster.interconnect.link(ev.src, ev.dst).set_down_until(abs_end)
        elif ev.kind in ("device_slowdown", "device_stall"):
            cluster.device(ev.device).run_edge()
        elif ev.kind == "device_down":
            # Permanent: marks the device dead from now on; no revert edge
            # is ever scheduled (install() excludes it, like device_stall).
            cluster.device(ev.device).mark_down(now)
        self.applied.append(ev)
        prof = cluster.profiler
        device_id = ev.device if ev.kind in DEVICE_KINDS else -1
        # Record the full planned extent now: deterministic trace content
        # even if the run ends inside the window.
        prof.record_span(ev.label(), SPAN_CATEGORY, device_id, now, abs_end)
        prof.add_count(WINDOW_COUNTER, now, 1.0, unit="windows")

    def _revert(self, ev: FaultEvent) -> None:
        cluster = self.cluster
        if ev.kind == "link_degrade":
            cluster.interconnect.link(ev.src, ev.dst).restore(bandwidth_scale=ev.severity)
        elif ev.kind == "link_latency":
            cluster.interconnect.link(ev.src, ev.dst).restore(extra_latency_ns=ev.severity)
        elif ev.kind == "device_slowdown":
            cluster.device(ev.device).run_edge()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "installed" if self.installed_at is not None else "pending"
        return f"<FaultInjector {len(self.plan)} events {state}>"
