"""Deterministic fault plans: what breaks, where, when, and how badly.

A :class:`FaultPlan` is a validated, immutable schedule of
:class:`FaultEvent` windows over the simulated cluster.  Times are
*relative* to the moment the :class:`~repro.faults.injector.FaultInjector`
installs the plan, so the same plan can be replayed against any cluster at
any point in simulated time.  Plans carry no randomness themselves;
:meth:`FaultPlan.generate` derives one from a seed, which is what makes
"same seed + same plan → bit-identical run" testable.

Fault kinds
-----------
``link_degrade``
    Multiplicative bandwidth derate of one directed link.  ``severity`` is
    the *remaining* bandwidth fraction in ``(0, 1]``.
``link_latency``
    Additive latency spike on one directed link; ``severity`` is the extra
    latency in nanoseconds.
``link_down``
    The link carries nothing inside the window (a flap); queued traffic
    waits for the up edge.  ``severity`` is ignored.
``device_slowdown``
    Whole-device straggler: every kernel wave on the device stretches by
    ``severity`` (>= 1).
``device_stall``
    Transient freeze: kernels on the device make no progress at wave
    boundaries inside the window.  ``severity`` is ignored.
``device_down``
    Permanent failure: the device (and the table shards it owns) is gone
    from ``t_start`` onward and never comes back — unlike every other
    kind, there is no revert edge.  ``t_end`` only bounds the recorded
    profiler span (use the plan horizon); ``severity`` is ignored.  The
    replication layer's failure detector and failover routing key off
    this kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..simgpu.units import ms, us

__all__ = ["FAULT_KINDS", "LINK_KINDS", "DEVICE_KINDS", "FaultEvent", "FaultPlan"]

LINK_KINDS = ("link_degrade", "link_latency", "link_down")
DEVICE_KINDS = ("device_slowdown", "device_stall", "device_down")
FAULT_KINDS = LINK_KINDS + DEVICE_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One fault window.

    ``t_start``/``t_end`` are nanoseconds relative to plan installation.
    Link kinds address the directed pair ``(src, dst)``; device kinds
    address ``device``.  ``severity`` semantics depend on the kind (see
    module docstring).
    """

    kind: str
    t_start: float
    t_end: float
    src: int = -1
    dst: int = -1
    device: int = -1
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("fault window times must be finite")
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"need 0 <= t_start < t_end, got [{self.t_start}, {self.t_end})"
            )
        if self.kind in LINK_KINDS:
            if self.src < 0 or self.dst < 0 or self.src == self.dst:
                raise ValueError(
                    f"{self.kind} needs a directed pair src != dst, "
                    f"got ({self.src}, {self.dst})"
                )
        else:
            if self.device < 0:
                raise ValueError(f"{self.kind} needs a device id, got {self.device}")
        if not math.isfinite(self.severity):
            raise ValueError("severity must be finite")
        if self.kind == "link_degrade" and not (0.0 < self.severity <= 1.0):
            raise ValueError(
                f"link_degrade severity is the remaining bandwidth fraction "
                f"in (0, 1], got {self.severity}"
            )
        if self.kind == "link_latency" and self.severity < 0:
            raise ValueError(f"link_latency severity (extra ns) must be >= 0")
        if self.kind == "device_slowdown" and self.severity < 1.0:
            raise ValueError(
                f"device_slowdown severity is a stretch factor >= 1, got {self.severity}"
            )

    @property
    def duration_ns(self) -> float:
        """Window length."""
        return self.t_end - self.t_start

    def label(self) -> str:
        """Short human-readable name (profiler span / trace row)."""
        if self.kind in LINK_KINDS:
            return f"fault.{self.kind}.{self.src}->{self.dst}"
        return f"fault.{self.kind}.dev{self.device}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault windows."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"FaultPlan events must be FaultEvent, got {type(ev)}")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def max_devices_referenced(self) -> int:
        """Smallest device count this plan is valid for."""
        ids = [0]
        for ev in self.events:
            ids.append(max(ev.src, ev.dst, ev.device) + 1)
        return max(ids)

    @classmethod
    def generate(
        cls,
        n_devices: int,
        duration_ns: float,
        *,
        severity: float = 0.5,
        seed: int = 0,
        events_per_kind: int = 2,
    ) -> "FaultPlan":
        """Seeded random plan whose depth scales with ``severity`` in [0, 1].

        ``severity == 0`` returns the empty plan.  Otherwise each fault
        kind gets ``events_per_kind`` windows at random offsets inside
        ``duration_ns``, with magnitudes interpolating from mild (derate
        to 90% bandwidth, 1.2x straggler) at severity→0 up to harsh (10%
        bandwidth, 4x straggler, long flaps) at severity 1.  Link flaps
        only appear from severity 0.5 upward — the qualitative cliff the
        fault sweep exposes.
        """
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if not (0.0 <= severity <= 1.0):
            raise ValueError(f"severity must be in [0, 1], got {severity}")
        if events_per_kind < 0:
            raise ValueError("events_per_kind must be >= 0")
        if severity == 0.0 or events_per_kind == 0:
            return cls()
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        window_ns = duration_ns * (0.05 + 0.25 * severity)

        def rand_window() -> Tuple[float, float]:
            t0 = float(rng.uniform(0.0, max(duration_ns - window_ns, 1.0)))
            return t0, t0 + window_ns

        def rand_pair() -> Tuple[int, int]:
            src = int(rng.integers(0, n_devices))
            dst = int(rng.integers(0, n_devices - 1))
            if dst >= src:
                dst += 1
            return src, dst

        for _ in range(events_per_kind):
            if n_devices > 1:
                s, d = rand_pair()
                t0, t1 = rand_window()
                events.append(FaultEvent(
                    "link_degrade", t0, t1, src=s, dst=d,
                    severity=1.0 - 0.9 * severity,
                ))
                s, d = rand_pair()
                t0, t1 = rand_window()
                events.append(FaultEvent(
                    "link_latency", t0, t1, src=s, dst=d,
                    severity=float(severity * 100 * us),
                ))
                if severity >= 0.5:
                    s, d = rand_pair()
                    t0, t1 = rand_window()
                    events.append(FaultEvent("link_down", t0, t1, src=s, dst=d))
            dev = int(rng.integers(0, n_devices))
            t0, t1 = rand_window()
            events.append(FaultEvent(
                "device_slowdown", t0, t1, device=dev,
                severity=1.0 + 3.0 * severity,
            ))
            dev = int(rng.integers(0, n_devices))
            t0, t1 = rand_window()
            stall = min(float(severity * 2 * ms), window_ns)
            events.append(FaultEvent(
                "device_stall", t0, t0 + stall, device=dev,
            ))
        return cls(tuple(events))
