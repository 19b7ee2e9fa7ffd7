"""Chaos sweep: goodput/availability vs. replication factor × failure count.

For each grid point the sweep builds a fresh ``<base>+replicated``
:class:`~repro.core.retrieval.DistributedEmbedding` (its own cluster, so
profiler counters and the heartbeat monitor never mix), runs one healthy
warm-up batch, installs an identical ``device_down`` fault plan, replays
the *identical* synthetic batch stream, and records:

* **availability** — served lookups / total lookups across all batches
  (a table whose every holder is dead drops its lookups; a live replica
  keeps them served);
* **goodput** — served lookups per second of simulated wall time, so the
  failover detour's extra comm cost shows up even when availability
  stays at 1.0;
* **recovery** — re-replication bytes, detection latency, and the
  down-edge → re-protected latency of the background recovery stream.

``write_json`` emits ``BENCH_availability.json``;
:func:`validate_chaossweep_json` is the self-check — it enforces
the invariants the artifact exists to witness: zero failures ⇒ perfect
availability and no failover/recovery traffic, and for every (backend,
failure count) pair, ``k = 2`` availability at least matching ``k = 1``
under the same fault plan, and exactly 1.0 when one device failed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator
from ..faults import FaultEvent, FaultInjector, FaultPlan
from ..replication import ReplicationSpec
from ..simgpu.units import to_ms, us
from .sweeps import SweepResult
from .telemetry import preset_workload
from .validate import check_artifact, check_point

__all__ = ["ChaosSweepPoint", "run_chaos_sweep", "validate_chaossweep_json"]

#: heartbeat cadence used by the sweep: fast enough that failures are
#: detected within a tiny-preset batch or two
_SWEEP_HEARTBEAT_NS = 5 * us


@dataclass(frozen=True)
class ChaosSweepPoint:
    """One (backend, k, failure count) measurement."""

    backend: str  #: base backend the "+replicated" wrapper fronted
    k: int
    n_failures: int
    n_batches: int
    total_ns: float
    lookups_total: float
    served_lookups: float
    unavailable_lookups: float
    failover_lookups: float
    availability: float
    failures_detected: float
    recovery_bytes: float
    time_to_reprotect_ns: float

    @property
    def goodput_lookups_per_s(self) -> float:
        """Served lookups per second of simulated wall time."""
        if self.total_ns <= 0:
            return 0.0
        return self.served_lookups / (self.total_ns / 1e9)

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["placement"] = "spread"
        payload["goodput_lookups_per_s"] = self.goodput_lookups_per_s
        return payload


_COLUMNS = (
    ("backend", lambda p: p.backend),
    ("k", lambda p: f"{p.k}"),
    ("fails", lambda p: f"{p.n_failures}"),
    ("total (ms)", lambda p: f"{to_ms(p.total_ns):.3f}"),
    ("availability", lambda p: f"{p.availability:.4f}"),
    ("goodput (M/s)", lambda p: f"{p.goodput_lookups_per_s / 1e6:.2f}"),
    ("failover", lambda p: f"{int(p.failover_lookups)}"),
    ("recovery (MB)", lambda p: f"{p.recovery_bytes / 1e6:.3f}"),
    ("reprotect (us)", lambda p: (
        f"{p.time_to_reprotect_ns / us:.1f}" if p.time_to_reprotect_ns > 0 else "-"
    )),
)


_POINT_KEYS = (
    "backend", "k", "placement", "n_failures", "n_batches", "total_ns",
    "lookups_total", "served_lookups", "unavailable_lookups",
    "failover_lookups", "availability", "failures_detected",
    "recovery_bytes", "time_to_reprotect_ns", "goodput_lookups_per_s",
)


def validate_chaossweep_json(data: Any) -> None:
    """Validate a ``BENCH_availability.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces the availability invariants: lookup
    conservation (served + unavailable = total), perfect availability and
    zero failover/recovery traffic with no failures, detection plus
    finite positive re-protect latency (and real recovery bytes) whenever
    a replica existed to recover to, and — for every (backend, failure
    count) pair where both ran — ``k = 2`` availability ≥ ``k = 1``, and
    exactly 1.0 under a single failure (one replica masks it fully).
    """
    points = check_artifact(
        data,
        kind="availability",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_devices", "n_batches"),
    )
    groups: Dict[tuple, Dict[int, Dict[str, Any]]] = {}
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        label = f"point {i} ({point['backend']}, k={point['k']}, " \
                f"failures={point['n_failures']})"
        if not (0.0 <= point["availability"] <= 1.0):
            raise ValueError(f"{label}: availability outside [0, 1]")
        if not math.isfinite(point["time_to_reprotect_ns"]):
            raise ValueError(f"{label}: time_to_reprotect_ns must be finite")
        conserved = point["served_lookups"] + point["unavailable_lookups"]
        if abs(conserved - point["lookups_total"]) > 0.5:
            raise ValueError(f"{label}: served + unavailable != total lookups")
        if point["total_ns"] <= 0 or point["goodput_lookups_per_s"] <= 0:
            raise ValueError(f"{label}: degenerate timing/goodput")
        if point["n_failures"] == 0:
            if point["availability"] != 1.0:
                raise ValueError(f"{label}: healthy run must have availability 1.0")
            if point["failover_lookups"] or point["recovery_bytes"]:
                raise ValueError(f"{label}: healthy run moved failover/recovery traffic")
        elif point["k"] >= 2:
            if point["failures_detected"] < 1:
                raise ValueError(f"{label}: failure was never detected")
            # Re-replication needs a live non-holder to copy to: with
            # k - 1 surviving holders, that means G - failures >= k.
            if data["n_devices"] - point["n_failures"] >= point["k"]:
                if point["recovery_bytes"] <= 0:
                    raise ValueError(f"{label}: recovery moved no bytes")
                if point["time_to_reprotect_ns"] <= 0:
                    raise ValueError(f"{label}: recovery never completed")
        groups.setdefault((point["backend"], point["n_failures"]), {})[
            point["k"]
        ] = point
    for (backend, fails), by_k in groups.items():
        k1 = by_k.get(1)
        k2 = by_k.get(2)
        if k1 is None or k2 is None:
            continue
        if k2["availability"] < k1["availability"]:
            raise ValueError(
                f"({backend}, failures={fails}): k=2 availability "
                f"{k2['availability']} below k=1 {k1['availability']}"
            )
    for (backend, fails), by_k in groups.items():
        if fails == 1 and 2 in by_k and by_k[2]["availability"] != 1.0:
            raise ValueError(
                f"({backend}, failures=1): one replica must fully mask a "
                f"single failure, got k=2 availability {by_k[2]['availability']}"
            )


def run_chaos_sweep(
    preset: str = "tiny",
    *,
    n_devices: int = 4,
    ks: Sequence[int] = (1, 2),
    failure_counts: Sequence[int] = (0, 1),
    bases: Sequence[str] = ("pgas", "baseline"),
    n_batches: int = 6,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> SweepResult:
    """Measure every (base backend, k, failure count) grid point.

    Every point gets a fresh embedding (its own cluster and heartbeat
    monitor) but an identical batch stream and an identical fault plan:
    after one healthy warm-up batch, devices ``0..n_failures-1`` die
    permanently, and the remaining ``n_batches - 1`` batches run through
    detection, failover, and background recovery.  The grid coordinates
    are the only thing changing between rows.
    """
    if not ks or not bases or not failure_counts:
        raise ValueError("every sweep axis needs at least one value")
    for base in bases:
        if base not in ("pgas", "baseline"):
            raise ValueError(f"unknown base backend {base!r}")
    if n_batches < 2:
        raise ValueError("need >= 2 batches (one healthy warm-up, then chaos)")
    if max(failure_counts) >= n_devices:
        raise ValueError("cannot fail every device in the cluster")
    cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)

    sweep = SweepResult(
        title=(
            f"[chaos sweep: {preset} preset, {n_devices} GPUs, "
            f"{n_batches} batches/point]"
        ),
        columns=_COLUMNS,
        keys=("backend", "k", "n_failures"),
        header={"preset": preset, "n_devices": n_devices, "n_batches": n_batches},
    )
    for base in bases:
        for k in ks:
            for n_failures in failure_counts:
                spec = ReplicationSpec(k=k, heartbeat_interval_ns=_SWEEP_HEARTBEAT_NS)
                emb = DistributedEmbedding(
                    cfg,
                    n_devices,
                    backend=f"{base}+replicated",
                    features=FeatureSpec(replication=spec),
                )
                adapter = emb.backend_adapter(f"{base}+replicated")
                gen = SyntheticDataGenerator(cfg)
                total = PhaseTiming()
                total.add(adapter.run_timed(emb.build_workloads(gen.lengths_batch())))
                if n_failures:
                    plan = FaultPlan(tuple(
                        FaultEvent("device_down", 1.0 + d, 1e9, device=d)
                        for d in range(n_failures)
                    ))
                    FaultInjector(emb.cluster, plan).install()
                for _ in range(n_batches - 1):
                    total.add(
                        adapter.run_timed(emb.build_workloads(gen.lengths_batch()))
                    )
                adapter.wait_for_reprotect(
                    limit_ns=emb.cluster.engine.now + 1e9
                )
                totals = adapter.totals()
                counters = emb.cluster.profiler.counters

                def counter_total(name: str) -> float:
                    c = counters.get(name)
                    return float(c.total) if c is not None else 0.0

                served = totals["lookups_total"] - totals["unavailable_lookups"]
                sweep.points.append(
                    ChaosSweepPoint(
                        backend=base,
                        k=k,
                        n_failures=n_failures,
                        n_batches=n_batches,
                        total_ns=total.total_ns,
                        lookups_total=totals["lookups_total"],
                        served_lookups=served,
                        unavailable_lookups=totals["unavailable_lookups"],
                        failover_lookups=totals["failover_lookups"],
                        availability=totals["availability"],
                        failures_detected=totals["failures_detected"],
                        recovery_bytes=counter_total("availability.recovery_bytes"),
                        time_to_reprotect_ns=totals["time_to_reprotect_ns"],
                    )
                )
    return sweep
