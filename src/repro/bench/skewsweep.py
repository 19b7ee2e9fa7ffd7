"""Skew sweep: online resharding vs. static placement under table skew.

For each (backend, skew) grid point the sweep builds a fresh embedding
through :func:`~repro.core.factory.build_backend` (its own cluster, so
profiler counters and migration streams never mix), replays an identical
synthetic batch stream, and records:

* **imbalance** — max/mean per-device retrieval bytes over the whole
  run, evaluated under the *static* placement (``imbalance_before``) and
  under the final serving ownership (``imbalance_after``); for the static
  backends the two are the same number by construction;
* **latency** — total simulated time, per-batch p99, and the traced
  critical path's ``comm`` share, so a migration that balances traffic
  but stalls the foreground shows up;
* **migration traffic** — plans adopted, tables moved, migrated bytes
  and busy time from the ``reshard.*`` counters.

``write_json`` emits ``BENCH_reshard.json``;
:func:`validate_skewsweep_json` is the self-check — it enforces
the invariants the artifact exists to witness: static placement never
migrates, resharding never *worsens* the imbalance it observed, and
migration counters are self-consistent (moves ⇔ bytes ⇔ time).
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.baseline import PhaseTiming
from ..core.factory import build_backend, parse_backend_name
from ..core.retrieval import adapter_class
from ..core.runspec import RunSpec
from ..core.workload import table_segments
from ..dlrm.data import SyntheticDataGenerator
from ..obs import TraceSpec
from ..obs.critpath import critical_path_report
from ..reshard import ReshardSpec
from ..reshard.planner import owner_loads
from ..simgpu.units import to_ms
from .sweeps import SweepResult
from .telemetry import preset_workload
from .validate import check_artifact, check_point

__all__ = ["SkewSweepPoint", "run_skew_sweep", "validate_skewsweep_json"]


@dataclass(frozen=True)
class SkewSweepPoint:
    """One (backend, table skew) measurement."""

    backend: str  #: full backend name ("pgas", "pgas+reshard", ...)
    skew_alpha: float  #: table traffic skew exponent (0 = uniform)
    n_batches: int
    total_ns: float
    p99_batch_ns: float
    comm_ns: float  #: PhaseTiming comm total (pgas folds comm into "fused" spans)
    critpath_comm_ns: float  #: traced critical-path "comm" category
    imbalance_before: float  #: max/mean device bytes under static placement
    imbalance_after: float  #: same traffic under the final serving ownership
    max_device_bytes_before: float
    max_device_bytes_after: float
    plans: float
    tables_moved: float
    migrations: float
    migration_bytes: float
    migration_ns: float
    advisories: float

    @property
    def imbalance_reduction(self) -> float:
        """Fractional drop in max-device traffic imbalance (0 = none)."""
        if self.imbalance_before <= 0.0:
            return 0.0
        return 1.0 - self.imbalance_after / self.imbalance_before

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["imbalance_reduction"] = self.imbalance_reduction
        return payload


_COLUMNS = (
    ("backend", lambda p: p.backend),
    ("skew", lambda p: f"{p.skew_alpha:g}"),
    ("total (ms)", lambda p: f"{to_ms(p.total_ns):.3f}"),
    ("p99 (ms)", lambda p: f"{to_ms(p.p99_batch_ns):.4f}"),
    ("comm (ms)", lambda p: f"{to_ms(p.comm_ns):.3f}"),
    ("cp comm (ms)", lambda p: f"{to_ms(p.critpath_comm_ns):.3f}"),
    ("imb before", lambda p: f"{p.imbalance_before:.3f}"),
    ("imb after", lambda p: f"{p.imbalance_after:.3f}"),
    ("reduction", lambda p: f"{100.0 * p.imbalance_reduction:.1f}%"),
    ("moved", lambda p: f"{int(p.tables_moved)}"),
    ("migrated (MB)", lambda p: f"{p.migration_bytes / 1e6:.3f}"),
)


_POINT_KEYS = (
    "backend", "skew_alpha", "n_batches", "total_ns", "p99_batch_ns",
    "comm_ns", "critpath_comm_ns", "imbalance_before", "imbalance_after",
    "max_device_bytes_before", "max_device_bytes_after", "plans",
    "tables_moved", "migrations", "migration_bytes", "migration_ns",
    "advisories", "imbalance_reduction",
)


def validate_skewsweep_json(data: Any) -> None:
    """Validate a ``BENCH_reshard.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces the resharding invariants: every
    imbalance is a max/mean (>= 1), static backends never migrate and
    never change ownership (before == after), resharding backends never
    worsen the imbalance they observed, migration counters are
    self-consistent (completed migrations move bytes and take time), and
    — for every skew level where both ran — the ``+reshard`` point's
    observed traffic matches its static twin's, so the before/after
    comparison is apples to apples.
    """
    points = check_artifact(
        data,
        kind="reshard",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_devices", "n_batches"),
    )
    by_pair: Dict[Any, Dict[bool, Dict[str, Any]]] = {}
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        label = f"point {i} ({point['backend']}, skew={point['skew_alpha']})"
        for key in ("imbalance_before", "imbalance_after"):
            if not math.isfinite(point[key]) or point[key] < 1.0 - 1e-9:
                raise ValueError(f"{label}: {key} must be a finite max/mean >= 1")
        if point["total_ns"] <= 0 or point["p99_batch_ns"] <= 0:
            raise ValueError(f"{label}: degenerate timing")
        resharded = "+reshard" in point["backend"]
        if not resharded:
            if point["migrations"] or point["migration_bytes"] or point["plans"]:
                raise ValueError(f"{label}: static backend moved migration traffic")
            if point["imbalance_after"] != point["imbalance_before"]:
                raise ValueError(f"{label}: static backend changed ownership")
        else:
            if point["imbalance_after"] > point["imbalance_before"] + 1e-9:
                raise ValueError(
                    f"{label}: resharding worsened imbalance "
                    f"({point['imbalance_before']:.4f} -> "
                    f"{point['imbalance_after']:.4f})"
                )
            if (point["migrations"] > 0) != (point["migration_bytes"] > 0):
                raise ValueError(f"{label}: migrations and migrated bytes disagree")
            if point["migrations"] > 0 and point["migration_ns"] <= 0:
                raise ValueError(f"{label}: migrations completed in zero time")
            if point["tables_moved"] > point["migrations"]:
                raise ValueError(f"{label}: more tables moved than migrations ran")
        base = str(point["backend"]).split("+", 1)[0]
        by_pair.setdefault((base, float(point["skew_alpha"])), {})[resharded] = point
    for (base, skew), pair in by_pair.items():
        static = pair.get(False)
        dynamic = pair.get(True)
        if static is None or dynamic is None:
            continue
        if abs(static["imbalance_before"] - dynamic["imbalance_before"]) > 1e-6:
            raise ValueError(
                f"({base}, skew={skew}): static and +reshard saw different "
                f"traffic ({static['imbalance_before']:.6f} vs "
                f"{dynamic['imbalance_before']:.6f})"
            )


def run_skew_sweep(
    preset: str = "tiny",
    *,
    n_devices: int = 4,
    backends: Sequence[str] = (
        "pgas", "pgas+reshard", "baseline", "baseline+reshard",
    ),
    skews: Sequence[float] = (0.0, 1.05),
    n_batches: int = 10,
    reshard_spec: Optional[ReshardSpec] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> SweepResult:
    """Measure every (backend, table skew) grid point.

    Every point gets a fresh embedding built through
    :func:`~repro.core.factory.build_backend` but an identical batch
    stream: the generator is re-seeded per point and ``skew_alpha``
    only rescales per-table lengths post-draw, so a ``+reshard`` point
    and its static twin observe byte-identical traffic and their
    imbalance columns compare the *placement*, nothing else.
    """
    if not backends or not skews:
        raise ValueError("every sweep axis needs at least one value")
    for name in backends:
        adapter_class(name)  # malformed or unknown names raise before any work
    if n_batches < 1:
        raise ValueError("need at least one batch per point")
    base_cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)
    if reshard_spec is None:
        # Tuned for short sweeps: plan early and often, keep the default
        # migration pacing so foreground batches still see the link.
        reshard_spec = ReshardSpec(
            window_batches=max(4, n_batches // 2),
            min_batches=2,
            check_interval_batches=2,
            imbalance_threshold=1.1,
        )

    sweep = SweepResult(
        title=(
            f"[skew sweep: {preset} preset, {n_devices} GPUs, "
            f"{n_batches} batches/point]"
        ),
        columns=_COLUMNS,
        keys=("backend", "skew_alpha"),
        header={"preset": preset, "n_devices": n_devices, "n_batches": n_batches},
    )
    for backend in backends:
        resharded = "reshard" in parse_backend_name(backend)[1]
        for skew in skews:
            cfg = base_cfg
            if skew:
                cfg = dataclasses.replace(cfg, table_skew_alpha=float(skew))
            # Tracing is on so the critical path decomposes into
            # compute/comm/sync categories; it changes attribution, not
            # timing, so the skew comparison is unaffected.
            runspec = RunSpec(
                cfg,
                n_devices=n_devices,
                backend=backend,
                reshard=reshard_spec if resharded else None,
                obs=TraceSpec(),
            )
            emb = build_backend(runspec)
            adapter = emb.backend_adapter()
            gen = SyntheticDataGenerator(cfg)
            static_owners = {
                tc.name: emb.plan.owner_of(tc.name) for tc in emb.plan.table_configs
            }
            row_bytes = {tc.name: tc.row_bytes for tc in emb.plan.table_configs}
            traffic: Dict[str, float] = defaultdict(float)
            total = PhaseTiming()
            batch_ns: List[float] = []
            for _ in range(n_batches):
                lengths = gen.lengths_batch()
                workloads = emb.build_workloads(lengths)
                for name, seg in table_segments(emb.plan, workloads).items():
                    traffic[name] += float(seg[2]) * row_bytes[name]
                # forward_timed (not adapter.run_timed) so the batch runs
                # inside the trace scope and spans get category labels.
                timing = emb.forward_timed(lengths)
                total.add(timing)
                batch_ns.append(timing.total_ns)
            if resharded:
                adapter.wait_for_migrations(
                    limit_ns=emb.cluster.engine.now + 1e9
                )
            final_owners = adapter.owners if resharded else static_owners
            before, _, imbalance_before = owner_loads(traffic, static_owners, n_devices)
            after, _, imbalance_after = owner_loads(traffic, final_owners, n_devices)
            counters = emb.cluster.profiler.counters

            def counter_total(name: str) -> float:
                c = counters.get(name)
                return float(c.total) if c is not None else 0.0

            report = critical_path_report(emb.cluster.profiler)
            sweep.points.append(
                SkewSweepPoint(
                    backend=str(backend),
                    skew_alpha=float(skew),
                    n_batches=n_batches,
                    total_ns=total.total_ns,
                    p99_batch_ns=float(np.percentile(batch_ns, 99.0)),
                    comm_ns=total.comm_ns,
                    critpath_comm_ns=float(
                        report["by_category"].get("comm", 0.0)
                    ),
                    imbalance_before=imbalance_before,
                    imbalance_after=imbalance_after,
                    max_device_bytes_before=max(before),
                    max_device_bytes_after=max(after),
                    plans=counter_total("reshard.plans"),
                    tables_moved=(
                        float(len(adapter.moved_tables())) if resharded else 0.0
                    ),
                    migrations=counter_total("reshard.migrations"),
                    migration_bytes=counter_total("reshard.migration_bytes"),
                    migration_ns=counter_total("reshard.migration_ns"),
                    advisories=counter_total("reshard.advisories"),
                )
            )
    return sweep
