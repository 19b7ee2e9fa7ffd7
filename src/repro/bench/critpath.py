"""Critical-path bench: per-backend path attribution and ``BENCH_critpath.json``.

Runs the same traced batch stream through each backend on a fresh cluster,
extracts the run-level and per-batch critical paths (DESIGN.md §13), and
renders where the bounding time went — compute, interconnect, unpack, or
idle — next to the first-order "what-if" headroom.  ``write_json`` emits
the artifact the CI regression gate (:mod:`repro.obs.regress`) diffs
against its committed baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.baseline import PhaseTiming
from ..core.factory import build_backend
from ..core.runspec import RunSpec
from ..dlrm.data import SyntheticDataGenerator
from ..obs import TraceSpec
from ..obs.critpath import critical_path_report
from ..simgpu.units import to_ms
from .sweeps import Column, SweepResult
from .telemetry import preset_workload
from .validate import check_artifact, check_point

__all__ = ["CritPathPoint", "run_critpath", "validate_critpath_json"]

#: wall == path, by_category sums to path, per-batch wall == path: the
#: tiling is exact by construction, so only float summation noise is allowed
_REL_TOL = 1e-6


@dataclass
class CritPathPoint:
    """One backend's critical-path attribution over the shared batch stream."""

    backend: str
    n_batches: int
    wall_ns: float
    path_ns: float
    by_category: Dict[str, float]
    by_device: Dict[str, float]
    slack_min_ns: float
    slack_total_ns: float
    whatif: Dict[str, float]
    batches: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "n_batches": self.n_batches,
            "wall_ns": float(self.wall_ns),
            "path_ns": float(self.path_ns),
            "by_category": {k: float(v) for k, v in self.by_category.items()},
            "by_device": {k: float(v) for k, v in self.by_device.items()},
            "slack_min_ns": float(self.slack_min_ns),
            "slack_total_ns": float(self.slack_total_ns),
            "whatif": {k: float(v) for k, v in self.whatif.items()},
            "batches": self.batches,
        }


def _top_whatif(p: CritPathPoint) -> str:
    if not p.whatif:
        return "-"
    name, wall = min(p.whatif.items(), key=lambda kv: kv[1])
    return f"-{name[len('zero_'):-len('_wall_ns')]}: {to_ms(wall):.3f}"


def _category(name: str) -> Column:
    def cell(p: CritPathPoint) -> str:
        ns = p.by_category.get(name, 0.0)
        return f"{to_ms(ns):.3f}" if ns else "-"

    return (f"{name} (ms)", cell)


def _columns(categories: Sequence[str]) -> List[Column]:
    """Path breakdown columns (ms), one per category on any backend's path."""
    return [
        ("backend", lambda p: p.backend),
        ("wall (ms)", lambda p: f"{to_ms(p.wall_ns):.3f}"),
        *(_category(c) for c in categories),
        ("top what-if", _top_whatif),
    ]


_POINT_KEYS = (
    "backend", "n_batches", "wall_ns", "path_ns", "by_category",
    "by_device", "slack_min_ns", "slack_total_ns", "whatif", "batches",
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


def validate_critpath_json(data: Any) -> None:
    """Validate a ``BENCH_critpath.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces the invariants the artifact exists to
    witness: the critical path tiles the wall exactly (run-level and per
    batch), the category attribution sums to the path, per-span slack
    never went negative, every what-if headroom stays within ``[0, wall]``
    — and, when both backends ran on >= 2 devices, the baseline's path
    crosses the interconnect (``comm``) while the PGAS path never does
    (its transfers hide inside the fused kernel, the paper's core claim).
    """
    points = check_artifact(
        data,
        kind="critpath",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_devices", "n_batches"),
    )
    by_backend: Dict[str, Dict[str, Any]] = {}
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        label = f"point {i} ({point['backend']})"
        if point["wall_ns"] <= 0:
            raise ValueError(f"{label}: degenerate wall time")
        if not _close(point["path_ns"], point["wall_ns"]):
            raise ValueError(
                f"{label}: critical path ({point['path_ns']}) does not tile "
                f"the wall ({point['wall_ns']})"
            )
        cat_sum = sum(point["by_category"].values())
        if not _close(cat_sum, point["path_ns"]):
            raise ValueError(
                f"{label}: category attribution ({cat_sum}) does not sum "
                f"to the path ({point['path_ns']})"
            )
        dev_sum = sum(point["by_device"].values())
        if not _close(dev_sum, point["path_ns"]):
            raise ValueError(
                f"{label}: device attribution ({dev_sum}) does not sum "
                f"to the path ({point['path_ns']})"
            )
        if point["slack_min_ns"] < 0:
            raise ValueError(f"{label}: negative per-span slack")
        for name, wall in point["whatif"].items():
            if not (0.0 <= wall <= point["wall_ns"] * (1.0 + _REL_TOL)):
                raise ValueError(
                    f"{label}: what-if {name} ({wall}) outside [0, wall]"
                )
        if not point["batches"]:
            raise ValueError(f"{label}: traced run must carry per-batch paths")
        for j, b in enumerate(point["batches"]):
            if not _close(b["path_ns"], b["wall_ns"]):
                raise ValueError(
                    f"{label} batch {j}: per-batch path does not tile its wall"
                )
        by_backend[point["backend"]] = point
    pgas = by_backend.get("pgas")
    baseline = by_backend.get("baseline")
    if pgas is not None and baseline is not None and data["n_devices"] >= 2:
        if baseline["by_category"].get("comm", 0.0) <= 0:
            raise ValueError(
                "baseline's critical path never crossed the interconnect"
            )
        if pgas["by_category"].get("comm", 0.0) != 0.0:
            raise ValueError(
                "pgas critical path carries an exposed comm phase; its "
                "transfers should hide inside the fused kernel"
            )


def run_critpath(
    preset: str = "tiny",
    *,
    n_devices: int = 2,
    backends: Sequence[str] = ("pgas", "baseline"),
    n_batches: int = 2,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> SweepResult:
    """Trace every backend over the same batches and extract its paths.

    Each backend gets a fresh cluster (so profiler records never mix) with
    request tracing on (``obs=TraceSpec()``) and the identical batch
    stream; ``scale`` shrinks the batch dimension for quick runs.
    """
    if not backends:
        raise ValueError("need at least one backend")
    if n_batches < 1:
        raise ValueError("n_batches must be >= 1")
    cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)
    spec = RunSpec(workload=cfg, n_devices=n_devices, name=preset, obs=TraceSpec())

    points = []
    for backend in backends:
        emb = build_backend(spec, backend=backend)
        gen = SyntheticDataGenerator(cfg)
        timing = PhaseTiming()
        for _ in range(n_batches):
            timing.add(emb.forward_timed(gen.lengths_batch()))
        report = critical_path_report(emb.cluster.profiler)
        points.append(
            CritPathPoint(
                backend=backend,
                n_batches=n_batches,
                wall_ns=report["wall_ns"],
                path_ns=report["path_ns"],
                by_category=report["by_category"],
                by_device=report["by_device"],
                slack_min_ns=report["slack"]["min_ns"],
                slack_total_ns=report["slack"]["total_ns"],
                whatif=report["whatif"],
                batches=report["batches"],
            )
        )
    return SweepResult(
        title=(
            f"[critpath: {preset} preset, {n_devices} GPUs, "
            f"{n_batches} batch(es)]"
        ),
        columns=_columns(sorted({c for p in points for c in p.by_category})),
        keys=("backend",),
        points=points,
        header={"preset": preset, "n_devices": n_devices, "n_batches": n_batches},
    )
