"""Telemetry bench: side-by-side backend metrics and ``BENCH_metrics.json``.

Runs the same workload through each backend on a fresh cluster, derives a
full :class:`~repro.telemetry.RunReport` per backend, and renders the
paper-facing comparison (overlap fraction, exposed comm, link burstiness,
unpack share) as one table — the quantitative form of the paper's
"communication is hidden and smoothed" claims.  ``write_json`` emits the
machine-readable artifact a CI perf gate can diff across commits.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from ..core.baseline import PhaseTiming
from ..core.factory import build_backend
from ..core.runspec import PRESETS, RunSpec, preset_runspec
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from ..simgpu.units import to_ms
from ..telemetry import ReportValidationError, RunReport, validate_report
from .runner import scaled_config
from .sweeps import SweepResult
from .validate import check_artifact

__all__ = [
    "METRIC_ROWS",
    "PRESETS",
    "preset_workload",
    "run_metrics",
    "validate_metrics_json",
]

# PRESETS is re-exported from repro.core.runspec (its canonical home).

#: rows of the comparison table: (metric name, label, formatter)
METRIC_ROWS = (
    ("overlap_fraction", "overlap fraction", lambda v: f"{v:.3f}"),
    ("exposed_comm_ns", "exposed comm (ms)", lambda v: f"{to_ms(v):.3f}"),
    ("link_peak_to_mean", "link peak-to-mean", lambda v: f"{v:.2f}"),
    ("link_gini", "link Gini", lambda v: f"{v:.3f}"),
    ("unpack_share", "unpack share", lambda v: f"{v:.3f}"),
    ("comm_bytes_total", "comm volume (MB)", lambda v: f"{v / 1e6:.1f}"),
    ("run_wall_ns", "run wall (ms)", lambda v: f"{to_ms(v):.3f}"),
)


def preset_workload(
    preset: str, n_devices: int, *, seed: Optional[int] = None, scale: float = 1.0
) -> WorkloadConfig:
    """Resolve a named preset to a workload for ``n_devices`` GPUs.

    Thin shim over :func:`repro.core.runspec.preset_runspec` — the preset
    definitions live there so every entry point resolves the same shapes.
    ``seed`` overrides the preset's workload seed and ``scale`` shrinks
    its batch dimension (1.0 = preset size).
    """
    cfg = preset_runspec(preset, n_devices).workload
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if scale != 1.0:
        cfg = scaled_config(cfg, scale)
    return cfg


def _metric_cell(name: str, fmt: Callable[[float], str]) -> Callable[[RunReport], str]:
    def cell(report: RunReport) -> str:
        value = report.metric(name)
        return fmt(value) if value == value else "-"

    return cell


#: the comparison table: one row per metric, one column per backend report
_COLUMNS = (("metric", lambda r: r.backend),) + tuple(
    (label, _metric_cell(name, fmt)) for name, label, fmt in METRIC_ROWS
)


def validate_metrics_json(data: Any) -> None:
    """Validate a ``BENCH_metrics.json`` payload (raises on violation).

    Every backend report must pass the RunReport schema, and when both
    pgas and baseline ran, pgas must hide more of its communication
    (a strictly higher ``overlap_fraction``) — the paper's core claim.
    """
    reports = check_artifact(
        data,
        kind="metrics",
        schema_version=1,
        required_keys=("schema_version", "preset", "n_devices", "n_batches"),
        collection="reports",
        noun="report",
        error=ReportValidationError,
        collection_type=dict,
    )
    for backend, report in reports.items():
        try:
            validate_report(report)
        except ReportValidationError as exc:
            raise ReportValidationError(f"report {backend!r}: {exc}") from None
    overlap = {
        backend: reports[backend]["metrics"]["overlap_fraction"]["value"]
        for backend in ("pgas", "baseline")
        if "overlap_fraction" in reports.get(backend, {}).get("metrics", {})
    }
    if len(overlap) == 2 and not overlap["pgas"] > overlap["baseline"]:
        raise ReportValidationError(
            f"pgas overlap_fraction {overlap['pgas']} must exceed the "
            f"baseline's {overlap['baseline']}"
        )


def run_metrics(
    preset: str = "weak",
    *,
    n_devices: int = 2,
    backends: Sequence[str] = ("pgas", "baseline"),
    n_batches: int = 1,
    scale: float = 1.0,
    n_bins: int = 240,
    include_series: bool = True,
    seed: Optional[int] = None,
) -> SweepResult:
    """Run every backend over the same batches and derive its report.

    Each backend gets a fresh cluster (so profiler records don't mix) but
    the identical batch stream; ``scale`` shrinks the batch dimension for
    quick runs (1.0 = paper size).
    """
    cfg = preset_workload(preset, n_devices, seed=seed, scale=scale)
    spec = RunSpec(workload=cfg, n_devices=n_devices, name=preset)

    comparison = SweepResult(
        title=(
            f"[telemetry: {preset} preset, {cfg.num_tables} tables, "
            f"batch {cfg.batch_size}, {n_devices} GPUs, {n_batches} batch(es)]"
        ),
        columns=_COLUMNS,
        keys=("backend",),
        header={"preset": preset, "n_devices": n_devices, "n_batches": n_batches},
        collection="reports",
        keyed=True,
    )
    for backend in backends:
        emb = build_backend(spec, backend=backend)
        gen = SyntheticDataGenerator(cfg)
        total = PhaseTiming()
        for _ in range(n_batches):
            total.add(emb.forward_timed(gen.lengths_batch()))
        comparison.points.append(emb.telemetry_report(
            timing=total,
            workload=cfg,
            n_bins=n_bins,
            include_series=include_series,
            meta={"preset": preset, "scale": scale, "n_batches": n_batches},
        ))
    return comparison
