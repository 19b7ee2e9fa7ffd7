"""Telemetry bench: side-by-side backend metrics and ``BENCH_metrics.json``.

Runs the same workload through each backend on a fresh cluster, derives a
full :class:`~repro.telemetry.RunReport` per backend, and renders the
paper-facing comparison (overlap fraction, exposed comm, link burstiness,
unpack share) as one table — the quantitative form of the paper's
"communication is hidden and smoothed" claims.  ``write_json`` emits the
machine-readable artifact a CI perf gate can diff across commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.baseline import PhaseTiming
from ..core.factory import build_backend
from ..core.runspec import PRESETS, RunSpec, preset_runspec
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from ..simgpu.units import to_ms
from ..telemetry import RunReport, validate_report
from .reporting import format_table
from .runner import scaled_config
from .validate import check_artifact

__all__ = [
    "METRIC_ROWS",
    "PRESETS",
    "MetricsComparison",
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


def preset_workload(preset: str, n_devices: int) -> WorkloadConfig:
    """Resolve a named preset to a workload for ``n_devices`` GPUs.

    Thin shim over :func:`repro.core.runspec.preset_runspec` — the preset
    definitions live there so every entry point (run/metrics/faultsweep/
    servesweep) resolves the same shapes.
    """
    return preset_runspec(preset, n_devices).workload


@dataclass
class MetricsComparison:
    """Per-backend run reports over one shared workload."""

    preset: str
    workload: WorkloadConfig
    n_devices: int
    n_batches: int
    reports: Dict[str, RunReport] = field(default_factory=dict)

    def metric(self, backend: str, name: str) -> float:
        """One backend's metric value (NaN when absent)."""
        return self.reports[backend].metric(name)

    def render(self) -> str:
        """Side-by-side metric table, one column per backend."""
        backends = list(self.reports)
        headers = ["metric"] + backends
        rows: List[List[str]] = []
        for name, label, fmt in METRIC_ROWS:
            row = [label]
            for be in backends:
                value = self.metric(be, name)
                row.append(fmt(value) if value == value else "-")
            rows.append(row)
        title = (
            f"[telemetry: {self.preset} preset, {self.workload.num_tables} tables, "
            f"batch {self.workload.batch_size}, {self.n_devices} GPUs, "
            f"{self.n_batches} batch(es)]"
        )
        return f"{title}\n{format_table(headers, rows)}"

    def as_dict(self) -> Dict[str, Any]:
        """The ``BENCH_metrics.json`` payload."""
        return {
            "schema_version": 1,
            "preset": self.preset,
            "n_devices": self.n_devices,
            "n_batches": self.n_batches,
            "reports": {be: r.as_dict() for be, r in self.reports.items()},
        }

    def write_json(self, path: str, *, indent: int = 1) -> None:
        """Write the canonical artifact (sorted keys, schema-valid)."""
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=indent)


def validate_metrics_json(data: Any) -> None:
    """Validate a ``BENCH_metrics.json`` payload (raises on violation)."""
    from ..telemetry.report import ReportValidationError

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
) -> MetricsComparison:
    """Run every backend over the same batches and derive its report.

    Each backend gets a fresh cluster (so profiler records don't mix) but
    the identical batch stream; ``scale`` shrinks the batch dimension for
    quick runs (1.0 = paper size).
    """
    cfg = preset_workload(preset, n_devices)
    if seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=seed)
    if scale != 1.0:
        cfg = scaled_config(cfg, scale)
    spec = RunSpec(workload=cfg, n_devices=n_devices, name=preset)

    comparison = MetricsComparison(
        preset=preset, workload=cfg, n_devices=n_devices, n_batches=n_batches
    )
    for backend in backends:
        emb = build_backend(spec, backend=backend)
        gen = SyntheticDataGenerator(cfg)
        total = PhaseTiming()
        for _ in range(n_batches):
            total.add(emb.forward_timed(gen.lengths_batch()))
        comparison.reports[backend] = emb.telemetry_report(
            timing=total,
            workload=cfg,
            n_bins=n_bins,
            include_series=include_series,
            meta={"preset": preset, "scale": scale, "n_batches": n_batches},
        )
    return comparison
