"""Observability layer: trace context, critical-path analysis, regression gate.

Three pieces, built entirely on top of the existing profiler (no engine
changes):

* :mod:`repro.obs.context` — :class:`TraceSpec` and ``trace_scope`` for
  synchronous runs; interleaved serving chains carry their ref through
  ``Cluster.then``.
* :mod:`repro.obs.critpath` — backward-tiling critical-path extraction:
  exact wall attribution to phases/devices, per-span slack, what-if
  headroom, per-batch paths via trace refs.
* :mod:`repro.obs.regress` — the perf regression gate comparing a fresh
  ``BENCH_critpath.json`` against the committed baseline with per-metric
  tolerances, explaining breaches via critical-path deltas.
"""

from .context import TraceSpec, trace_scope
from .critpath import (
    CriticalPath,
    PathSegment,
    critical_path,
    critical_path_report,
)
from .regress import GateResult, MetricCheck, Tolerance, compare_critpath

__all__ = [
    "TraceSpec",
    "trace_scope",
    "CriticalPath",
    "PathSegment",
    "critical_path",
    "critical_path_report",
    "GateResult",
    "MetricCheck",
    "Tolerance",
    "compare_critpath",
]
