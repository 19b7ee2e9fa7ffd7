"""Unified telemetry: time-series gauges, paper-facing metrics, run reports.

Layers (see DESIGN.md §9):

* :mod:`repro.telemetry.timeline` — fixed-grid gauges (link utilisation,
  compute occupancy, queue depth) derived from profiler spans/counters;
* :mod:`repro.telemetry.metrics` — scalar metrics (overlap fraction,
  exposed comm time, peak-to-mean / Gini burstiness, unpack share),
  derived as one plain ``{name: {"value", "unit", "description"}}``
  mapping by :func:`compute_metrics`;
* :mod:`repro.telemetry.report` — the versioned :class:`RunReport` JSON
  artifact and its validator;
* :mod:`repro.telemetry.export` — derived-gauge counter tracks for the
  Chrome/Perfetto trace.

This package depends only on :mod:`repro.simgpu` and :mod:`repro.comm`;
:mod:`repro.core` and :mod:`repro.bench` build on it.
"""

from .export import (
    TELEMETRY_PID,
    chrome_trace_with_telemetry,
    telemetry_trace_events,
    write_chrome_trace_with_telemetry,
)
from .metrics import (
    compute_metrics,
    exposed_comm_ns,
    gini,
    interconnect_idle_ns,
    link_stats,
    overlap_fraction,
    peak_to_mean,
)
from .report import (
    BATCH_FORMED_COUNTER,
    IN_FLIGHT_COUNTER,
    QUEUE_DEPTH_COUNTER,
    SCHEMA_VERSION,
    ReportValidationError,
    RunReport,
    collect_run_report,
    validate_report,
)
from .timeline import (
    COMM_COUNTER_NAMES,
    COMPUTE_CATEGORIES,
    TimeSeries,
    comm_rate_series,
    compute_occupancy_series,
    gauge_series,
    merged_intervals,
    run_window,
    sample_edges,
)

__all__ = [
    "BATCH_FORMED_COUNTER",
    "COMM_COUNTER_NAMES",
    "COMPUTE_CATEGORIES",
    "IN_FLIGHT_COUNTER",
    "QUEUE_DEPTH_COUNTER",
    "ReportValidationError",
    "RunReport",
    "SCHEMA_VERSION",
    "TELEMETRY_PID",
    "TimeSeries",
    "chrome_trace_with_telemetry",
    "collect_run_report",
    "comm_rate_series",
    "compute_metrics",
    "compute_occupancy_series",
    "exposed_comm_ns",
    "gauge_series",
    "gini",
    "interconnect_idle_ns",
    "link_stats",
    "merged_intervals",
    "overlap_fraction",
    "peak_to_mean",
    "run_window",
    "sample_edges",
    "telemetry_trace_events",
    "validate_report",
    "write_chrome_trace_with_telemetry",
]
