"""``repro.bench`` — experiment harness.

Drivers and renderers that regenerate every table and figure of the
paper's evaluation section (see DESIGN.md §4 for the index).
"""

from .breakdown import BreakdownBar, BreakdownResult, breakdown_from_scaling
from .cachesweep import CacheSweepPoint, run_cache_sweep, validate_cachesweep_json
from .capacity import CapacityPoint, CapacityStudy, run_capacity_study
from .chaossweep import ChaosSweepPoint, run_chaos_sweep, validate_chaossweep_json
from .critpath import CritPathPoint, run_critpath, validate_critpath_json
from .faultsweep import FaultSweepPoint, run_fault_sweep, validate_faultsweep_json
from .commvolume import CommVolumeTrace, UNIT_BYTES, trace_comm_volume
from .reporting import (
    ascii_series,
    format_table,
    render_breakdown,
    render_comm_volume,
    render_scaling_figure,
    render_speedup_table,
)
from .overlap import OverlapReport, analyze_overlap, measure_overlap
from .report_md import build_report, md_table
from .runner import EXPERIMENT_IDS, ExperimentRunner, scaled_config
from .sweeps import (
    Sweep,
    SweepPoint,
    SweepResult,
    batch_size_sweep,
    pooling_sweep,
    table_count_sweep,
)
from .scaling import (
    ScalingPoint,
    ScalingResult,
    geomean,
    run_strong_scaling,
    run_weak_scaling,
)
from .servesweep import ServeSweepPoint, run_serve_sweep, validate_servesweep_json
from .skewsweep import SkewSweepPoint, run_skew_sweep, validate_skewsweep_json
from .telemetry import preset_workload, run_metrics, validate_metrics_json

__all__ = [
    "BreakdownBar",
    "CacheSweepPoint",
    "run_cache_sweep",
    "CapacityPoint",
    "CapacityStudy",
    "run_capacity_study",
    "ChaosSweepPoint",
    "run_chaos_sweep",
    "validate_cachesweep_json",
    "validate_chaossweep_json",
    "CritPathPoint",
    "run_critpath",
    "validate_critpath_json",
    "FaultSweepPoint",
    "run_fault_sweep",
    "validate_faultsweep_json",
    "preset_workload",
    "run_metrics",
    "validate_metrics_json",
    "BreakdownResult",
    "CommVolumeTrace",
    "EXPERIMENT_IDS",
    "ExperimentRunner",
    "OverlapReport",
    "analyze_overlap",
    "measure_overlap",
    "ScalingPoint",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "batch_size_sweep",
    "pooling_sweep",
    "table_count_sweep",
    "ScalingResult",
    "ServeSweepPoint",
    "run_serve_sweep",
    "validate_servesweep_json",
    "SkewSweepPoint",
    "run_skew_sweep",
    "validate_skewsweep_json",
    "UNIT_BYTES",
    "ascii_series",
    "breakdown_from_scaling",
    "build_report",
    "md_table",
    "format_table",
    "geomean",
    "render_breakdown",
    "render_comm_volume",
    "render_scaling_figure",
    "render_speedup_table",
    "run_strong_scaling",
    "run_weak_scaling",
    "scaled_config",
    "trace_comm_volume",
]
