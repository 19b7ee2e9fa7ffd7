"""Machine-readable run reports: one JSON artifact per simulated run.

:class:`RunReport` gathers everything a perf gate needs to diff two runs —
the workload identity, phase timings, derived metrics, per-link stats,
selected time series, cache/fault/serving counters — under a stable,
versioned schema.  ``to_json`` is canonical (sorted keys, plain floats),
so ``RunReport.from_json(r.to_json()).to_json() == r.to_json()`` holds
bit-exact and CI can diff artifacts textually.

:func:`collect_run_report` derives a report from a profiler record;
:func:`validate_report` checks an untrusted dict against the schema
(hand-rolled — no jsonschema dependency).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..obs.critpath import critical_path_report
from ..simgpu.interconnect import Topology
from ..simgpu.profiler import Profiler
from .metrics import BURSTINESS_BINS, compute_metrics, link_stats
from .timeline import (
    comm_rate_series,
    compute_occupancy_series,
    gauge_series,
    run_window,
    sample_edges,
)

__all__ = [
    "SCHEMA_VERSION",
    "QUEUE_DEPTH_COUNTER",
    "IN_FLIGHT_COUNTER",
    "BATCH_FORMED_COUNTER",
    "ReportValidationError",
    "RunReport",
    "collect_run_report",
    "validate_report",
]

#: bump on any backwards-incompatible change to the report layout
#: (2: added the ``compression`` counter section;
#:  3: added the ``availability`` counter section;
#:  4: added the ``critical_path`` section;
#:  5: added the ``reshard`` counter section;
#:  6: added the ``hier`` counter section)
SCHEMA_VERSION = 6

#: level counter stamped by :class:`repro.core.serving.InferenceServer`
QUEUE_DEPTH_COUNTER = "serving.queue_depth"

#: level counter: batches currently executing on the cluster (≤ the
#: scheduler's ``max_in_flight``); stamped +1 at dispatch, −1 at completion
IN_FLIGHT_COUNTER = "serving.in_flight"

#: event-counter prefix: one count per formed batch, suffixed by the
#: formation trigger (``.size`` / ``.timeout`` / ``.exhausted``)
BATCH_FORMED_COUNTER = "serving.batches_formed"


class ReportValidationError(ValueError):
    """A report dict does not conform to the :data:`SCHEMA_VERSION` schema."""


def _plain(obj: Any) -> Any:
    """Recursively coerce to canonical plain-python JSON types.

    Numpy scalars/arrays become floats/lists, tuples become lists, ints
    stay ints — so two reports with equal content serialize identically.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        # numpy scalar
        return _plain(obj.item())
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _plain(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialise {type(obj).__name__} into a run report")


@dataclass
class RunReport:
    """One run's complete telemetry artifact (see DESIGN.md §9 for schema)."""

    backend: str
    n_devices: int
    schema_version: int = SCHEMA_VERSION
    workload: Dict[str, Any] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    links: Dict[str, Dict[str, float]] = field(default_factory=dict)
    series: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    compression: Dict[str, float] = field(default_factory=dict)
    availability: Dict[str, float] = field(default_factory=dict)
    reshard: Dict[str, float] = field(default_factory=dict)
    hier: Dict[str, float] = field(default_factory=dict)
    critical_path: Dict[str, Any] = field(default_factory=dict)
    serving: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, default: float = float("nan")) -> float:
        """Shortcut: one metric's value (``default`` when absent)."""
        payload = self.metrics.get(name)
        return float(payload["value"]) if payload is not None else default

    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (what ``to_json`` serialises)."""
        return _plain({f.name: getattr(self, f.name) for f in fields(self)})

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Canonical JSON: sorted keys, plain floats — diff- and hash-stable."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild from a dict; validates against the schema first."""
        validate_report(data)
        return cls(
            **{
                f.name: data[f.name] if f.name in _HEADER else dict(data.get(f.name, {}))
                for f in fields(cls)
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json` (bit-exact round-trip)."""
        return cls.from_dict(json.loads(text))


#: the scalar header fields and their types; every other field is a section
_HEADER: Dict[str, type] = {"schema_version": int, "backend": str, "n_devices": int}

#: top-level schema: key -> (required, type); ``metrics`` is the one
#: required section
_SCHEMA: Dict[str, tuple] = {
    f.name: (f.name in _HEADER or f.name == "metrics", _HEADER.get(f.name, dict))
    for f in fields(RunReport)
}

#: counter sections: report field -> the profiler counter-name prefix it totals
_COUNTER_SECTIONS: Dict[str, str] = {
    "cache": "cache.",
    "compression": "compress.",
    "availability": "availability.",
    "reshard": "reshard.",
    "hier": "hier.",
}


def validate_report(data: Any) -> None:
    """Raise :class:`ReportValidationError` unless ``data`` fits the schema."""
    if not isinstance(data, dict):
        raise ReportValidationError(f"report must be a dict, got {type(data).__name__}")
    for key, (required, typ) in _SCHEMA.items():
        if key not in data:
            if required:
                raise ReportValidationError(f"missing required key {key!r}")
            continue
        if not isinstance(data[key], typ) or isinstance(data[key], bool):
            raise ReportValidationError(
                f"key {key!r} must be {typ.__name__}, got {type(data[key]).__name__}"
            )
    unknown = set(data) - set(_SCHEMA)
    if unknown:
        raise ReportValidationError(f"unknown top-level keys: {sorted(unknown)}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ReportValidationError(
            f"schema_version {data['schema_version']} != supported {SCHEMA_VERSION}"
        )
    if data["n_devices"] < 1:
        raise ReportValidationError("n_devices must be >= 1")
    for name, payload in data["metrics"].items():
        if not isinstance(payload, dict) or "value" not in payload or "unit" not in payload:
            raise ReportValidationError(
                f"metric {name!r} must be a dict with 'value' and 'unit'"
            )
        if isinstance(payload["value"], bool) or not isinstance(
            payload["value"], (int, float)
        ):
            raise ReportValidationError(f"metric {name!r} value must be a number")
    for key in ("timing", *_COUNTER_SECTIONS):
        for name, value in data.get(key, {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ReportValidationError(f"{key}[{name!r}] must be a number")
    cp = data.get("critical_path", {})
    if cp:
        for cp_key in ("wall_ns", "path_ns"):
            if cp_key not in cp:
                raise ReportValidationError(f"critical_path missing {cp_key!r}")
            if isinstance(cp[cp_key], bool) or not isinstance(cp[cp_key], (int, float)):
                raise ReportValidationError(f"critical_path[{cp_key!r}] must be a number")
        if not isinstance(cp.get("by_category", {}), dict):
            raise ReportValidationError("critical_path['by_category'] must be a dict")
        if not isinstance(cp.get("batches", []), list):
            raise ReportValidationError("critical_path['batches'] must be a list")
    for window in data.get("faults", {}).get("windows", []):
        for wkey in ("name", "t_start_ns", "t_end_ns"):
            if wkey not in window:
                raise ReportValidationError(f"fault window missing {wkey!r}")


def _counter_totals(profiler: Profiler, prefix: str) -> Dict[str, float]:
    """Grand totals of every counter whose name starts with ``prefix``.

    A counter booked on links also lists one ``counter.devS->devD`` total
    per link (see :meth:`Profiler.pair_counters`).
    """
    totals: Dict[str, float] = {}
    for name, counter in profiler.counters.items():
        if name.startswith(prefix):
            totals[name] = float(counter.total)
            for pair, link in profiler.pair_counters(name).items():
                totals[pair] = float(link.total)
    return dict(sorted(totals.items()))


def _fault_windows(profiler: Profiler) -> List[Dict[str, Any]]:
    """Fault spans as plain window records."""
    return [
        {
            "name": s.name,
            "device": s.device_id,
            "t_start_ns": float(s.t_start),
            "t_end_ns": float(s.t_end),
        }
        for s in profiler.spans_by_category("fault")
    ]


def collect_run_report(
    profiler: Profiler,
    *,
    backend: str,
    n_devices: int,
    workload: Optional[Any] = None,
    timing: Optional[Any] = None,
    topology: Optional[Topology] = None,
    serving: Optional[Any] = None,
    n_bins: int = 240,
    include_series: bool = True,
    meta: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Derive a full :class:`RunReport` from one run's profiler record.

    ``workload``/``timing``/``serving`` accept either a plain dict or any
    object exposing ``as_dict()`` (``WorkloadConfig`` dataclasses also
    work).  Pass ``include_series=False`` to keep the artifact small
    (metrics and link stats are retained; the per-bin gauges are dropped).
    The ``critical_path`` section is derived from the same span record
    (run-level always; per-batch entries when the run was traced).
    """

    def to_dict(obj: Any) -> Dict[str, Any]:
        if obj is None:
            return {}
        if isinstance(obj, dict):
            return dict(obj)
        if hasattr(obj, "as_dict"):
            return dict(obj.as_dict())
        if dataclasses.is_dataclass(obj):
            return dataclasses.asdict(obj)
        raise TypeError(f"cannot convert {type(obj).__name__} into report payload")

    metrics = compute_metrics(profiler, n_devices, topology=topology, n_bins=n_bins)
    t0, t1 = run_window(profiler)
    edges = sample_edges(t0, t1, n_bins)

    series: Dict[str, Dict[str, Any]] = {}
    if include_series:
        series["comm_rate"] = comm_rate_series(profiler, edges).as_dict()
        for dev in range(n_devices):
            ts = compute_occupancy_series(profiler, edges, dev)
            series[ts.name] = ts.as_dict()
        for gauge_name in (QUEUE_DEPTH_COUNTER, IN_FLIGHT_COUNTER):
            counter = profiler.counters.get(gauge_name)
            if counter is not None:
                series[gauge_name] = gauge_series(counter, edges).as_dict()

    faults: Dict[str, Any] = {}
    windows = _fault_windows(profiler)
    fault_counters = _counter_totals(profiler, "faults.")
    if windows or fault_counters:
        faults = {"windows": windows, "counters": fault_counters}

    # Burstiness-style link stats use the coarse grid (see BURSTINESS_BINS).
    burst_edges = sample_edges(t0, t1, min(BURSTINESS_BINS, n_bins))
    return RunReport(
        backend=backend,
        n_devices=n_devices,
        workload=to_dict(workload),
        timing=to_dict(timing),
        metrics=metrics,
        links=link_stats(profiler, burst_edges, topology=topology),
        series=series,
        **{
            section: _counter_totals(profiler, prefix)
            for section, prefix in _COUNTER_SECTIONS.items()
        },
        critical_path=critical_path_report(profiler) if profiler.spans else {},
        serving=to_dict(serving),
        faults=faults,
        meta=dict(meta or {}),
    )
