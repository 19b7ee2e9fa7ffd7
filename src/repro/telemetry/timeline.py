"""Time-series gauges derived from profiler spans and counters.

The paper's temporal claims (comm hidden under compute, NVLink usage
smoothed instead of bursted) are statements about *series*, not totals.
This module turns a :class:`~repro.simgpu.profiler.Profiler` record into
fixed-grid gauges, re-using the paper's own instrument — the cumulative
communication counter polled on a period (§IV-A2b) — and extending it:

* :func:`comm_rate_series` — delivered payload bytes per nanosecond, per
  bin, summed over every comm counter (collective chunks + one-sided puts);
* :func:`link_utilization_series` — the same, per directed device pair,
  normalised to that link's bandwidth when a topology is supplied (a
  dimensionless occupancy in ``[0, ~1]``);
* :func:`compute_occupancy_series` — the fraction of each bin covered by a
  device's compute/fused spans (device ``-1`` spans count for everyone);
* :func:`gauge_series` — a level gauge from a ±delta counter (e.g. the
  serving queue depth counter): the cumulative value at each bin edge.

All series share one bin grid from :func:`sample_edges`, so they can be
compared bin-by-bin (overlap, exposure) without resampling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.pgas import PGASContext
from ..simgpu.interconnect import Interconnect, Topology
from ..simgpu.profiler import Counter, Profiler

__all__ = [
    "COMM_COUNTER_NAMES",
    "COMPUTE_CATEGORIES",
    "TimeSeries",
    "comm_rate_series",
    "compute_occupancy_series",
    "gauge_series",
    "link_utilization_series",
    "merged_intervals",
    "per_pair_comm_counters",
    "run_window",
    "sample_edges",
]

#: base (non-pair) counters that carry delivered communication payload
COMM_COUNTER_NAMES = (Interconnect.COUNTER, PGASContext.COUNTER)

#: span categories during which "compute is running" (the baseline's
#: dedicated kernel phase, and the PGAS fused kernel which is all three
#: phases at once)
COMPUTE_CATEGORIES = ("compute", "fused")

#: per-pair sub-counter names stamped by :meth:`Interconnect.send`
_PAIR_RE = re.compile(r"^(?P<base>[a-z_]+)\.dev(?P<src>\d+)->dev(?P<dst>\d+)$")


@dataclass(frozen=True)
class TimeSeries:
    """One gauge sampled on a fixed bin grid.

    ``times`` holds the left edge of each bin; every bin is ``bin_ns``
    wide except possibly the last, which is clipped to the run window.
    """

    name: str
    unit: str
    times: np.ndarray  #: bin left edges (ns)
    values: np.ndarray  #: one value per bin
    bin_ns: float

    def __post_init__(self) -> None:
        if self.times.shape != self.values.shape:
            raise ValueError(
                f"times/values length mismatch: {self.times.shape} vs {self.values.shape}"
            )

    @property
    def peak(self) -> float:
        """Largest bin value (0 for an empty series)."""
        return float(self.values.max()) if self.values.size else 0.0

    @property
    def mean(self) -> float:
        """Mean bin value (0 for an empty series)."""
        return float(self.values.mean()) if self.values.size else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready plain-python view."""
        return {
            "unit": self.unit,
            "bin_ns": float(self.bin_ns),
            "times_ns": [float(t) for t in self.times],
            "values": [float(v) for v in self.values],
        }


def run_window(profiler: Profiler) -> Tuple[float, float]:
    """``(t_start, t_end)`` covering every span and counter event.

    ``(0.0, 0.0)`` when nothing was recorded.
    """
    starts: List[float] = [s.t_start for s in profiler.spans]
    ends: List[float] = [s.t_end for s in profiler.spans]
    for counter in profiler.counters.values():
        evs = counter.events()
        if evs:
            starts.append(evs[0][0])
            ends.append(evs[-1][0])
    if not starts:
        return 0.0, 0.0
    return min(starts), max(ends)


def sample_edges(t_start: float, t_end: float, n_bins: int = 240) -> np.ndarray:
    """``n_bins + 1`` evenly spaced bin edges over ``[t_start, t_end]``.

    A zero-width window degenerates to one 1-ns bin so downstream
    rate math never divides by zero.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if t_end < t_start:
        raise ValueError("t_end < t_start")
    if t_end == t_start:
        return np.array([t_start, t_start + 1.0], dtype=np.float64)
    return np.linspace(t_start, t_end, n_bins + 1, dtype=np.float64)


def _bin_volumes(counter: Counter, edges: np.ndarray) -> np.ndarray:
    """Payload delivered inside each bin (cumulative diff at the edges)."""
    cum = counter.values_at(edges)
    vols = np.diff(cum)
    if vols.size:
        # The first bin also owns anything delivered exactly at its left
        # edge (values_at is inclusive, so diff would drop those events).
        before = float(
            counter.values_at(np.array([np.nextafter(edges[0], -np.inf)]))[0]
        )
        vols[0] += cum[0] - before
    return vols


def comm_rate_series(
    profiler: Profiler,
    edges: np.ndarray,
    *,
    counters: Sequence[str] = COMM_COUNTER_NAMES,
    name: str = "comm_rate",
) -> TimeSeries:
    """Aggregate delivered-comm rate (bytes/ns) per bin across ``counters``."""
    vols = np.zeros(len(edges) - 1, dtype=np.float64)
    for cname in counters:
        counter = profiler.counters.get(cname)
        if counter is not None:
            vols += _bin_volumes(counter, edges)
    widths = np.diff(edges)
    return TimeSeries(
        name=name, unit="bytes/ns", times=edges[:-1], values=vols / widths,
        bin_ns=float(widths[0]),
    )


def per_pair_comm_counters(
    profiler: Profiler,
    bases: Sequence[str] = COMM_COUNTER_NAMES,
) -> Dict[Tuple[int, int], List[Counter]]:
    """All per-pair comm sub-counters, keyed on ``(src, dst)``.

    Both backends' counters land in the same pair bucket, so a run that
    mixed backends (e.g. resilient fallback) still attributes correctly.
    """
    pairs: Dict[Tuple[int, int], List[Counter]] = {}
    for cname, counter in profiler.counters.items():
        m = _PAIR_RE.match(cname)
        if m is None or m.group("base") not in bases:
            continue
        key = (int(m.group("src")), int(m.group("dst")))
        pairs.setdefault(key, []).append(counter)
    return pairs


def link_utilization_series(
    profiler: Profiler,
    edges: np.ndarray,
    *,
    topology: Optional[Topology] = None,
) -> Dict[Tuple[int, int], TimeSeries]:
    """Per-link delivered-payload gauge over the bin grid.

    With ``topology`` supplied, each pair's series is its payload rate
    divided by that link's bandwidth — an occupancy fraction (headers are
    excluded, so a saturated link reads slightly below 1).  Without a
    topology the raw rate in bytes/ns is returned.
    """
    return _link_series(per_pair_comm_counters(profiler), edges, topology)


def _link_series(
    pairs: Dict[Tuple[int, int], List[Counter]],
    edges: np.ndarray,
    topology: Optional[Topology],
) -> Dict[Tuple[int, int], TimeSeries]:
    """:func:`link_utilization_series` over already-parsed per-pair counters."""
    widths = np.diff(edges)
    out: Dict[Tuple[int, int], TimeSeries] = {}
    for (src, dst), counters in sorted(pairs.items()):
        vols = np.zeros(len(edges) - 1, dtype=np.float64)
        for counter in counters:
            vols += _bin_volumes(counter, edges)
        rate = vols / widths
        unit = "bytes/ns"
        if topology is not None:
            spec = topology.link_spec(src, dst)
            if spec is not None:
                rate = rate / spec.bandwidth
                unit = "fraction"
        out[(src, dst)] = TimeSeries(
            name=f"link_util.dev{src}->dev{dst}", unit=unit,
            times=edges[:-1], values=rate, bin_ns=float(widths[0]),
        )
    return out


def merged_intervals(
    profiler: Profiler,
    categories: Sequence[str],
    device_id: Optional[int] = None,
) -> List[Tuple[float, float]]:
    """Merged ``(start, end)`` intervals of the given span categories.

    With ``device_id`` given, spans on that device *and* device-less spans
    (``device_id == -1``, e.g. the PGAS fused span) are included — a
    global span keeps every device busy.
    """
    spans = sorted(
        (
            s
            for s in profiler.spans
            if s.category in categories
            and (device_id is None or s.device_id == device_id or s.device_id == -1)
        ),
        key=lambda s: s.t_start,
    )
    merged: List[Tuple[float, float]] = []
    for s in spans:
        if merged and s.t_start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], s.t_end))
        else:
            merged.append((s.t_start, s.t_end))
    return merged


def _coverage(intervals: List[Tuple[float, float]], edges: np.ndarray) -> np.ndarray:
    """Fraction of each bin covered by the (merged) intervals."""
    widths = np.diff(edges)
    covered = np.zeros(len(edges) - 1, dtype=np.float64)
    for lo, hi in intervals:
        first = int(np.searchsorted(edges, lo, side="right")) - 1
        last = int(np.searchsorted(edges, hi, side="left")) - 1
        first = max(first, 0)
        last = min(last, len(covered) - 1)
        for b in range(first, last + 1):
            covered[b] += max(
                0.0, min(hi, edges[b + 1]) - max(lo, edges[b])
            )
    return np.clip(covered / widths, 0.0, 1.0)


def compute_occupancy_series(
    profiler: Profiler,
    edges: np.ndarray,
    device_id: Optional[int] = None,
    *,
    categories: Sequence[str] = COMPUTE_CATEGORIES,
) -> TimeSeries:
    """Fraction of each bin during which compute was running.

    ``device_id=None`` merges every device's compute intervals (any
    device computing counts).
    """
    intervals = merged_intervals(profiler, categories, device_id)
    label = "all" if device_id is None else f"dev{device_id}"
    return TimeSeries(
        name=f"compute_occupancy.{label}", unit="fraction",
        times=edges[:-1], values=_coverage(intervals, edges),
        bin_ns=float(np.diff(edges)[0]),
    )


def gauge_series(
    counter: Counter, edges: np.ndarray, *, name: Optional[str] = None
) -> TimeSeries:
    """Level gauge from a ±delta counter: cumulative value at bin starts.

    The serving queue-depth counter (+1 on admission, −k on dequeue) read
    this way is the instantaneous queue length.
    """
    values = counter.values_at(edges[:-1])
    return TimeSeries(
        name=name or counter.name, unit=counter.unit,
        times=edges[:-1], values=values.astype(np.float64),
        bin_ns=float(np.diff(edges)[0]),
    )
