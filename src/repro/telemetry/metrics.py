"""Paper-facing scalar metrics derived from a profiler record.

Each metric quantifies one claim from the paper's evaluation:

* **overlap fraction** — share of delivered communication payload that
  landed while compute was running on the *source* device (device-less
  spans such as the PGAS fused pass count for every device).  The fused
  kernel overlaps essentially all of its traffic (§IV-A); the baseline's
  dedicated all-to-all phase overlaps none.
* **exposed comm time** — wall time during which traffic was moving but
  no compute was running: the non-hidden communication cost.
* **peak-to-mean / Gini burstiness** — shape statistics of the per-bin
  link-traffic series (Figs. 7/10): the baseline's start-of-batch burst
  gives a high peak-to-mean; PGAS's per-wave writes smooth it out.
* **unpack share** — fraction of the run spent in the host-side
  sync/unpack staging phase the fused kernel eliminates.

:func:`compute_metrics` returns them as one plain mapping, ``{name:
{"value", "unit", "description"}}`` in derivation order: what
:attr:`RunReport.metrics <repro.telemetry.RunReport>` stores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..simgpu.interconnect import Topology
from ..simgpu.profiler import Profiler
from .timeline import (
    COMPUTE_CATEGORIES,
    _comm_samples,
    _link_rates,
    comm_rate_series,
    compute_occupancy_series,
    merged_intervals,
    run_window,
    sample_edges,
)

__all__ = [
    "BURSTINESS_BINS",
    "compute_metrics",
    "exposed_comm_ns",
    "gini",
    "interconnect_idle_ns",
    "link_stats",
    "overlap_fraction",
    "peak_to_mean",
]

#: grid resolution for the burstiness statistics.  Counter deltas are
#: point masses at delivery instants, so on a fine grid peak-to-mean
#: degenerates into "how many deliveries happened" (every nonzero bin
#: holds exactly one delivery).  A coarser grid — a few deliveries per
#: busy bin — measures the *shape* of the traffic instead: the baseline's
#: dedicated burst stays concentrated while PGAS's per-wave writes spread
#: across the whole kernel.
BURSTINESS_BINS = 48


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------


def _stab_counts(
    intervals: List[Tuple[float, float]], times: np.ndarray
) -> np.ndarray:
    """True where ``times[i]`` lies inside any closed interval."""
    if not intervals:
        return np.zeros(times.shape, dtype=bool)
    starts = np.array([iv[0] for iv in intervals])
    ends = np.array([iv[1] for iv in intervals])
    inside = np.searchsorted(starts, times, side="right") - np.searchsorted(
        ends, times, side="left"
    )
    return inside > 0


def _overlap_sums(
    profiler: Profiler, device_id: Optional[int] = None
) -> Tuple[List[float], Dict[int, List[float]]]:
    """``[hidden, total]`` comm bytes overall and per source device.

    Each source's samples are stabbed once against that source's merged
    compute intervals; ``device_id`` keeps only the samples it sourced.
    """
    src, _, times, deltas = _comm_samples(profiler)
    if device_id is not None:
        mine = src == device_id
        src, times, deltas = src[mine], times[mine], deltas[mine]
    order = np.argsort(src, kind="stable")
    sources, starts = np.unique(src[order], return_index=True)
    overall = [0.0, 0.0]
    per_src: Dict[int, List[float]] = {}
    for dev, rows in zip(sources.tolist(), np.split(order, starts[1:])):
        intervals = merged_intervals(profiler, COMPUTE_CATEGORIES, dev)
        sent = deltas[rows]
        hidden = float(sent[_stab_counts(intervals, times[rows])].sum())
        total = float(sent.sum())
        per_src[dev] = [hidden, total]
        overall[0] += hidden
        overall[1] += total
    return overall, per_src


def _fraction(hidden: float, total: float) -> Tuple[float, float, float]:
    if total <= 0:
        return 0.0, 0.0, 0.0
    return hidden / total, hidden, total


def overlap_fraction(
    profiler: Profiler, device_id: Optional[int] = None
) -> Tuple[float, float, float]:
    """``(fraction, hidden_bytes, total_bytes)`` of comm hidden by compute.

    A delivered payload byte counts as *hidden* when its delivery instant
    falls inside a merged compute interval on its **source** device (or on
    a device-less span).  ``device_id`` restricts the sums to traffic that
    device sourced.  Because hidden bytes are a subset of delivered bytes,
    the fraction is bounded by 1.0 by construction.  Returns fraction 0.0
    when no traffic moved.
    """
    (hidden, total), _ = _overlap_sums(profiler, device_id)
    return _fraction(hidden, total)


def exposed_comm_ns(profiler: Profiler, edges: np.ndarray) -> float:
    """Wall time with traffic in flight but no compute anywhere.

    Per bin: ``bin_width · 1[comm > 0] · (1 − compute_coverage)`` —
    the communication cost the run actually pays on the critical path.
    """
    comm = comm_rate_series(profiler, edges)
    occupancy = compute_occupancy_series(profiler, edges, device_id=None)
    widths = np.diff(edges)
    active = comm.values > 0
    return float(np.sum(widths * active * (1.0 - occupancy.values)))


def interconnect_idle_ns(profiler: Profiler, edges: np.ndarray) -> float:
    """Wall time during which *no* traffic moved on any link.

    Per bin: ``bin_width · 1[comm == 0]`` — the inter-batch bubble the
    continuous-batching scheduler exists to close.  Sequential serving
    leaves the fabric dark between one batch's EMB drain and the next
    batch's kernels; with K batches in flight the writes of batch k fill
    the gap left by batch k+1's compute-only phases, so this shrinks.
    """
    comm = comm_rate_series(profiler, edges)
    widths = np.diff(edges)
    return float(np.sum(widths * (comm.values <= 0)))


def _scalar(values: np.ndarray):
    """A 0-d result as a float; a reduction over several rows stays an array."""
    return float(values) if values.ndim == 0 else values


def peak_to_mean(values: np.ndarray):
    """Peak-to-mean ratio along the last axis (1.0 for flat, 0.0 for empty/all-zero).

    A float for one series; one ratio per row for a ``(rows, bins)`` matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] == 0:
        return _scalar(np.zeros(values.shape[:-1]))
    mean = values.mean(axis=-1)
    ratio = np.divide(values.max(axis=-1), mean, out=np.zeros_like(mean), where=mean > 0)
    return _scalar(ratio)


def gini(values: np.ndarray):
    """Gini coefficient along the last axis (0 = uniform, →1 = bursty).

    For non-negative series: a float for one, one per row for a matrix.
    """
    values = np.sort(np.asarray(values, dtype=np.float64), axis=-1)
    n = values.shape[-1]
    if n == 0:
        return _scalar(np.zeros(values.shape[:-1]))
    total = values.sum(axis=-1)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weighted = 2.0 * np.sum(ranks * values, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = weighted / (n * total) - (n + 1.0) / n
    return _scalar(np.where(total > 0, coeff, 0.0))


def link_stats(
    profiler: Profiler,
    edges: np.ndarray,
    *,
    topology: Optional[Topology] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-link occupancy statistics over the sample grid.

    Keys are ``"dev{src}->dev{dst}"``; values carry total bytes plus the
    peak/mean/burstiness of the per-bin series (an occupancy fraction when
    a topology is supplied, bytes/ns otherwise).  Every statistic is one
    reduction along the bins of all links at once.
    """
    links, totals, rates = _link_rates(profiler, edges, topology)
    if not links:
        return {}
    columns = zip(
        totals.tolist(), rates.max(axis=1).tolist(), rates.mean(axis=1).tolist(),
        peak_to_mean(rates).tolist(), gini(rates).tolist(),
    )
    return {
        f"dev{src}->dev{dst}": {
            "bytes": total, "peak": pk, "mean": mn, "peak_to_mean": p2m, "gini": g,
        }
        for (src, dst), (total, pk, mn, p2m, g) in zip(links, columns)
    }


# ---------------------------------------------------------------------------
# full derivation
# ---------------------------------------------------------------------------


def compute_metrics(
    profiler: Profiler,
    n_devices: int,
    *,
    topology: Optional[Topology] = None,
    n_bins: int = 240,
) -> Dict[str, Dict[str, object]]:
    """Derive the full paper-facing metric set from one run's record, as
    ``{name: {"value": float, "unit": str, "description": str}}``."""
    metrics: Dict[str, Dict[str, object]] = {}

    def record(name: str, value: float, unit: str, description: str = "") -> None:
        metrics[name] = {"value": float(value), "unit": unit, "description": description}

    t0, t1 = run_window(profiler)
    wall = t1 - t0
    edges = sample_edges(t0, t1, n_bins)

    record("run_wall_ns", wall, "ns", "end-to-end run window")

    # One pass over the comm samples yields the run-wide and every
    # per-device overlap (the same numbers as overlap_fraction(profiler, d)).
    overall, per_src = _overlap_sums(profiler)
    frac, hidden, total = _fraction(*overall)
    record(
        "overlap_fraction", frac, "fraction",
        "share of delivered comm bytes hidden under compute",
    )
    record("comm_bytes_total", total, "bytes", "delivered comm payload")
    record("comm_bytes_hidden", hidden, "bytes", "payload delivered during compute")
    for dev in range(n_devices):
        dfrac, _, dtotal = _fraction(*per_src.get(dev, (0.0, 0.0)))
        if dtotal > 0:
            record(
                f"overlap_fraction.dev{dev}", dfrac, "fraction",
                f"overlap fraction for traffic sourced by device {dev}",
            )

    exposed = exposed_comm_ns(profiler, edges)
    record(
        "exposed_comm_ns", exposed, "ns",
        "wall time with traffic moving but no compute running",
    )
    if wall > 0:
        record(
            "exposed_comm_share", exposed / wall, "fraction",
            "exposed comm time / run wall time",
        )

    idle = interconnect_idle_ns(profiler, edges)
    record(
        "interconnect_idle_ns", idle, "ns",
        "wall time with zero interconnect traffic (inter-batch bubbles)",
    )
    if wall > 0:
        record(
            "interconnect_idle_share", idle / wall, "fraction",
            "interconnect idle time / run wall time",
        )

    burst_edges = sample_edges(t0, t1, min(BURSTINESS_BINS, n_bins))
    comm = comm_rate_series(profiler, burst_edges)
    record(
        "link_peak_to_mean", peak_to_mean(comm.values), "ratio",
        "peak/mean of the aggregate comm-rate series (burstiness)",
    )
    record(
        "link_gini", gini(comm.values), "ratio",
        "Gini coefficient of per-bin comm volume (0 smooth, 1 bursty)",
    )
    record(
        "comm_rate_peak", comm.peak, "bytes/ns", "peak per-bin comm rate"
    )
    record(
        "comm_rate_mean", comm.mean, "bytes/ns", "mean per-bin comm rate"
    )

    unpack_wall = profiler.category_wall_time("sync_unpack")
    record("unpack_wall_ns", unpack_wall, "ns", "sync/unpack staging wall time")
    if wall > 0:
        record(
            "unpack_share", unpack_wall / wall, "fraction",
            "sync/unpack staging share of the run",
        )

    # Per-phase wall breakdown: every recorded category, merged per phase.
    for category in sorted({s.category for s in profiler.spans}):
        record(
            f"phase_wall_ns.{category}",
            profiler.category_wall_time(category),
            "ns",
            f"merged wall time of {category} spans",
        )

    # Per-device compute occupancy over the run window.
    for dev in range(n_devices):
        occ = compute_occupancy_series(profiler, edges, dev)
        record(
            f"compute_occupancy.dev{dev}", occ.mean, "fraction",
            f"mean fraction of the run device {dev} spent computing",
        )

    # Compression (repro.compress): counter names are hardcoded rather than
    # imported to keep telemetry free of a repro.compress dependency.
    wire_counter = profiler.counters.get("compress.bytes_on_wire")
    if wire_counter is not None:
        wire = float(wire_counter.total)
        raw_counter = profiler.counters.get("compress.bytes_uncompressed")
        raw = float(raw_counter.total) if raw_counter is not None else 0.0
        record(
            "compression.bytes_on_wire", wire, "bytes",
            "remote payload bytes after codec compression",
        )
        record(
            "compression.bytes_uncompressed", raw, "bytes",
            "remote payload bytes before codec compression (fp32)",
        )
        if wire > 0:
            record(
                "compression.ratio", raw / wire, "ratio",
                "uncompressed / on-wire remote payload bytes",
            )
        for suffix, desc in (
            ("encode_ns", "modelled source-side encode kernel time"),
            ("decode_ns", "modelled destination-side decode kernel time"),
        ):
            counter = profiler.counters.get(f"compress.{suffix}")
            record(
                f"compression.{suffix}",
                float(counter.total) if counter is not None else 0.0,
                "ns",
                desc,
            )
        err_counter = profiler.counters.get("compress.max_abs_error")
        if err_counter is not None:
            record(
                "compression.max_abs_error",
                max((delta for _, delta in err_counter.events()), default=0.0),
                "abs",
                "largest measured |decoded - fp32| across functional batches",
            )
        sq = profiler.counters.get("compress.sq_error")
        n_elems = profiler.counters.get("compress.error_elems")
        if sq is not None and n_elems is not None and n_elems.total > 0:
            record(
                "compression.rmse",
                float(np.sqrt(sq.total / n_elems.total)),
                "abs",
                "RMS of measured decode error across functional batches",
            )

    # Availability (repro.replication): counters only exist on runs where
    # the heartbeat detector declared a failure, so healthy reports carry
    # no availability metrics at all.  Names are hardcoded, as above.
    failures = profiler.counters.get("availability.failures")
    if failures is not None:
        def total_of(name: str) -> float:
            counter = profiler.counters.get(name)
            return float(counter.total) if counter is not None else 0.0

        failover = total_of("availability.failover_lookups")
        unavailable = total_of("availability.unavailable_lookups")
        impaired_lookups = total_of("availability.batch_lookups")
        record(
            "availability.failures", float(failures.total), "failures",
            "devices declared permanently failed by the heartbeat detector",
        )
        record(
            "availability.failover_lookups", failover, "lookups",
            "lookups rerouted from a failed primary to a live replica",
        )
        record(
            "availability.unavailable_fraction",
            unavailable / impaired_lookups if impaired_lookups > 0 else 0.0,
            "fraction",
            "lookups with no live replica / lookups of impaired batches",
        )
        record(
            "availability.recovery_bytes",
            total_of("availability.recovery_bytes"), "bytes",
            "re-replication bytes streamed over the interconnect",
        )
        record(
            "availability.detection_ns",
            total_of("availability.detection_ns"), "ns",
            "summed down-edge -> declared-failed latency",
        )
        reprotect = profiler.counters.get("availability.time_to_reprotect_ns")
        if reprotect is not None:
            record(
                "availability.time_to_reprotect_ns",
                max((delta for _, delta in reprotect.events()), default=0.0),
                "ns",
                "slowest down-edge -> replication-factor-restored latency",
            )

    # Resharding (repro.reshard): counters only exist on runs where the
    # planner adopted at least one migration plan, so balanced runs carry
    # no reshard metrics at all.  Names are hardcoded, as above.
    plans = profiler.counters.get("reshard.plans")
    if plans is not None:
        def reshard_total(name: str) -> float:
            counter = profiler.counters.get(name)
            return float(counter.total) if counter is not None else 0.0

        record(
            "reshard.plans", float(plans.total), "plans",
            "migration plans adopted by the skew-aware planner",
        )
        record(
            "reshard.moves", reshard_total("reshard.moves"), "moves",
            "table moves submitted for background migration",
        )
        record(
            "reshard.migrations", reshard_total("reshard.migrations"),
            "migrations", "table migrations completed (cutover reached)",
        )
        record(
            "reshard.migration_bytes", reshard_total("reshard.migration_bytes"),
            "bytes", "migration bytes streamed over the interconnect",
        )
        record(
            "reshard.migration_ns", reshard_total("reshard.migration_ns"),
            "ns", "summed per-migration stream durations",
        )
        advisories = profiler.counters.get("reshard.advisories")
        if advisories is not None:
            record(
                "reshard.advisories", float(advisories.total), "advisories",
                "row-split advisories for tables too hot to balance table-wise",
            )

    return metrics
