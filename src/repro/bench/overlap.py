"""Overlap analysis: how much communication actually hid under compute.

The paper argues its speedup comes from overlap; this module measures it
directly from a run's profiler record, rather than inferring it from end
times:

* ``hidden_fraction`` — the share of delivered communication volume whose
  delivery instant fell inside a compute (kernel) span.  ~1.0 for PGAS on
  NVLink (messages drain while waves execute), ~0.0 for the baseline
  (all traffic lands in the dedicated comm phase).
* ``exposed_comm_ns`` — wall time during which the fabric was active but
  no kernel was running: the communication actually *paid for* in
  latency.

These power the overlap ablation and give users a one-number diagnostic
for their own configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.pgas import PGASContext
from ..core.retrieval import BackendName, DistributedEmbedding
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from ..simgpu.interconnect import Interconnect
from ..simgpu.profiler import Profiler
from ..telemetry.timeline import COMPUTE_CATEGORIES, merged_intervals

__all__ = ["OverlapReport", "analyze_overlap", "measure_overlap"]

@dataclass(frozen=True)
class OverlapReport:
    """Volume- and time-based overlap metrics of one run."""

    total_comm_bytes: float
    hidden_comm_bytes: float
    compute_wall_ns: float
    run_wall_ns: float

    @property
    def hidden_fraction(self) -> float:
        """Share of communication volume delivered during compute."""
        if self.total_comm_bytes <= 0:
            return 1.0
        return self.hidden_comm_bytes / self.total_comm_bytes

    @property
    def exposed_comm_bytes(self) -> float:
        """Bytes delivered outside any compute span."""
        return self.total_comm_bytes - self.hidden_comm_bytes

    def summary(self) -> str:
        """One-line result."""
        return (
            f"{self.hidden_fraction:.1%} of {self.total_comm_bytes:,.0f} comm bytes "
            f"hidden under {self.compute_wall_ns / 1e6:.2f} ms of compute "
            f"(run {self.run_wall_ns / 1e6:.2f} ms)"
        )


def analyze_overlap(profiler: Profiler) -> OverlapReport:
    """Compute overlap metrics from an already-recorded profiler."""
    intervals = merged_intervals(profiler, COMPUTE_CATEGORIES)
    compute_wall = sum(hi - lo for lo, hi in intervals)
    total = 0.0
    hidden = 0.0
    for name in (Interconnect.COUNTER, PGASContext.COUNTER):
        counter = profiler.counters.get(name)
        if counter is None:
            continue
        for t, delta in counter.events():
            total += delta
            for lo, hi in intervals:
                if lo <= t <= hi:
                    hidden += delta
                    break
    run_end = max((s.t_end for s in profiler.spans), default=0.0)
    run_start = min((s.t_start for s in profiler.spans), default=0.0)
    return OverlapReport(
        total_comm_bytes=total,
        hidden_comm_bytes=hidden,
        compute_wall_ns=compute_wall,
        run_wall_ns=run_end - run_start,
    )


def measure_overlap(
    config: WorkloadConfig,
    n_devices: int,
    backend: BackendName,
    *,
    seed: int = 2024,
) -> OverlapReport:
    """Run one batch of ``config`` and analyse its overlap."""
    emb = DistributedEmbedding(config, n_devices, backend=backend)
    lengths = SyntheticDataGenerator(config).lengths_batch()
    emb.forward_timed(lengths)
    return analyze_overlap(emb.cluster.profiler)
