"""One-call experiment runner: regenerate any paper artifact by id.

``run_experiment("T1")`` … ``run_experiment("F10")`` reproduce the paper's
two speedup tables and six evaluation figures; ``run_all`` does everything
(as ``examples/reproduce_paper.py`` and EXPERIMENTS.md do).  Scaling sweeps
are cached per (kind, n_batches, scale) so the four artifacts derived from
one sweep don't recompute it.

``scale`` trades fidelity for wall time: 1.0 is the paper's configuration
(batch 16384); smaller scales shrink the batch proportionally, preserving
every ratio the assertions check (the cost model is linear in batch size
above the latency floor).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..checks import check_finite, checked_count
from ..dlrm.data import STRONG_SCALING_TOTAL, WEAK_SCALING_BASE, WorkloadConfig
from .breakdown import BreakdownResult, breakdown_from_scaling
from .commvolume import CommVolumeTrace, trace_comm_volume
from .reporting import (
    render_breakdown,
    render_comm_volume,
    render_scaling_figure,
    render_speedup_table,
)
from .scaling import ScalingResult, run_strong_scaling, run_weak_scaling

__all__ = ["EXPERIMENT_IDS", "ExperimentRunner", "scaled_config"]

EXPERIMENT_IDS = ("T1", "F5", "F6", "F7", "T2", "F8", "F9", "F10")


def scaled_config(config: WorkloadConfig, scale: float) -> WorkloadConfig:
    """Shrink the batch dimension by ``scale`` (1.0 = paper size)."""
    if not (0.0 < scale <= 1.0):
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    B = max(int(round(config.batch_size * scale)), 256)
    return replace(config, batch_size=B)


@dataclass
class ExperimentRunner:
    """Runs and caches the paper's experiments.

    Parameters
    ----------
    n_batches:
        Batches accumulated per measurement (paper: 100).
    scale:
        Batch-size scale factor (1.0 = paper).
    device_counts:
        GPU counts to sweep (paper: 1–4).
    """

    n_batches: int = 100
    scale: float = 1.0
    device_counts: Sequence[int] = (1, 2, 3, 4)
    seed: int = 2024

    def __post_init__(self) -> None:
        owner = "ExperimentRunner"
        self.n_batches = checked_count(owner, "n_batches", self.n_batches, 1)
        check_finite(owner, "scale", self.scale)
        if self.scale > 1.0:
            raise ValueError(f"{owner}.scale must be in (0, 1], got {self.scale}")
        self.device_counts = tuple(
            checked_count(owner, "device_counts", g, 1) for g in self.device_counts
        )
        if not self.device_counts:
            raise ValueError(f"{owner}.device_counts must not be empty")
        self.seed = checked_count(owner, "seed", self.seed, 0)
        self._weak: Optional[ScalingResult] = None
        self._strong: Optional[ScalingResult] = None

    # -- sweeps (cached) -------------------------------------------------------

    @property
    def weak_config(self) -> WorkloadConfig:
        """Per-GPU weak-scaling workload at the runner's scale."""
        return scaled_config(WEAK_SCALING_BASE, self.scale)

    @property
    def strong_config(self) -> WorkloadConfig:
        """Total strong-scaling workload at the runner's scale."""
        return scaled_config(STRONG_SCALING_TOTAL, self.scale)

    def weak(self) -> ScalingResult:
        """The weak-scaling sweep (computed once)."""
        if self._weak is None:
            self._weak = run_weak_scaling(
                self.weak_config, self.device_counts, self.n_batches, self.seed
            )
        return self._weak

    def strong(self) -> ScalingResult:
        """The strong-scaling sweep (computed once)."""
        if self._strong is None:
            self._strong = run_strong_scaling(
                self.strong_config, self.device_counts, self.n_batches, self.seed
            )
        return self._strong

    # -- artifacts ----------------------------------------------------------------

    def table_weak(self) -> ScalingResult:
        """T1 — weak-scaling speedup table."""
        return self.weak()

    def fig5(self) -> ScalingResult:
        """F5 — weak scaling factors."""
        return self.weak()

    def fig6(self) -> BreakdownResult:
        """F6 — weak-scaling runtime breakdown."""
        return breakdown_from_scaling(self.weak())

    def fig7(self) -> List[CommVolumeTrace]:
        """F7 — comm volume over time, 2 GPUs, weak config."""
        cfg = scaled_config(
            WEAK_SCALING_BASE.scaled_tables(WEAK_SCALING_BASE.num_tables * 2), self.scale
        )
        return [
            trace_comm_volume(cfg, 2, "pgas", seed=self.seed),
            trace_comm_volume(cfg, 2, "baseline", seed=self.seed),
        ]

    def table_strong(self) -> ScalingResult:
        """T2 — strong-scaling speedup table."""
        return self.strong()

    def fig8(self) -> ScalingResult:
        """F8 — strong scaling factors."""
        return self.strong()

    def fig9(self) -> BreakdownResult:
        """F9 — strong-scaling runtime breakdown."""
        return breakdown_from_scaling(self.strong())

    def fig10(self) -> List[CommVolumeTrace]:
        """F10 — comm volume over time, 4 GPUs, strong config."""
        cfg = self.strong_config
        return [
            trace_comm_volume(cfg, 4, "pgas", seed=self.seed),
            trace_comm_volume(cfg, 4, "baseline", seed=self.seed),
        ]

    # -- rendering ---------------------------------------------------------------

    def render(self, experiment_id: str) -> str:
        """Human-readable rendering of one artifact."""
        eid = experiment_id.upper()
        if eid == "T1":
            return render_speedup_table(self.table_weak())
        if eid == "F5":
            return render_scaling_figure(self.fig5())
        if eid == "F6":
            return render_breakdown(self.fig6())
        if eid == "F7":
            return render_comm_volume(self.fig7())
        if eid == "T2":
            return render_speedup_table(self.table_strong())
        if eid == "F8":
            return render_scaling_figure(self.fig8())
        if eid == "F9":
            return render_breakdown(self.fig9())
        if eid == "F10":
            return render_comm_volume(self.fig10())
        raise KeyError(f"unknown experiment id {experiment_id!r}; know {EXPERIMENT_IDS}")
