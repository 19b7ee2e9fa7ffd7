"""Resharding policy: when to re-balance and how much to move at once.

A :class:`ReshardSpec` configures the skew-aware online load balancer:
how much traffic history the :class:`~repro.reshard.tracker.LoadTracker`
keeps and how lopsided the per-device traffic must get before the
:class:`~repro.reshard.planner.ReshardPlanner` acts.  How many tables one
:class:`~repro.reshard.planner.MigrationPlan` may move is fixed by
:data:`~repro.reshard.planner.MAX_MOVES_PER_PLAN`, and how fast the
:class:`~repro.reshard.executor.ReshardExecutor` streams a move by its
module constants (bandwidth share and chunk size).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReshardSpec"]


@dataclass(frozen=True)
class ReshardSpec:
    """Policy knobs of the skew-aware online resharding layer.

    Attributes
    ----------
    window_batches:
        Sliding-window length of the load tracker, in batches.  Planning
        decisions look at the traffic of the most recent ``window_batches``
        batches only, so the balancer adapts when the skew shifts.
    min_batches:
        Batches that must be observed before the planner may act at all
        (avoids re-balancing on one batch's noise).
    check_interval_batches:
        Planning cadence: imbalance is evaluated every this many batches.
    imbalance_threshold:
        Max/mean per-device traffic ratio above which a migration plan is
        drawn up.  ``1.0`` is perfect balance; must be ``>= 1.0``.  A
        uniform workload sits at ~1.0 and never triggers.
    """

    window_batches: int = 8
    min_batches: int = 2
    check_interval_batches: int = 4
    imbalance_threshold: float = 1.25

    def __post_init__(self) -> None:
        if self.window_batches < 1:
            raise ValueError("window_batches must be >= 1")
        if self.min_batches < 1:
            raise ValueError("min_batches must be >= 1")
        if self.min_batches > self.window_batches:
            raise ValueError(
                f"min_batches ({self.min_batches}) cannot exceed "
                f"window_batches ({self.window_batches})"
            )
        if self.check_interval_batches < 1:
            raise ValueError("check_interval_batches must be >= 1")
        if self.imbalance_threshold < 1.0:
            raise ValueError(
                f"imbalance_threshold must be >= 1.0 (max/mean ratio), "
                f"got {self.imbalance_threshold}"
            )
