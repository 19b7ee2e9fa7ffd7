"""Weak/strong scaling experiment drivers (paper §IV-A / §IV-B).

Each driver replays the paper's protocol: the same synthetic inputs feed
both backends; the accumulated EMB-forward time over ``n_batches`` batches
is the measurement; speedups and scaling factors are derived exactly as in
the paper:

* weak-scaling factor (Fig. 5)  = t(1 GPU) / t(G GPUs)   (ideal: flat 1.0)
* strong-scaling factor (Fig. 8) = t(1 GPU) / t(G GPUs)  (ideal: the line G)
* speedup tables                 = t(baseline) / t(PGAS) per GPU count.

Weak scaling grows the *table count* with the GPUs (64 tables per GPU);
strong scaling keeps 96 tables total and partitions them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..core.baseline import PhaseTiming
from ..core.retrieval import BackendName, DistributedEmbedding
from ..dlrm.data import (
    STRONG_SCALING_TOTAL,
    SyntheticDataGenerator,
    WEAK_SCALING_BASE,
    WorkloadConfig,
)

__all__ = ["ScalingPoint", "ScalingResult", "run_weak_scaling", "run_strong_scaling", "geomean"]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of nothing")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class ScalingPoint:
    """Both backends' accumulated timings at one GPU count."""

    n_devices: int
    baseline: PhaseTiming
    pgas: PhaseTiming

    @property
    def speedup(self) -> float:
        """PGAS speedup over the baseline at this GPU count."""
        return self.baseline.total_ns / self.pgas.total_ns


@dataclass
class ScalingResult:
    """A full scaling sweep over GPU counts."""

    kind: str  #: "weak" or "strong"
    config: WorkloadConfig  #: per-GPU (weak) or total (strong) workload
    n_batches: int
    points: List[ScalingPoint] = field(default_factory=list)

    def point(self, n_devices: int) -> ScalingPoint:
        """The sweep point at one GPU count."""
        for p in self.points:
            if p.n_devices == n_devices:
                return p
        raise KeyError(f"no point for {n_devices} devices")

    @property
    def device_counts(self) -> List[int]:
        """GPU counts in sweep order."""
        return [p.n_devices for p in self.points]

    def total_ns(self, backend: BackendName, n_devices: int) -> float:
        """Accumulated runtime of one backend at one GPU count."""
        p = self.point(n_devices)
        return (p.baseline if backend == "baseline" else p.pgas).total_ns

    def scaling_factor(self, backend: BackendName, n_devices: int) -> float:
        """t(1 GPU) / t(G GPUs) for a backend (Figs. 5 and 8)."""
        return self.total_ns(backend, 1) / self.total_ns(backend, n_devices)

    def speedup_table(self) -> Dict[int, float]:
        """The paper's speedup rows: {G: PGAS-over-baseline} for G >= 2."""
        return {p.n_devices: p.speedup for p in self.points if p.n_devices >= 2}

    @property
    def geomean_speedup(self) -> float:
        """Geometric-mean speedup over the multi-GPU points."""
        return geomean(self.speedup_table().values())


def _run_point(
    config: WorkloadConfig,
    n_devices: int,
    n_batches: int,
    seed: int,
) -> ScalingPoint:
    """Accumulate both backends over identical inputs at one GPU count."""
    # Identical inputs for both backends: regenerate with the same seed.
    gen = SyntheticDataGenerator(
        WorkloadConfig(
            num_tables=config.num_tables,
            rows_per_table=config.rows_per_table,
            dim=config.dim,
            batch_size=config.batch_size,
            max_pooling=config.max_pooling,
            min_pooling=config.min_pooling,
            index_distribution=config.index_distribution,
            seed=seed,
        )
    )
    batches = [gen.lengths_batch() for _ in range(n_batches)]

    base = DistributedEmbedding(config, n_devices, backend="baseline")
    base_total = PhaseTiming()
    for lengths in batches:
        base_total.add(base.forward_timed(lengths))

    pg = DistributedEmbedding(config, n_devices, backend="pgas")
    pgas_total = PhaseTiming()
    for lengths in batches:
        pgas_total.add(pg.forward_timed(lengths))

    return ScalingPoint(n_devices=n_devices, baseline=base_total, pgas=pgas_total)


def run_weak_scaling(
    base_config: WorkloadConfig = WEAK_SCALING_BASE,
    device_counts: Sequence[int] = (1, 2, 3, 4),
    n_batches: int = 100,
    seed: int = 2024,
) -> ScalingResult:
    """Paper §IV-A: constant per-GPU workload, tables grow with GPUs."""
    result = ScalingResult(kind="weak", config=base_config, n_batches=n_batches)
    for G in device_counts:
        cfg = base_config.scaled_tables(base_config.num_tables * G)
        result.points.append(_run_point(cfg, G, n_batches, seed))
    return result


def run_strong_scaling(
    total_config: WorkloadConfig = STRONG_SCALING_TOTAL,
    device_counts: Sequence[int] = (1, 2, 3, 4),
    n_batches: int = 100,
    seed: int = 2024,
) -> ScalingResult:
    """Paper §IV-B: constant total workload, partitioned over GPUs."""
    result = ScalingResult(kind="strong", config=total_config, n_batches=n_batches)
    for G in device_counts:
        result.points.append(_run_point(total_config, G, n_batches, seed))
    return result
