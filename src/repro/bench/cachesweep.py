"""Hot-row cache sweep: hit rate and EMB speedup vs skew and capacity.

For each (zipf alpha, cache capacity) point the sweep measures one base
backend with and without the cache on identical batch streams: simulated
EMB forward time, EMB-pass comm volume (the paper's wire-byte metric),
and the cache's hit rate.  The expected shape — and what the acceptance
tests assert — is that once the workload is skewed (alpha ≳ 1.05) and the
cache holds a few percent of the remote rows, both the comm volume and
the forward time drop strictly below the uncached backend.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from ..cache import CacheConfig
from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..core.workload import lengths_from_batch
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from .sweeps import SweepResult

__all__ = ["CacheSweepPoint", "run_cache_sweep"]


@dataclass(frozen=True)
class CacheSweepPoint:
    """One (alpha, capacity) measurement of cached vs uncached."""

    zipf_alpha: float
    capacity_fraction: float
    base: str  #: underlying backend name ("pgas" or "baseline")
    uncached: PhaseTiming
    cached: PhaseTiming
    uncached_comm_bytes: float
    cached_comm_bytes: float
    hit_rate: float

    @property
    def speedup(self) -> float:
        """Uncached over cached EMB forward time."""
        return self.uncached.total_ns / self.cached.total_ns

    @property
    def comm_reduction(self) -> float:
        """Fraction of wire bytes the cache removed."""
        if self.uncached_comm_bytes <= 0:
            return 0.0
        return 1.0 - self.cached_comm_bytes / self.uncached_comm_bytes


_COLUMNS = (
    ("alpha", lambda p: f"{p.zipf_alpha:g}"),
    ("capacity", lambda p: f"{p.capacity_fraction:.0%}"),
    ("hit rate", lambda p: f"{p.hit_rate:.1%}"),
    ("comm (MB)", lambda p: f"{p.uncached_comm_bytes / 1e6:.3f}"),
    ("comm+$ (MB)", lambda p: f"{p.cached_comm_bytes / 1e6:.3f}"),
    ("comm cut", lambda p: f"{p.comm_reduction:.1%}"),
    ("EMB (ms)", lambda p: f"{p.uncached.total_ns / 1e6:.3f}"),
    ("EMB+$ (ms)", lambda p: f"{p.cached.total_ns / 1e6:.3f}"),
    ("speedup", lambda p: f"{p.speedup:.3f}x"),
)


def run_cache_sweep(
    base_config: WorkloadConfig,
    alphas: Sequence[float],
    capacity_fractions: Sequence[float],
    *,
    base: str = "pgas",
    policy: str = "lru",
    n_devices: int = 2,
    n_batches: int = 4,
    warm_batches: int = 1,
) -> SweepResult:
    """Measure cached vs uncached over an (alpha × capacity) grid.

    Each point replays the *same* batch stream through both variants on
    fresh clusters.  ``warm_batches`` extra leading batches prime the
    cache (and, for ``static-topk``, feed the profiled frequency pass)
    without being counted in either variant's timing.
    """
    if not alphas or not capacity_fractions:
        raise ValueError("sweep needs at least one alpha and one capacity")
    if n_batches <= 0:
        raise ValueError("n_batches must be positive")
    result = SweepResult(
        title=(
            f"[cache sweep: {base} vs {base}+cache ({policy}) "
            f"@ {n_devices} GPUs, {n_batches} batches]"
        ),
        columns=_COLUMNS,
        keys=("zipf_alpha", "capacity_fraction"),
    )
    for alpha in alphas:
        cfg = dataclasses.replace(
            base_config, index_distribution="zipf", zipf_alpha=float(alpha)
        )
        gen = SyntheticDataGenerator(cfg)
        warm = [gen.sparse_batch() for _ in range(warm_batches)]
        batches = [gen.sparse_batch() for _ in range(n_batches)]

        # Uncached reference (timing is capacity-independent).
        emb_ref = DistributedEmbedding(cfg, n_devices, backend=base)
        ref_adapter = emb_ref.backend_adapter()
        ref_timing = PhaseTiming()
        ref_comm = 0.0
        for b in batches:
            workloads = emb_ref.build_workloads(lengths_from_batch(b))
            ref_timing.add(ref_adapter.run_timed(workloads))
            ref_comm += sum(wl.remote_output_bytes for wl in workloads)

        for frac in capacity_fractions:
            emb = DistributedEmbedding(
                cfg,
                n_devices,
                backend=f"{base}+cache",
                features=FeatureSpec(
                    cache=CacheConfig(capacity_fraction=float(frac), policy=policy)
                ),
            )
            engine = emb.backend_adapter()
            if policy == "static-topk" and warm:
                engine.warm_static(warm)
            else:
                for b in warm:
                    engine.plan_batch(b)
            timing = PhaseTiming()
            comm = 0.0
            hits = misses = 0
            for b in batches:
                cplan = engine.plan_batch(b)
                timing.add(engine.run_plan(cplan))
                comm += cplan.remote_bytes
                hits += cplan.hits
                misses += cplan.misses
            result.points.append(
                CacheSweepPoint(
                    zipf_alpha=float(alpha),
                    capacity_fraction=float(frac),
                    base=base,
                    uncached=ref_timing,
                    cached=timing,
                    uncached_comm_bytes=ref_comm,
                    cached_comm_bytes=comm,
                    hit_rate=hits / (hits + misses) if hits + misses else 0.0,
                )
            )
    return result
