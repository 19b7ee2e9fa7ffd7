"""Hot-row cache sweep: hit rate and EMB speedup vs skew and capacity.

For each (zipf alpha, cache capacity) point the sweep measures one base
backend with and without the cache on identical batch streams: simulated
EMB forward time, EMB-pass comm volume (the paper's wire-byte metric),
and the cache's hit rate.  The expected shape — and what the acceptance
tests assert — is that once the workload is skewed (alpha ≳ 1.05) and the
cache holds a few percent of the remote rows, both the comm volume and
the forward time drop strictly below the uncached backend.

:func:`validate_cachesweep_json` re-checks the committed
``BENCH_cache.json`` against the invariants the sweep implies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Sequence

from ..cache import CacheConfig
from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..core.workload import lengths_from_batch
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from .sweeps import SweepResult
from .validate import check_artifact, check_point

__all__ = ["CacheSweepPoint", "run_cache_sweep", "validate_cachesweep_json"]


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

    def as_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["uncached"] = self.uncached.as_dict()
        payload["cached"] = self.cached.as_dict()
        payload["speedup"] = self.speedup
        payload["comm_reduction"] = self.comm_reduction
        return payload


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

_POINT_KEYS = (
    "zipf_alpha", "capacity_fraction", "base", "uncached", "cached",
    "uncached_comm_bytes", "cached_comm_bytes", "hit_rate", "speedup",
    "comm_reduction",
)


def validate_cachesweep_json(data: Any) -> None:
    """Validate a ``BENCH_cache.json`` payload (raises ``ValueError``).

    Beyond shape, this enforces what the sweep's construction implies:
    hit rates in ``[0, 1]``, the cache never adding wire bytes, one
    uncached reference timing per alpha (it does not depend on the
    capacity), and ``speedup`` equal to uncached over cached total time.
    """
    points = check_artifact(
        data,
        kind="cache",
        schema_version=1,
        required_keys=("schema_version", "base", "policy", "n_devices", "n_batches"),
    )
    reference: Dict[float, Dict[str, Any]] = {}
    for i, point in enumerate(points):
        check_point(point, i, _POINT_KEYS)
        label = f"point {i} (alpha={point['zipf_alpha']}, " \
                f"capacity={point['capacity_fraction']})"
        if not (0.0 <= point["hit_rate"] <= 1.0):
            raise ValueError(f"{label}: hit rate outside [0, 1]")
        if point["cached_comm_bytes"] > point["uncached_comm_bytes"]:
            raise ValueError(f"{label}: the cache added wire bytes")
        uncached = reference.setdefault(point["zipf_alpha"], point["uncached"])
        if point["uncached"] != uncached:
            raise ValueError(f"{label}: uncached timing differs across capacities")
        if point["speedup"] != uncached["total_ns"] / point["cached"]["total_ns"]:
            raise ValueError(f"{label}: speedup is not uncached over cached time")


def run_cache_sweep(
    base_config: WorkloadConfig,
    alphas: Sequence[float],
    capacity_fractions: Sequence[float],
    *,
    base: str = "pgas",
    n_devices: int = 2,
    n_batches: int = 4,
    warm_batches: int = 1,
) -> SweepResult:
    """Measure cached vs uncached over an (alpha × capacity) grid.

    Each point replays the *same* batch stream through both variants on
    fresh clusters.  ``warm_batches`` extra leading batches prime the
    cache without being counted in either variant's timing.  The cache
    is LRU, which the header records as ``"policy": "lru"``.
    """
    if not alphas or not capacity_fractions:
        raise ValueError("sweep needs at least one alpha and one capacity")
    if n_batches <= 0:
        raise ValueError("n_batches must be positive")
    result = SweepResult(
        title=(
            f"[cache sweep: {base} vs {base}+cache (lru) "
            f"@ {n_devices} GPUs, {n_batches} batches]"
        ),
        columns=_COLUMNS,
        keys=("zipf_alpha", "capacity_fraction"),
        header={
            "base": base, "policy": "lru", "n_devices": n_devices,
            "n_batches": n_batches,
        },
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
                features=FeatureSpec(cache=CacheConfig(capacity_fraction=float(frac))),
            )
            engine = emb.backend_adapter()
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
