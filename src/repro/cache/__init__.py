"""Hot-row embedding cache subsystem.

Skewed (zipfian) recommendation traffic re-fetches a small set of hot
rows over and over; replicating those rows on the requesting device
turns repeat remote fetches into local gathers and removes their wire
bytes entirely.  This package provides:

* :mod:`repro.cache.policy` — pluggable replacement policies
  (``lru``, ``lfu`` with aging, ``static-topk`` from a profiled pass);
* :mod:`repro.cache.hotrow` — the per-device cache: slot storage
  allocated from the simulated HBM budget, hit/miss/eviction stats,
  warm-up and invalidation hooks;
* :mod:`repro.cache.retrieval` — :class:`CachedRetrieval`, which fronts
  either base backend with the caches on both the timed (DES) and the
  functional (numpy, bit-identical) path.

Importing this package registers the ``"pgas+cache"`` and
``"baseline+cache"`` backends with the core registry, so

>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas+cache",
...                            features=FeatureSpec(cache=CacheConfig(policy="lru")))

works exactly like the uncached backends (``repro`` imports it for you).
"""

from __future__ import annotations

from ..core.factory import build_adapter
from ..core.retrieval import register_backend
from .hotrow import CacheAccess, CacheConfig, CacheStats, HotRowCache
from .policy import (
    CacheKey,
    CachePolicy,
    LFUPolicy,
    LRUPolicy,
    StaticTopKPolicy,
    make_policy,
)
from .retrieval import CacheBatchPlan, CachedRetrieval

__all__ = [
    "CacheAccess",
    "CacheBatchPlan",
    "CacheConfig",
    "CacheKey",
    "CachePolicy",
    "CacheStats",
    "CachedRetrieval",
    "HotRowCache",
    "LFUPolicy",
    "LRUPolicy",
    "StaticTopKPolicy",
    "cached_retrieval_for",
    "make_policy",
]


def cached_retrieval_for(emb, base: str) -> CachedRetrieval:
    """Build a :class:`CachedRetrieval` bound to an
    :class:`~repro.core.retrieval.EmbeddingHost` (the registry
    factories' shared implementation)."""
    config = emb.features.cache
    if config is not None and not isinstance(config, CacheConfig):
        raise TypeError(
            f"DistributedEmbedding cache must be a CacheConfig, got {type(config).__name__}"
        )
    return CachedRetrieval(
        emb.cluster,
        emb.plan,
        config or CacheConfig(),
        base=base,
        collective_spec=emb.collective_spec,
        pgas_spec=emb.pgas_spec,
        sharded=emb.sharded,
    )


# Thin aliases: composition lives in repro.core.factory.build_adapter.
register_backend(
    "pgas+cache",
    lambda emb: build_adapter(emb, "pgas+cache"),
    requires_indices=True,
    description="PGAS retrieval with the hot-row cache short-circuiting remote reads",
)
register_backend(
    "baseline+cache",
    lambda emb: build_adapter(emb, "baseline+cache"),
    requires_indices=True,
    description="collective retrieval with the hot-row cache shrinking the all-to-all",
)
