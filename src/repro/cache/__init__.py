"""Hot-row embedding cache subsystem.

Skewed (zipfian) recommendation traffic re-fetches a small set of hot
rows over and over; replicating those rows on the requesting device
turns repeat remote fetches into local gathers and removes their wire
bytes entirely.  This package provides:

* :mod:`repro.cache.policy` — LRU residency (:class:`LRUPolicy`);
* :mod:`repro.cache.hotrow` — the per-device cache: slot storage
  allocated from the simulated HBM budget and hit/miss/eviction stats;
* :mod:`repro.cache.retrieval` — :class:`CachedRetrieval`, which fronts
  either base backend with the caches on both the timed (DES) and the
  functional (numpy, bit-identical) path.

Importing this package defines :class:`CachedRetrieval`, the class the
``"pgas+cache"`` and ``"baseline+cache"`` backends resolve to, so

>>> from repro import CacheConfig, DistributedEmbedding, FeatureSpec, WorkloadConfig
>>> cfg = WorkloadConfig(num_tables=8, rows_per_table=256, dim=8, batch_size=64)
>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas+cache",
...                            features=FeatureSpec(cache=CacheConfig()))
>>> type(emb.backend_adapter()).__name__
'CachedRetrieval'

works exactly like the uncached backends (``repro`` imports it for you).
"""

from __future__ import annotations

from .hotrow import CacheAccess, CacheConfig, CacheStats, HotRowCache
from .policy import CacheKey, LRUPolicy
from .retrieval import CacheBatchPlan, CachedRetrieval

__all__ = [
    "CacheAccess",
    "CacheBatchPlan",
    "CacheConfig",
    "CacheKey",
    "CacheStats",
    "CachedRetrieval",
    "HotRowCache",
    "LRUPolicy",
]
