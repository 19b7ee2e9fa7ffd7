"""HotRowCache: capacity accounting, install/evict mechanics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.hotrow import CacheConfig, CacheStats, HotRowCache
from repro.dlrm.embedding import EmbeddingTableConfig
from repro.simgpu.cluster import dgx_v100
from repro.simgpu.memory import OutOfDeviceMemory


def table(name="t0", rows=50, dim=4):
    return EmbeddingTableConfig(name, num_rows=rows, dim=dim)


def fresh_device():
    return dgx_v100(1).devices[0]


class TestCacheConfig:
    def test_capacity_rows_wins_over_fraction(self):
        cfg = CacheConfig(capacity_rows=7, capacity_fraction=0.5)
        assert cfg.resolve_capacity(1000) == 7

    def test_fraction_of_remote_rows(self):
        assert CacheConfig(capacity_fraction=0.1).resolve_capacity(250) == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_rows=-1)
        with pytest.raises(ValueError):
            CacheConfig(capacity_fraction=1.5)


class TestCapacityAccounting:
    def test_slab_debits_the_device_pool(self):
        dev = fresh_device()
        free0 = dev.memory.free_bytes
        cache = HotRowCache(dev, [table(dim=16)], CacheConfig(capacity_rows=100))
        assert cache.nbytes == 100 * 16 * 4
        assert dev.memory.free_bytes == free0 - cache.nbytes

    def test_release_refunds_the_pool(self):
        dev = fresh_device()
        free0 = dev.memory.free_bytes
        cache = HotRowCache(dev, [table()], CacheConfig(capacity_rows=64))
        cache.release()
        assert dev.memory.free_bytes == free0

    def test_oversized_cache_raises_out_of_device_memory(self):
        """The cache competes with embedding shards for the same HBM."""
        dev = fresh_device()
        filler = dev.memory.free_bytes - 1024
        dev.memory.alloc((filler,), np.dtype(np.uint8), label="weights.filler")
        with pytest.raises(OutOfDeviceMemory):
            # 4096 rows x 64 floats = 1 MB >> the 1 KB left.
            HotRowCache(dev, [table(dim=64)], CacheConfig(capacity_rows=4096))

    def test_zero_capacity_allocates_nothing(self):
        dev = fresh_device()
        free0 = dev.memory.free_bytes
        cache = HotRowCache(dev, [table()], CacheConfig(capacity_rows=0))
        assert cache.nbytes == 0
        assert dev.memory.free_bytes == free0

    def test_mixed_row_shapes_rejected(self):
        dev = fresh_device()
        with pytest.raises(ValueError, match="dim"):
            HotRowCache(
                dev, [table("a", dim=4), table("b", dim=8)], CacheConfig(capacity_rows=4)
            )


class TestLookupMechanics:
    def test_hand_computed_hit_miss_install_counts(self):
        cache = HotRowCache(fresh_device(), [table()], CacheConfig(capacity_rows=8))
        acc = cache.lookup_rows("t0", np.array([5, 7, 5, 7]))
        assert acc.hit_mask.tolist() == [False, False, True, True]
        assert (acc.hits, acc.misses) == (2, 2)
        s = cache.stats
        assert (s.hits, s.misses, s.installs, s.evictions) == (2, 2, 2, 0)
        assert ("t0", 5) in cache and ("t0", 7) in cache

    def test_eviction_frees_the_slot(self):
        cache = HotRowCache(
            fresh_device(), [table()], CacheConfig(capacity_rows=2)
        )
        cache.lookup_rows("t0", np.array([1, 2, 3]))  # 3 evicts 1
        assert cache.stats.evictions == 1
        assert ("t0", 1) not in cache and ("t0", 2) in cache and ("t0", 3) in cache
        acc = cache.lookup_rows("t0", np.array([1]))  # 1 must be a miss again
        assert acc.hits == 0

    def test_materialized_hits_return_exact_replicas(self):
        dev = fresh_device()
        cache = HotRowCache(
            dev, [table()], CacheConfig(capacity_rows=8), materialize=True
        )
        weights = np.arange(50 * 4, dtype=np.float32).reshape(50, 4)
        acc = cache.lookup_rows("t0", np.array([5, 7, 5]), source=weights)
        assert np.array_equal(acc.values, weights[[5, 7, 5]])
        # A replica is a copy: owner-side updates do not reach it.
        weights[5] += 100.0
        acc = cache.lookup_rows("t0", np.array([5]), source=weights)
        assert acc.hits == 1
        assert np.array_equal(acc.values[0], np.arange(20, 24, dtype=np.float32))


class TestStats:
    def test_delta_and_add(self):
        s = CacheStats(hits=5, misses=3, installs=2, evictions=1)
        before = s.copy()
        s.hits += 4
        s.misses += 1
        d = s.delta(before)
        assert (d.hits, d.misses, d.installs, d.evictions) == (4, 1, 0, 0)
        agg = CacheStats()
        agg.add(s)
        agg.add(d)
        assert agg.hits == 13

    def test_hit_rate(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats(hits=3, misses=1).hit_rate == 0.75
