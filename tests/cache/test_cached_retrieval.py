"""CachedRetrieval: hand-computed counter traces, bit identity across all
four backends, the zero-capacity invariant and the strict comm+time win
under skew."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheConfig, CachedRetrieval
from repro.cache.retrieval import EVICT_COUNTER, HIT_COUNTER, MISS_COUNTER
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.sharding import TableWiseSharding
from repro.core.workload import build_device_workloads, lengths_from_batch
from repro.dlrm.batch import JaggedField, SparseBatch
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingTableConfig
from repro.simgpu.cluster import dgx_v100

ALL_BACKENDS = ("pgas", "baseline", "pgas+cache", "baseline+cache")


def zipf_cfg(**kw):
    defaults = dict(
        num_tables=8, rows_per_table=2048, dim=16, batch_size=256,
        max_pooling=4, min_pooling=0, seed=3,
        index_distribution="zipf", zipf_alpha=1.1,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestHandComputedTrace:
    """2 tables x 2 devices, 4 samples, every lookup traced by hand.

    sparse_0 lives on dev0; dev1's slice (samples 2,3) looks up rows
    [5,7] then [5,7] again — two cold misses, then two hits, and sample 3
    is fully covered.  sparse_1 lives on dev1; dev0's slice (samples 0,1)
    looks up [3] then [3] — one miss, one hit, sample 1 fully covered.
    """

    def setup_method(self):
        tables = [
            EmbeddingTableConfig("sparse_0", num_rows=50, dim=4),
            EmbeddingTableConfig("sparse_1", num_rows=50, dim=4),
        ]
        self.cluster = dgx_v100(2)
        self.engine = CachedRetrieval(
            self.cluster,
            TableWiseSharding(tables, 2),
            CacheConfig(capacity_rows=8),
            base="pgas",
        )
        self.batch = SparseBatch({
            "sparse_0": JaggedField.from_lengths([0, 0, 2, 2], np.array([5, 7, 5, 7])),
            "sparse_1": JaggedField.from_lengths([1, 1, 0, 0], np.array([3, 3])),
        })

    def test_first_batch_counters(self):
        cplan = self.engine.plan_batch(self.batch)
        d0, d1 = cplan.stats
        assert (d0.hits, d0.misses, d0.installs, d0.evictions) == (1, 1, 1, 0)
        assert (d1.hits, d1.misses, d1.installs, d1.evictions) == (2, 2, 2, 0)
        assert cplan.hits == 3 and cplan.misses == 3
        assert cplan.hit_rate == 0.5
        assert cplan.saved_vectors == 2  # sample 3 (sparse_0), sample 1 (sparse_1)

    def test_comm_bytes_drop_by_exactly_the_covered_vectors(self):
        cplan = self.engine.plan_batch(self.batch)
        # row_bytes = 4 floats = 16 B; uncached would ship 4 partial vectors
        # (samples 2,3 of sparse_0; samples 0,1 of sparse_1).
        assert cplan.row_bytes == 16
        assert cplan.remote_bytes == 32.0
        assert cplan.saved_vectors * cplan.row_bytes == 32.0  # uncached: 64 B

    def test_second_pass_all_hits(self):
        self.engine.plan_batch(self.batch)
        cplan = self.engine.plan_batch(self.batch)
        assert cplan.hits == 6 and cplan.misses == 0
        assert cplan.saved_vectors == 4  # every non-empty remote bag covered
        assert cplan.remote_bytes == 0.0

    def test_profiler_counters_match_the_trace(self):
        self.engine.run_plan(self.engine.plan_batch(self.batch))
        counters = self.cluster.profiler.counters
        assert counters[f"{HIT_COUNTER}.dev0"].total == 1
        assert counters[f"{HIT_COUNTER}.dev1"].total == 2
        assert counters[f"{MISS_COUNTER}.dev0"].total == 1
        assert counters[f"{MISS_COUNTER}.dev1"].total == 2
        assert counters[f"{EVICT_COUNTER}.dev0"].total == 0
        assert counters[f"{EVICT_COUNTER}.dev1"].total == 0

    def test_lifetime_stats_aggregate_devices(self):
        self.engine.plan_batch(self.batch)
        s = self.engine.stats()
        assert (s.hits, s.misses, s.installs) == (3, 3, 3)


def make_emb(cfg, backend):
    return DistributedEmbedding(
        cfg, 2, backend=backend, materialize=True,
        features=FeatureSpec(cache=CacheConfig(capacity_fraction=0.05)),
        rng=np.random.default_rng(0),
    )


class TestBitIdentity:
    def test_all_four_backends_agree_bitwise(self):
        cfg = zipf_cfg()
        embs = {b: make_emb(cfg, b) for b in ALL_BACKENDS}
        gen = SyntheticDataGenerator(cfg)
        for _ in range(2):  # second batch runs against a warm cache
            batch = gen.sparse_batch()
            outs = {b: e.forward(batch).outputs for b, e in embs.items()}
            for b in ALL_BACKENDS[1:]:
                for got, ref in zip(outs[b], outs["pgas"]):
                    assert np.array_equal(got, ref), f"{b} diverged"

    def test_functional_forward_without_plan_runs_no_cache_pass(self):
        """After the timed pass, outputs gather from the owners: the cache
        state advances once per batch, and the values stay bit-identical."""
        cfg = zipf_cfg()
        cached = make_emb(cfg, "pgas+cache")
        engine = cached.backend_adapter()
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        engine.run_timed([], batch)
        before = engine.stats()
        got = engine.functional_forward(batch)
        assert engine.stats() == before
        ref = make_emb(cfg, "pgas").forward(batch).outputs
        for a, r in zip(got, ref):
            assert np.array_equal(a, r)

    def test_empty_bags(self):
        tables = [
            EmbeddingTableConfig("sparse_0", num_rows=40, dim=8),
            EmbeddingTableConfig("sparse_1", num_rows=40, dim=8),
        ]
        batch = SparseBatch({
            "sparse_0": JaggedField.from_lengths(
                [2, 0, 3, 1], np.array([1, 1, 7, 1, 3, 7])
            ),
            "sparse_1": JaggedField.from_lengths([0, 2, 2, 0], np.array([4, 9, 9, 4])),
        })
        embs = [
            DistributedEmbedding(
                tables, 2, backend=b, materialize=True,
                features=FeatureSpec(cache=CacheConfig(capacity_rows=16)),
                rng=np.random.default_rng(11),
            )
            for b in ALL_BACKENDS
        ]
        outs = [e.forward(batch).outputs for e in embs]
        for other in outs[1:]:
            for got, ref in zip(other, outs[0]):
                assert np.array_equal(got, ref)


class TestZeroCapacityInvariant:
    """A capacity-0 cache must reproduce the uncached system exactly."""

    def test_workloads_match_uncached_builder_bitwise(self):
        cfg = zipf_cfg(batch_size=128)
        emb = DistributedEmbedding(
            cfg, 2, backend="pgas+cache",
            features=FeatureSpec(cache=CacheConfig(capacity_rows=0)),
        )
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        cplan = emb.backend_adapter().plan_batch(batch)
        ref = build_device_workloads(emb.plan, lengths_from_batch(batch))
        assert cplan.hits == 0 and cplan.saved_vectors == 0
        for got, want in zip(cplan.workloads, ref):
            assert got.num_blocks == want.num_blocks
            assert got.nnz == want.nnz
            assert np.array_equal(got.block_weights, want.block_weights)
            assert np.array_equal(got.block_dst_bytes, want.block_dst_bytes)

    def test_simulated_time_identical_to_uncached(self):
        cfg = zipf_cfg(batch_size=128)
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        cached = DistributedEmbedding(
            cfg, 2, backend="pgas+cache",
            features=FeatureSpec(cache=CacheConfig(capacity_rows=0)),
        )
        plain = DistributedEmbedding(cfg, 2, backend="pgas")
        t_cached = cached.forward(batch).timing
        t_plain = plain.forward(batch).timing
        assert t_cached.total_ns == t_plain.total_ns


class TestCacheWinsUnderSkew:
    """ISSUE acceptance: alpha >= 1.05 and capacity >= 5% of remote rows
    must strictly cut both EMB comm volume and simulated forward time."""

    def test_strictly_lower_comm_and_time(self):
        from repro.bench import run_cache_sweep

        cfg = zipf_cfg(rows_per_table=4096, dim=32, batch_size=512)
        res = run_cache_sweep(
            cfg, [1.05], [0.05], base="pgas",
            n_devices=2, n_batches=3, warm_batches=1,
        )
        p = res.point(1.05, 0.05)
        assert p.cached_comm_bytes < p.uncached_comm_bytes
        assert p.cached.total_ns < p.uncached.total_ns
        assert p.speedup > 1.0 and p.comm_reduction > 0.0
        assert 0.0 < p.hit_rate < 1.0
        assert "speedup" in res.render()

    def test_artifact_validates_and_rejects_broken_invariants(self):
        import copy
        import json

        from repro.bench import run_cache_sweep, validate_cachesweep_json

        cfg = zipf_cfg(rows_per_table=4096, dim=32, batch_size=256)
        res = run_cache_sweep(cfg, [1.05], [0.05, 0.2], n_batches=2)
        data = json.loads(json.dumps(res.as_dict()))
        validate_cachesweep_json(data)
        breaks = {
            "hit rate": lambda pts: pts[0].update(hit_rate=1.5),
            "added wire bytes": lambda pts: pts[0].update(
                cached_comm_bytes=pts[0]["uncached_comm_bytes"] + 1.0
            ),
            "differs across capacities": lambda pts: pts[1]["uncached"].update(
                total_ns=pts[1]["uncached"]["total_ns"] + 1.0
            ),
            "speedup": lambda pts: pts[0].update(speedup=pts[0]["speedup"] * 2),
        }
        for message, corrupt in breaks.items():
            bad = copy.deepcopy(data)
            corrupt(bad["points"])
            with pytest.raises(ValueError, match=message):
                validate_cachesweep_json(bad)


class TestBackendContract:
    def test_registered_in_the_backend_registry(self):
        from repro.core import adapter_class, available_backends

        names = available_backends()
        assert "pgas+cache" in names and "baseline+cache" in names
        assert adapter_class("pgas+cache").requires_indices

    def test_forward_timed_rejects_index_dependent_backend(self):
        cfg = zipf_cfg(num_tables=4, batch_size=64)
        emb = DistributedEmbedding(cfg, 2, backend="pgas+cache")
        lengths = lengths_from_batch(SyntheticDataGenerator(cfg).sparse_batch())
        with pytest.raises(ValueError, match="index"):
            emb.forward_timed(lengths)

    def test_wrong_cache_config_type_rejected(self):
        cfg = zipf_cfg(num_tables=4, batch_size=64)
        emb = DistributedEmbedding(
            cfg, 2, backend="pgas+cache",
            features=FeatureSpec(cache={"rows": 4}),
        )
        with pytest.raises(TypeError):
            emb.backend_adapter()

    def test_unknown_base_rejected(self):
        tables = [EmbeddingTableConfig("sparse_0", num_rows=10, dim=4)]
        with pytest.raises(ValueError, match="base"):
            CachedRetrieval(
                dgx_v100(1), TableWiseSharding(tables, 1), base="rowwise"
            )
