"""Tests for the high-level DistributedEmbedding API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retrieval import DistributedEmbedding, ForwardResult
from repro.core.sharding import minibatch_bounds
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingBagCollection
from repro.simgpu import dgx_v100
from repro.simgpu.memory import OutOfDeviceMemory
from repro.simgpu.units import GiB


def small_cfg(**kw):
    defaults = dict(
        num_tables=6, rows_per_table=50, dim=8, batch_size=24,
        max_pooling=4, seed=13,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestConstruction:
    def test_from_workload_config(self):
        emb = DistributedEmbedding(small_cfg(), 2)
        assert emb.n_devices == 2
        assert emb.plan.num_tables == 6
        assert emb.sharded is None

    def test_from_table_configs(self):
        cfgs = small_cfg().table_configs()
        emb = DistributedEmbedding(cfgs, 3)
        assert emb.plan.num_tables == 6

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            DistributedEmbedding(small_cfg(), 2, backend="mpi")  # type: ignore[arg-type]

    def test_cluster_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="devices"):
            DistributedEmbedding(small_cfg(), 2, cluster=dgx_v100(4))

    def test_weights_registered_with_memory_accountant(self):
        emb = DistributedEmbedding(small_cfg(), 2)
        for dev in emb.cluster.devices:
            assert dev.memory.used == emb.plan.memory_bytes(dev.id)
            assert dev.memory.used > 0

    def test_paper_scale_fits_v100(self):
        """64 tables × 1M × 64 floats per GPU ≈ 15.3 GiB < 32 GiB."""
        cfg = WorkloadConfig(num_tables=64, rows_per_table=1_000_000, dim=64,
                             batch_size=16384, max_pooling=128)
        emb = DistributedEmbedding(cfg, 1)
        used = emb.cluster.device(0).memory.used
        assert 15 * GiB < used < 16 * GiB

    def test_oversized_tables_raise_oom(self):
        """144 tables of the paper's shape (~34 GiB) exceed one V100."""
        cfg = WorkloadConfig(num_tables=144, rows_per_table=1_000_000, dim=64,
                             batch_size=16384, max_pooling=128)
        with pytest.raises(OutOfDeviceMemory):
            DistributedEmbedding(cfg, 1)

    def test_oversized_fits_when_sharded(self):
        """The same 144 tables fit on 2 GPUs — the paper's motivation."""
        cfg = WorkloadConfig(num_tables=144, rows_per_table=1_000_000, dim=64,
                             batch_size=16384, max_pooling=128)
        emb = DistributedEmbedding(cfg, 2)
        assert emb.n_devices == 2


class TestForward:
    def test_timing_only_by_default(self):
        emb = DistributedEmbedding(small_cfg(), 2)
        batch = SyntheticDataGenerator(small_cfg()).sparse_batch()
        result = emb.forward(batch)
        assert isinstance(result, ForwardResult)
        assert result.outputs is None
        assert result.timing.total_ns > 0
        assert result.total_ms > 0

    def test_materialized_outputs_match_reference(self):
        cfg = small_cfg()
        rng = np.random.default_rng(7)
        emb = DistributedEmbedding(cfg, 3, materialize=True, rng=np.random.default_rng(7))
        ref_ebc = EmbeddingBagCollection.from_configs(cfg.table_configs(),
                                                      rng=np.random.default_rng(7))
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        ref = ref_ebc.forward(batch)
        for backend in ("pgas", "baseline"):
            result = emb.forward(batch, backend=backend)
            assert result.outputs is not None
            for g, (lo, hi) in enumerate(minibatch_bounds(cfg.batch_size, 3)):
                assert np.array_equal(result.outputs[g], ref[lo:hi])

    def test_backend_override_per_call(self):
        emb = DistributedEmbedding(small_cfg(), 2, backend="pgas")
        batch = SyntheticDataGenerator(small_cfg()).sparse_batch()
        t_pgas = emb.forward(batch).timing
        t_base = emb.forward(batch, backend="baseline").timing
        # baseline pays comm+unpack; pgas does not
        assert t_base.sync_unpack_ns > 0
        assert t_pgas.sync_unpack_ns == 0

    def test_forward_timed_from_lengths(self):
        cfg = small_cfg()
        emb = DistributedEmbedding(cfg, 2)
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        t = emb.forward_timed(lengths)
        assert t.total_ns > 0
        assert t.batches == 1

    def test_timing_consistent_between_batch_and_lengths(self):
        """A real batch and its lengths produce identical simulated time."""
        cfg = small_cfg()
        gen = SyntheticDataGenerator(cfg)
        batch = gen.sparse_batch()
        lengths = {name: f.lengths for name, f in batch}
        emb1 = DistributedEmbedding(cfg, 2)
        emb2 = DistributedEmbedding(cfg, 2)
        t1 = emb1.forward(batch).timing
        t2 = emb2.forward_timed(lengths)
        assert t1.total_ns == pytest.approx(t2.total_ns)

    def test_repeated_forwards_accumulate_clock(self):
        emb = DistributedEmbedding(small_cfg(), 2)
        batch = SyntheticDataGenerator(small_cfg()).sparse_batch()
        emb.forward(batch)
        now1 = emb.cluster.engine.now
        emb.forward(batch)
        assert emb.cluster.engine.now > now1
