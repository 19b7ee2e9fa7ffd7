"""Cross-module integration tests: the paper's claims at moderate scale.

These run the full stack — workload generation → sharding → both timed
backends → harness metrics — and assert the qualitative results the paper
reports, at a scale that keeps the whole file under a few seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench import breakdown_from_scaling, run_strong_scaling, run_weak_scaling, trace_comm_volume
from repro.core import (
    DistributedEmbedding,
    DLRMInferencePipeline,
    PipelineConfig,
    minibatch_bounds,
)
from repro.dlrm import DLRM, DLRMConfig, DLRMTrainer, SyntheticDataGenerator, WorkloadConfig


WEAK = WorkloadConfig(num_tables=32, rows_per_table=10_000, dim=64,
                      batch_size=16384, max_pooling=32, seed=8)
STRONG = WorkloadConfig(num_tables=24, rows_per_table=10_000, dim=64,
                        batch_size=8192, max_pooling=8, seed=8)


class TestHeadlineClaims:
    """The abstract's two numbers, at reduced scale."""

    def test_weak_scaling_speedup(self):
        result = run_weak_scaling(WEAK, device_counts=(1, 2, 4), n_batches=2)
        assert result.geomean_speedup > 1.3
        assert result.scaling_factor("pgas", 4) > result.scaling_factor("baseline", 4)

    def test_strong_scaling_speedup(self):
        result = run_strong_scaling(STRONG, device_counts=(1, 2, 4), n_batches=2)
        assert result.geomean_speedup > 1.8
        for g in (2, 4):
            assert result.scaling_factor("baseline", g) < 1.0
            assert result.scaling_factor("pgas", g) > 1.0


class TestThreeMechanisms:
    """§III-B's three claimed benefits, observed end to end."""

    def test_fine_grained_overlap(self):
        """(1) comm hidden: PGAS total ≈ baseline compute component."""
        bd = breakdown_from_scaling(
            run_weak_scaling(WEAK, device_counts=(1, 2), n_batches=1)
        )
        b2 = bd.bars[1]
        assert b2.n_devices == 2
        assert b2.pgas_total_ns < 1.2 * b2.baseline_compute_ns

    def test_smooth_network_usage(self):
        """(2) traffic spread over the run, not bursted at the end."""
        cfg = WorkloadConfig(num_tables=64, rows_per_table=1000, dim=64,
                             batch_size=16384, max_pooling=64, seed=8)
        pgas = trace_comm_volume(cfg, 2, "pgas")
        base = trace_comm_volume(cfg, 2, "baseline")
        assert pgas.flat_prefix_fraction() < base.flat_prefix_fraction()

    def test_no_unpack_step(self):
        """(3) PGAS reports zero sync+unpack; baseline pays it."""
        emb = DistributedEmbedding(WEAK, 2)
        lengths = SyntheticDataGenerator(WEAK).lengths_batch()
        t_base = emb.forward_timed(lengths, backend="baseline")
        t_pgas = emb.forward_timed(lengths, backend="pgas")
        assert t_base.sync_unpack_ns > 0
        assert t_pgas.sync_unpack_ns == 0


class TestFunctionalStack:
    def test_public_api_roundtrip(self):
        """The README quickstart, verbatim semantics."""
        config = repro.WorkloadConfig(
            num_tables=8, rows_per_table=1000, dim=16, batch_size=128, max_pooling=8
        )
        emb = repro.DistributedEmbedding(config, n_devices=2, backend="pgas",
                                         materialize=True)
        batch = repro.SyntheticDataGenerator(config).sparse_batch()
        pgas = emb.forward(batch)
        base = emb.forward(batch, backend="baseline")
        assert all(np.array_equal(a, b) for a, b in zip(pgas.outputs, base.outputs))
        assert base.timing.total_ns > pgas.timing.total_ns

    def test_model_predictions_identical_under_distribution(self):
        """Full DLRM predictions don't depend on the comm scheme."""
        wl = WorkloadConfig(num_tables=6, rows_per_table=100, dim=8, batch_size=32,
                            max_pooling=4, num_dense_features=5, seed=3)
        model = DLRM(DLRMConfig(
            num_dense_features=5, embedding_dim=8, table_configs=wl.table_configs(),
            bottom_mlp_sizes=(8,), top_mlp_sizes=(8,),
        ), rng=np.random.default_rng(4))
        gen = SyntheticDataGenerator(wl)
        dense, sparse = next(gen.batches(1))
        ref_preds = model.forward(dense, sparse)

        from repro.core import ShardedEmbeddingTables, TableWiseSharding, pgas_functional_forward

        plan = TableWiseSharding(wl.table_configs(), 2)
        sharded = ShardedEmbeddingTables.from_collection(model.embeddings, plan)
        outputs = pgas_functional_forward(sharded, sparse)
        sparse_emb = np.concatenate(outputs, axis=0)
        dist_preds = model.predict_from_embeddings(model.dense_forward(dense), sparse_emb)
        assert np.array_equal(ref_preds, dist_preds)

    def test_training_convergence_with_distributed_backward(self):
        """A short training run through the PGAS backward actually learns."""
        from repro.core import (
            ShardedEmbeddingTables,
            TableWiseSharding,
            pgas_functional_backward,
        )

        wl = WorkloadConfig(num_tables=4, rows_per_table=50, dim=8, batch_size=64,
                            max_pooling=4, num_dense_features=6, seed=5)
        model = DLRM(DLRMConfig(
            num_dense_features=6, embedding_dim=8, table_configs=wl.table_configs(),
            bottom_mlp_sizes=(16,), top_mlp_sizes=(16,),
        ), rng=np.random.default_rng(5))
        plan = TableWiseSharding(wl.table_configs(), 2)
        sharded = ShardedEmbeddingTables.from_collection(model.embeddings, plan)
        trainer = DLRMTrainer(model, lr=0.3)
        gen = SyntheticDataGenerator(wl)
        dense, sparse = next(gen.batches(1))
        labels = (dense.mean(axis=1) > 0.5).astype(np.float32)
        bounds = minibatch_bounds(64, 2)
        losses = []
        for _ in range(60):
            r = trainer.train_step(dense, sparse, labels, apply_embedding_grads=False)
            losses.append(r.loss)
            pgas_functional_backward(
                sharded, sparse, [r.grad_sparse[lo:hi] for lo, hi in bounds],
                lr=trainer.lr,
            )
        assert losses[-1] < 0.8 * losses[0]


class TestPipelineIntegration:
    def test_amdahl_relationship(self):
        """EMB-layer gains shrink at the pipeline level, but survive."""
        cfg = PipelineConfig(workload=WEAK)
        lengths = SyntheticDataGenerator(WEAK).lengths_batch()
        t_base = DLRMInferencePipeline(cfg, 2, backend="baseline").run_batch(lengths)
        t_pgas = DLRMInferencePipeline(cfg, 2, backend="pgas").run_batch(lengths)
        emb_speedup = t_base.emb.total_ns / t_pgas.emb.total_ns
        e2e_speedup = t_base.total_ns / t_pgas.total_ns
        assert 1.0 < e2e_speedup <= emb_speedup


class TestDeterminism:
    def test_identical_runs_identical_times(self):
        def once():
            emb = DistributedEmbedding(WEAK, 2)
            lengths = SyntheticDataGenerator(WEAK).lengths_batch()
            return emb.forward_timed(lengths).total_ns

        assert once() == once()
