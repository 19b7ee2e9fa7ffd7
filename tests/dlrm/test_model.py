"""Tests for the full DLRM reference model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm import (
    DLRM,
    DLRMConfig,
    EmbeddingTableConfig,
    SyntheticDataGenerator,
    WorkloadConfig,
)


def make_model(F=3, d=8, dense=5):
    cfgs = [EmbeddingTableConfig(f"sparse_{i}", 40, d) for i in range(F)]
    cfg = DLRMConfig(
        num_dense_features=dense,
        embedding_dim=d,
        table_configs=cfgs,
        bottom_mlp_sizes=(16,),
        top_mlp_sizes=(16,),
    )
    return DLRM(cfg, rng=np.random.default_rng(0))


def make_batch(F=3, B=6, dense=5, seed=0):
    wl = WorkloadConfig(
        num_tables=F, rows_per_table=40, dim=8, batch_size=B,
        max_pooling=4, num_dense_features=dense, seed=seed,
    )
    gen = SyntheticDataGenerator(wl)
    return gen.dense_batch(), gen.sparse_batch()


class TestConfig:
    def test_dim_mismatch_rejected(self):
        cfgs = [EmbeddingTableConfig("a", 10, 8), EmbeddingTableConfig("b", 10, 16)]
        with pytest.raises(ValueError, match="dim != embedding_dim"):
            DLRMConfig(num_dense_features=4, embedding_dim=8, table_configs=cfgs)

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            DLRMConfig(num_dense_features=4, embedding_dim=8, table_configs=[])

    def test_interaction_dim(self):
        cfgs = [EmbeddingTableConfig(f"t{i}", 10, 8) for i in range(3)]
        cfg = DLRMConfig(num_dense_features=4, embedding_dim=8, table_configs=cfgs)
        assert cfg.interaction_dim == 8 + 4 * 3 // 2
        assert cfg.num_sparse_features == 3


class TestForward:
    def test_predictions_shape_and_range(self):
        model = make_model()
        dense, sparse = make_batch()
        out = model.forward(dense, sparse)
        assert out.shape == (6, 1)
        assert (out > 0).all() and (out < 1).all()

    def test_batch_mismatch_rejected(self):
        model = make_model()
        dense, sparse = make_batch()
        with pytest.raises(ValueError, match="batch"):
            model.forward(dense[:3], sparse)

    def test_stagewise_equals_forward(self):
        model = make_model()
        dense, sparse = make_batch()
        de = model.dense_forward(dense)
        se = model.emb_forward(sparse)
        assert np.array_equal(
            model.predict_from_embeddings(de, se), model.forward(dense, sparse)
        )

    def test_emb_forward_shape(self):
        model = make_model(F=3, d=8)
        _, sparse = make_batch(F=3)
        assert model.emb_forward(sparse).shape == (6, 3, 8)

    def test_deterministic_given_seed(self):
        dense, sparse = make_batch()
        a = make_model().forward(dense, sparse)
        b = make_model().forward(dense, sparse)
        assert np.array_equal(a, b)

    def test_different_inputs_different_outputs(self):
        model = make_model()
        d1, s1 = make_batch(seed=1)
        d2, s2 = make_batch(seed=2)
        assert not np.array_equal(model.forward(d1, s1), model.forward(d2, s2))


class TestGeneratorIntegration:
    def test_hundred_batch_loop(self):
        """The paper's 100-batch inference loop at toy scale."""
        model = make_model()
        wl = WorkloadConfig(
            num_tables=3, rows_per_table=40, dim=8, batch_size=6,
            max_pooling=4, num_dense_features=5,
        )
        gen = SyntheticDataGenerator(wl)
        count = 0
        for dense, sparse in gen.batches(100):
            out = model.forward(dense, sparse)
            assert np.isfinite(out).all()
            count += 1
        assert count == 100
