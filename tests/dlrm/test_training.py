"""Tests for the training substrate, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm import DLRM, DLRMConfig, EmbeddingTableConfig, SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.interaction import dot_interaction
from repro.dlrm.mlp import MLP, Linear
from repro.dlrm.training import (
    DLRMTrainer,
    bce_grad,
    bce_loss,
    interaction_backward,
)


def make_model(F=3, d=6, dense=4, seed=0):
    cfgs = [EmbeddingTableConfig(f"sparse_{i}", 30, d) for i in range(F)]
    cfg = DLRMConfig(
        num_dense_features=dense, embedding_dim=d, table_configs=cfgs,
        bottom_mlp_sizes=(8,), top_mlp_sizes=(8,),
    )
    return DLRM(cfg, rng=np.random.default_rng(seed))


def make_batch(F=3, B=12, dense=4, seed=1):
    wl = WorkloadConfig(num_tables=F, rows_per_table=30, dim=6, batch_size=B,
                        max_pooling=3, num_dense_features=dense, seed=seed)
    gen = SyntheticDataGenerator(wl)
    return gen.dense_batch(), gen.sparse_batch()


class TestLoss:
    def test_bce_perfect_prediction_near_zero(self):
        assert bce_loss(np.array([0.9999, 0.0001]), np.array([1.0, 0.0])) < 1e-3

    def test_bce_uninformative_is_log2(self):
        assert bce_loss(np.full(10, 0.5), np.arange(10) % 2) == pytest.approx(
            np.log(2), rel=1e-6
        )

    def test_bce_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.ones(3), np.ones(4))

    def test_bce_grad_direction(self):
        g = bce_grad(np.array([0.9]), np.array([0.0]))
        assert g[0, 0] > 0  # overprediction → positive logit gradient
        g = bce_grad(np.array([0.1]), np.array([1.0]))
        assert g[0, 0] < 0

    def test_bce_grad_numerical(self):
        """(p - y)/B matches the numerical derivative of BCE(sigmoid(z))."""
        rng = np.random.default_rng(0)
        z = rng.normal(size=5)
        y = (rng.uniform(size=5) > 0.5).astype(np.float64)

        def loss_at(zv):
            return bce_loss(1 / (1 + np.exp(-zv)), y)

        analytic = bce_grad(1 / (1 + np.exp(-z)), y).reshape(-1)
        eps = 1e-6
        for i in range(5):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            num = (loss_at(zp) - loss_at(zm)) / (2 * eps)
            assert analytic[i] == pytest.approx(num, rel=1e-4, abs=1e-8)


class TestLinearBackward:
    def test_grad_input_numerical(self):
        rng = np.random.default_rng(2)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        g_out = rng.normal(size=(5, 3)).astype(np.float32)
        g_in = layer.backward(x, g_out, lr=0.0)

        eps = 1e-3
        for i in (0, 3):
            for j in (0, 2):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += eps
                xm[i, j] -= eps
                num = ((layer.forward(xp) * g_out).sum() - (layer.forward(xm) * g_out).sum()) / (2 * eps)
                assert g_in[i, j] == pytest.approx(num, rel=1e-2, abs=1e-4)

    def test_sgd_reduces_linear_loss(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 1, rng=rng)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        target = x @ np.array([[1.0], [-2.0], [0.5], [3.0]], dtype=np.float32)
        losses = []
        for _ in range(50):
            pred = layer.forward(x)
            losses.append(float(((pred - target) ** 2).mean()))
            layer.backward(x, 2 * (pred - target) / len(x), lr=0.05)
        assert losses[-1] < 0.05 * losses[0]

    def test_backward_shape_checked(self):
        layer = Linear(4, 3)
        with pytest.raises(ValueError):
            layer.backward(np.ones((5, 4), np.float32), np.ones((5, 2), np.float32))


class TestMLPBackward:
    def test_forward_cached_matches_forward(self):
        mlp = MLP([4, 8, 2], rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32)
        out, _ = mlp.forward_cached(x)
        assert np.array_equal(out, mlp.forward(x))

    def test_grad_input_numerical(self):
        rng = np.random.default_rng(4)
        mlp = MLP([4, 6, 2], rng=rng)
        x = rng.normal(size=(3, 4)).astype(np.float64)
        g_out = rng.normal(size=(3, 2)).astype(np.float64)
        _, cache = mlp.forward_cached(x)
        g_in = mlp.backward(cache, g_out, lr=0.0)

        eps = 1e-5
        for i in range(3):
            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += eps
                xm[i, j] -= eps
                num = ((mlp.forward(xp) * g_out).sum() - (mlp.forward(xm) * g_out).sum()) / (2 * eps)
                assert g_in[i, j] == pytest.approx(num, rel=5e-3, abs=1e-6)


class TestInteractionBackward:
    def test_numerical_gradient(self):
        rng = np.random.default_rng(5)
        B, F, d = 3, 2, 4
        dense = rng.normal(size=(B, d))
        sparse = rng.normal(size=(B, F, d))
        out = dot_interaction(dense, sparse)
        g_out = rng.normal(size=out.shape)
        g_dense, g_sparse = interaction_backward(g_out, dense, sparse)

        eps = 1e-6

        def total(dn, sp):
            return float((dot_interaction(dn, sp) * g_out).sum())

        for i in range(B):
            for k in range(d):
                dp, dm = dense.copy(), dense.copy()
                dp[i, k] += eps
                dm[i, k] -= eps
                num = (total(dp, sparse) - total(dm, sparse)) / (2 * eps)
                assert g_dense[i, k] == pytest.approx(num, rel=1e-4, abs=1e-7)
        for i in range(B):
            for f in range(F):
                sp, sm = sparse.copy(), sparse.copy()
                sp[i, f, 0] += eps
                sm[i, f, 0] -= eps
                num = (total(dense, sp) - total(dense, sm)) / (2 * eps)
                assert g_sparse[i, f, 0] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_bad_grad_width(self):
        with pytest.raises(ValueError, match="inconsistent with dot interaction"):
            interaction_backward(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 1, 2)))


class TestTrainer:
    def test_loss_decreases_on_fixed_batch(self):
        model = make_model()
        dense, sparse = make_batch()
        rng = np.random.default_rng(6)
        labels = (rng.uniform(size=12) > 0.5).astype(np.float32)
        trainer = DLRMTrainer(model, lr=0.5)
        losses = [trainer.train_step(dense, sparse, labels).loss for _ in range(40)]
        assert losses[-1] < 0.5 * losses[0]

    def test_embedding_weights_move(self):
        model = make_model()
        dense, sparse = make_batch()
        before = [t.weights.copy() for t in model.embeddings.tables]
        DLRMTrainer(model, lr=1.0).train_step(
            dense, sparse, np.ones(12, dtype=np.float32)
        )
        assert any(
            not np.array_equal(t.weights, w)
            for t, w in zip(model.embeddings.tables, before)
        )

    def test_apply_embedding_grads_false_freezes_tables(self):
        model = make_model()
        dense, sparse = make_batch()
        before = [t.weights.copy() for t in model.embeddings.tables]
        result = DLRMTrainer(model, lr=1.0).train_step(
            dense, sparse, np.ones(12, dtype=np.float32),
            apply_embedding_grads=False,
        )
        assert all(
            np.array_equal(t.weights, w)
            for t, w in zip(model.embeddings.tables, before)
        )
        assert result.grad_sparse.shape == (12, 3, 6)

    def test_distributed_backward_matches_reference(self):
        """The hand-off: trainer's grad through PGAS backward == reference."""
        from repro.core import (
            RowWiseSharding,
            ShardedEmbeddingTables,
            TableWiseSharding,
            minibatch_bounds,
            pgas_functional_backward,
        )

        dense, sparse = make_batch()
        labels = np.ones(12, dtype=np.float32)

        ref_model = make_model(seed=9)
        ref_result = DLRMTrainer(ref_model, lr=1.0).train_step(dense, sparse, labels)

        dist_model = make_model(seed=9)
        result = DLRMTrainer(dist_model, lr=1.0).train_step(
            dense, sparse, labels, apply_embedding_grads=False
        )
        assert np.allclose(result.grad_sparse, ref_result.grad_sparse, atol=1e-6)
        plan = TableWiseSharding(dist_model.config.table_configs, 3)
        sharded = ShardedEmbeddingTables.from_collection(dist_model.embeddings, plan)
        bounds = minibatch_bounds(12, 3)
        pgas_functional_backward(
            sharded, sparse, [result.grad_sparse[lo:hi] for lo, hi in bounds], lr=1.0
        )
        for a, b in zip(dist_model.embeddings.tables, ref_model.embeddings.tables):
            assert np.allclose(a.weights, b.weights, atol=1e-4)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            DLRMTrainer(make_model(), lr=0.0)

    def test_loss_decreases_over_repeated_steps(self):
        model = make_model()
        dense, sparse = make_batch()
        labels = np.zeros(12, dtype=np.float32)
        trainer = DLRMTrainer(model, lr=0.5)
        l0 = trainer.train_step(dense, sparse, labels).loss
        for _ in range(20):
            l1 = trainer.train_step(dense, sparse, labels).loss
        assert l1 < l0
