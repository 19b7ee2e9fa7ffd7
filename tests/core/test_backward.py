"""Tests for the backward-pass extension (paper §V)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backward import (
    BaselineBackward,
    PGASFusedBackward,
    baseline_functional_backward,
    pgas_functional_backward,
    reference_backward,
    table_row_gradients,
)
from repro.core.functional import ShardedEmbeddingTables
from repro.core.sharding import TableWiseSharding, minibatch_bounds
from repro.core.workload import build_device_workloads
from repro.dlrm.batch import JaggedField
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingBagCollection, EmbeddingTable, EmbeddingTableConfig
from repro.simgpu import dgx_v100


def cfg_small(**kw):
    defaults = dict(num_tables=6, rows_per_table=40, dim=8, batch_size=21,
                    max_pooling=5, seed=17)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def fresh_tables(cfg, seed=5):
    ebc = EmbeddingBagCollection.from_configs(
        cfg.table_configs(), rng=np.random.default_rng(seed)
    )
    plan = TableWiseSharding(cfg.table_configs(), 3)
    return ebc, ShardedEmbeddingTables.from_collection(ebc, plan)


class TestRowGradients:
    def test_sum_pooling_repeats_sample_grad(self):
        t = EmbeddingTable(EmbeddingTableConfig("t", 10, 2), rng=np.random.default_rng(0))
        f = JaggedField.from_bags([[1, 2], [3]])
        g = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=np.float32)
        rows, grads = table_row_gradients(t, f, g)
        assert list(rows) == [1, 2, 3]
        assert np.allclose(grads, [[1, 1], [1, 1], [2, 2]])

    def test_hashed_rows(self):
        t = EmbeddingTable(EmbeddingTableConfig("t", 10, 2), rng=np.random.default_rng(0))
        f = JaggedField.from_bags([[13]])
        rows, _ = table_row_gradients(t, f, np.ones((1, 2), dtype=np.float32))
        assert rows[0] == 3

    def test_empty_bags_contribute_nothing(self):
        t = EmbeddingTable(EmbeddingTableConfig("t", 10, 2), rng=np.random.default_rng(0))
        f = JaggedField.from_bags([[], []])
        rows, grads = table_row_gradients(t, f, np.ones((2, 2), dtype=np.float32))
        assert rows.size == 0 and grads.shape == (0, 2)

    def test_batch_mismatch_rejected(self):
        t = EmbeddingTable(EmbeddingTableConfig("t", 10, 2), rng=np.random.default_rng(0))
        f = JaggedField.from_bags([[1]])
        with pytest.raises(ValueError):
            table_row_gradients(t, f, np.ones((3, 2), dtype=np.float32))


class TestFunctionalBackward:
    def grad_and_batch(self, cfg, seed=3):
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        rng = np.random.default_rng(seed)
        grad = rng.normal(size=(cfg.batch_size, cfg.num_tables, cfg.dim)).astype(np.float32)
        return batch, grad

    def test_baseline_matches_reference(self):
        cfg = cfg_small()
        batch, grad = self.grad_and_batch(cfg)
        ebc_ref, _ = fresh_tables(cfg)
        reference_backward(ebc_ref.tables, batch, grad)
        ebc_b, sh = fresh_tables(cfg)
        bounds = minibatch_bounds(cfg.batch_size, 3)
        baseline_functional_backward(sh, batch, [grad[lo:hi] for lo, hi in bounds])
        for a, b in zip(ebc_b.tables, ebc_ref.tables):
            assert np.allclose(a.weights, b.weights, atol=1e-5)

    def test_pgas_matches_reference_to_tolerance(self):
        cfg = cfg_small()
        batch, grad = self.grad_and_batch(cfg)
        ebc_ref, _ = fresh_tables(cfg)
        reference_backward(ebc_ref.tables, batch, grad)
        ebc_p, sh = fresh_tables(cfg)
        bounds = minibatch_bounds(cfg.batch_size, 3)
        pgas_functional_backward(sh, batch, [grad[lo:hi] for lo, hi in bounds])
        for a, b in zip(ebc_p.tables, ebc_ref.tables):
            assert np.allclose(a.weights, b.weights, atol=1e-4)

    def test_duplicate_indices_accumulate(self):
        """A row used by many samples receives all their contributions."""
        cfg = WorkloadConfig(num_tables=3, rows_per_table=2, dim=4, batch_size=10,
                             max_pooling=3, min_pooling=1, seed=0)
        batch, grad = self.grad_and_batch(cfg)
        ebc_ref, _ = fresh_tables(cfg)
        before = [t.weights.copy() for t in ebc_ref.tables]
        reference_backward(ebc_ref.tables, batch, grad)
        # with 2 rows and ≥10 lookups, weights must have moved
        assert any(
            not np.allclose(t.weights, w) for t, w in zip(ebc_ref.tables, before)
        )

    def test_wrong_grad_count_rejected(self):
        cfg = cfg_small()
        batch, grad = self.grad_and_batch(cfg)
        _, sh = fresh_tables(cfg)
        with pytest.raises(ValueError):
            baseline_functional_backward(sh, batch, [grad])
        with pytest.raises(ValueError):
            pgas_functional_backward(sh, batch, [grad])

    def test_lr_scales_update(self):
        cfg = cfg_small()
        batch, grad = self.grad_and_batch(cfg)
        ebc1, _ = fresh_tables(cfg)
        w0 = ebc1.tables[0].weights.copy()
        reference_backward(ebc1.tables, batch, grad, lr=1.0)
        delta1 = ebc1.tables[0].weights - w0
        ebc2, _ = fresh_tables(cfg)
        reference_backward(ebc2.tables, batch, grad, lr=0.5)
        delta2 = ebc2.tables[0].weights - w0
        assert np.allclose(delta2, delta1 * 0.5, atol=1e-6)


class TestTimedBackward:
    def make_workloads(self, G=2, n_tables=32, B=8192):
        cfg = WorkloadConfig(num_tables=n_tables, rows_per_table=10_000, dim=64,
                             batch_size=B, max_pooling=32, seed=2)
        plan = TableWiseSharding(cfg.table_configs(), G)
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        return build_device_workloads(plan, lengths)

    def test_pgas_backward_faster_than_baseline(self):
        wls = self.make_workloads()
        t_base = BaselineBackward(dgx_v100(2)).run_batch(wls)
        t_pgas = PGASFusedBackward(dgx_v100(2)).run_batch(wls)
        assert t_pgas.total_ns < t_base.total_ns

    def test_baseline_backward_has_pack_phase(self):
        wls = self.make_workloads()
        t = BaselineBackward(dgx_v100(2)).run_batch(wls)
        assert t.sync_unpack_ns > 0
        assert t.comm_ns > 0
        assert t.compute_ns > 0

    def test_single_gpu_no_comm(self):
        wls = self.make_workloads(G=1)
        t = BaselineBackward(dgx_v100(1)).run_batch(wls)
        assert t.comm_ns == 0.0
        t2 = PGASFusedBackward(dgx_v100(1)).run_batch(wls)
        assert t2.total_ns > 0

    def test_gradient_atomics_on_the_wire(self):
        cl = dgx_v100(2)
        wls = self.make_workloads()
        PGASFusedBackward(cl).run_batch(wls)
        from repro.comm.pgas import PGASContext

        counted = cl.profiler.counter(PGASContext.COUNTER).total
        # gradient volume ≈ forward remote volume (same split, reversed)
        expected = sum(wl.remote_output_bytes for wl in wls)
        assert counted == pytest.approx(expected, rel=0.02)
