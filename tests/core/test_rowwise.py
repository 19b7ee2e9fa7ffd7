"""Tests for row-wise sharded retrieval (§V extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functional import (
    rowwise_baseline_functional_forward,
    rowwise_functional_forward_partials,
    rowwise_pgas_functional_forward,
)
from repro.core.sharding import RowWiseSharding, minibatch_bounds
from repro.core.workload import build_device_workloads, build_rowwise_workloads
from repro.core.sharding import TableWiseSharding
from repro.core.baseline import BaselineRetrieval
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingBagCollection
from repro.simgpu import dgx_v100


def setup(n_tables=5, G=3, B=26, dim=8, rows=60, max_pool=6, seed=21):
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=rows, dim=dim, batch_size=B,
        max_pooling=max_pool, min_pooling=0, seed=seed,
    )
    ebc = EmbeddingBagCollection.from_configs(
        cfg.table_configs(), rng=np.random.default_rng(seed)
    )
    plan = RowWiseSharding(cfg.table_configs(), G)
    batch = SyntheticDataGenerator(cfg).sparse_batch()
    return cfg, ebc, plan, batch


class TestPartials:
    def test_partials_sum_to_reference(self):
        """Σ_devices partial(dev) == single-device oracle."""
        cfg, ebc, plan, batch = setup()
        ref = ebc.forward(batch)
        total = sum(
            rowwise_functional_forward_partials(ebc, plan, batch, dev)
            for dev in range(plan.n_devices)
        )
        assert np.allclose(total, ref, atol=1e-5)

    def test_partial_uses_only_local_rows(self):
        """A device's partial only references rows in its slice."""
        cfg, ebc, plan, batch = setup(G=2)
        p0 = rowwise_functional_forward_partials(ebc, plan, batch, 0)
        # Zero out device 0's row slices: its partial must become zero.
        for t in ebc.tables:
            shard = plan.shard_on(t.name, 0)
            t.weights[shard.row_lo:shard.row_hi] = 0.0
        p0_after = rowwise_functional_forward_partials(ebc, plan, batch, 0)
        assert np.allclose(p0_after, 0.0)
        # Device 1's partial is untouched by device 0's rows.
        # (recompute on fresh weights for clarity)

    def test_empty_batch_partials_zero(self):
        cfg, ebc, plan, batch = setup(max_pool=0)
        p = rowwise_functional_forward_partials(ebc, plan, batch, 0)
        assert np.all(p == 0.0)


class TestFunctionalEquivalence:
    def test_baseline_matches_oracle(self):
        cfg, ebc, plan, batch = setup()
        ref = ebc.forward(batch)
        outs = rowwise_baseline_functional_forward(ebc, plan, batch)
        for g, (lo, hi) in enumerate(minibatch_bounds(batch.batch_size, 3)):
            assert np.allclose(outs[g], ref[lo:hi], atol=1e-5)

    def test_pgas_matches_baseline(self):
        cfg, ebc, plan, batch = setup(G=4, B=31)
        a = rowwise_baseline_functional_forward(ebc, plan, batch)
        b = rowwise_pgas_functional_forward(ebc, plan, batch)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-5)

    def test_single_device(self):
        cfg, ebc, plan, batch = setup(G=1)
        ref = ebc.forward(batch)
        outs = rowwise_pgas_functional_forward(ebc, plan, batch)
        assert np.allclose(outs[0], ref, atol=1e-5)

    def test_non_sum_pooling_rejected(self):
        cfg, ebc, plan, batch = setup()
        cfg2 = WorkloadConfig(
            num_tables=2, rows_per_table=10, dim=4, batch_size=4,
            max_pooling=2, pooling="mean",
        )
        ebc2 = EmbeddingBagCollection.from_configs(cfg2.table_configs())
        plan2 = RowWiseSharding(cfg2.table_configs(), 2)
        batch2 = SyntheticDataGenerator(cfg2).sparse_batch()
        with pytest.raises(NotImplementedError, match="sum pooling"):
            rowwise_baseline_functional_forward(ebc2, plan2, batch2)

    @settings(deadline=None, max_examples=15)
    @given(
        n_tables=st.integers(min_value=1, max_value=5),
        G=st.integers(min_value=1, max_value=4),
        B=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_equivalence_property(self, n_tables, G, B, seed):
        cfg, ebc, plan, batch = setup(n_tables=n_tables, G=G, B=B, seed=seed)
        ref = ebc.forward(batch)
        outs = rowwise_pgas_functional_forward(ebc, plan, batch)
        for g, (lo, hi) in enumerate(minibatch_bounds(B, G)):
            assert np.allclose(outs[g], ref[lo:hi], atol=1e-5)


def make_timed_workloads(n_tables=32, G=2, B=8192, dim=64, max_pool=16, seed=9):
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=100_000, dim=dim, batch_size=B,
        max_pooling=max_pool, seed=seed,
    )
    plan = RowWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    return cfg, plan, lengths, build_rowwise_workloads(plan, lengths)


class TestWorkloads:
    def test_output_is_full_batch_times_tables(self):
        """Row-wise writes a partial per (table, sample) on EVERY device."""
        cfg, plan, lengths, wls = make_timed_workloads(G=3)
        for wl in wls:
            assert wl.bytes_written == pytest.approx(
                cfg.batch_size * cfg.num_tables * cfg.dim * 4
            )

    def test_nnz_split_evenly(self):
        cfg, plan, lengths, wls = make_timed_workloads(G=3)
        total = int(lengths.chunk_counts(64).sum())
        assert sum(wl.nnz for wl in wls) == total
        assert max(wl.nnz for wl in wls) - min(wl.nnz for wl in wls) <= 1

    def test_comm_volume_exceeds_table_wise(self):
        """The §V point: row-wise partials cost G-1 x more traffic."""
        cfg, plan, lengths, row_wls = make_timed_workloads(G=4)
        tw_plan = TableWiseSharding(cfg.table_configs(), 4)
        tw_wls = build_device_workloads(tw_plan, lengths)
        row_remote = sum(wl.remote_output_bytes for wl in row_wls)
        tw_remote = sum(wl.remote_output_bytes for wl in tw_wls)
        assert row_remote == pytest.approx(4 * tw_remote, rel=0.01)


class TestTimedRowWise:
    def test_pgas_beats_baseline(self):
        _, _, _, wls = make_timed_workloads()
        t_base = BaselineRetrieval(dgx_v100(2)).run_batch(wls)
        t_pgas = PGASFusedRetrieval(dgx_v100(2)).run_batch(wls)
        assert t_pgas.total_ns < t_base.total_ns

    def test_rowwise_advantage_larger_than_tablewise(self):
        """Heavier comm + the reduction step ⇒ bigger PGAS win (§V)."""
        cfg, plan, lengths, row_wls = make_timed_workloads(G=4, max_pool=8)
        rb = BaselineRetrieval(dgx_v100(4)).run_batch(row_wls)
        rp = PGASFusedRetrieval(dgx_v100(4)).run_batch(row_wls)
        tw_plan = TableWiseSharding(cfg.table_configs(), 4)
        tw_wls = build_device_workloads(tw_plan, lengths)
        tb = BaselineRetrieval(dgx_v100(4)).run_batch(tw_wls)
        tp = PGASFusedRetrieval(dgx_v100(4)).run_batch(tw_wls)
        assert rb.total_ns / rp.total_ns > tb.total_ns / tp.total_ns

    def test_single_gpu_no_comm(self):
        _, _, _, wls = make_timed_workloads(G=1)
        t = BaselineRetrieval(dgx_v100(1)).run_batch(wls)
        assert t.comm_ns == 0.0
        t2 = PGASFusedRetrieval(dgx_v100(1)).run_batch(wls)
        assert t2.total_ns > 0

    def test_baseline_has_reduce_phase(self):
        _, _, _, wls = make_timed_workloads(G=2)
        t = BaselineRetrieval(dgx_v100(2)).run_batch(wls)
        assert t.sync_unpack_ns > 0
        assert t.comm_ns > 0

    def test_all_partial_bytes_on_the_wire(self):
        cl = dgx_v100(3)
        _, _, _, wls = make_timed_workloads(G=3)
        PGASFusedRetrieval(cl).run_batch(wls)
        from repro.comm.pgas import PGASContext

        counted = cl.profiler.counter(PGASContext.COUNTER).total
        assert counted == pytest.approx(sum(wl.remote_output_bytes for wl in wls))


class TestRowWiseBackward:
    def test_pgas_backward_beats_shift_rounds(self):
        from repro.core.backward import RowWiseBaselineBackward, RowWisePGASBackward

        _, _, _, wls = make_timed_workloads(G=4, max_pool=8)
        t_base = RowWiseBaselineBackward(dgx_v100(4)).run_batch(wls)
        t_pgas = RowWisePGASBackward(dgx_v100(4)).run_batch(wls)
        assert t_pgas.total_ns < t_base.total_ns
        # The §V prediction: replacing rounds of collectives + syncs with
        # atomics is a substantial win.
        assert t_base.total_ns / t_pgas.total_ns > 1.5

    def test_shift_rounds_scale_with_devices(self):
        """G-1 rounds: the baseline's sync burden grows with GPU count."""
        from repro.core.backward import RowWiseBaselineBackward

        _, _, _, w2 = make_timed_workloads(G=2)
        _, _, _, w4 = make_timed_workloads(G=4)
        t2 = RowWiseBaselineBackward(dgx_v100(2)).run_batch(w2)
        t4 = RowWiseBaselineBackward(dgx_v100(4)).run_batch(w4)
        # per-round sync+accumulate overheads accumulate over G-1 rounds
        assert t4.sync_unpack_ns > t2.sync_unpack_ns

    def test_single_gpu_backward(self):
        from repro.core.backward import RowWiseBaselineBackward, RowWisePGASBackward

        _, _, _, wls = make_timed_workloads(G=1)
        tb = RowWiseBaselineBackward(dgx_v100(1)).run_batch(wls)
        tp = RowWisePGASBackward(dgx_v100(1)).run_batch(wls)
        assert tb.comm_ns == 0.0
        assert tb.total_ns > 0 and tp.total_ns > 0

    def test_pgas_backward_atomics_on_wire(self):
        from repro.comm.pgas import PGASContext
        from repro.core.backward import RowWisePGASBackward

        cl = dgx_v100(3)
        _, _, _, wls = make_timed_workloads(G=3)
        RowWisePGASBackward(cl).run_batch(wls)
        counted = cl.profiler.counter(PGASContext.COUNTER).total
        expected = sum(wl.bytes_written * 2 / 3 for wl in wls)  # (G-1)/G
        assert counted == pytest.approx(expected, rel=0.02)


class TestRowWiseFunctionalBackward:
    def test_matches_reference(self):
        from repro.core.backward import reference_backward
        from repro.core.backward import rowwise_functional_backward

        cfg, ebc_rw, plan, batch = setup(G=3, B=24)
        _, ebc_ref, _, _ = setup(G=3, B=24)  # same seed → same weights
        rng = np.random.default_rng(8)
        grad = rng.normal(size=(24, cfg.num_tables, cfg.dim)).astype(np.float32)
        reference_backward(ebc_ref.tables, batch, grad)
        bounds = minibatch_bounds(24, 3)
        rowwise_functional_backward(
            ebc_rw, plan, batch, [grad[lo:hi] for lo, hi in bounds]
        )
        for a, b in zip(ebc_rw.tables, ebc_ref.tables):
            assert np.allclose(a.weights, b.weights, atol=1e-4)

    def test_wrong_grad_count(self):
        from repro.core.backward import rowwise_functional_backward

        cfg, ebc, plan, batch = setup(G=2)
        with pytest.raises(ValueError):
            rowwise_functional_backward(ebc, plan, batch, [np.zeros((1, 1, 1))])
