"""Tests for derived device workloads and communication volumes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import INDEX_BYTES
from repro.core.sharding import RowWiseSharding, TableWiseSharding, minibatch_bounds
from repro.core.workload import (
    alltoall_split_bytes,
    build_device_workloads,
    build_rowwise_workloads,
    lengths_from_batch,
    unpack_bytes_received,
)
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingTableConfig
from repro.simgpu.device import V100_SPEC


def builders(cfg, G):
    """Each workload builder with its plan, for checks both must pass."""
    return [
        (build_device_workloads, TableWiseSharding(cfg.table_configs(), G)),
        (build_rowwise_workloads, RowWiseSharding(cfg.table_configs(), G)),
    ]


def make(n_tables=4, G=2, B=40, dim=8, max_pool=5, spb=16, seed=3):
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=100, dim=dim, batch_size=B,
        max_pooling=max_pool, seed=seed,
    )
    plan = TableWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).sample_lengths()
    return plan, lengths, build_device_workloads(plan, lengths, samples_per_block=spb)


class TestBuild:
    def test_one_workload_per_device(self):
        _, _, wls = make(G=3)
        assert [w.device_id for w in wls] == [0, 1, 2]

    def test_nnz_matches_lengths(self):
        plan, lengths, wls = make()
        for wl in wls:
            expect = sum(int(lengths[t.name].sum()) for t in plan.tables_on(wl.device_id))
            assert wl.nnz == expect

    def test_grid_geometry(self):
        _, _, wls = make(n_tables=4, G=2, B=40, spb=16)
        # 2 tables/device, ceil(40/16)=3 chunks → 6 blocks
        assert wls[0].num_blocks == 6
        assert wls[0].samples_per_block == 16
        assert wls[0].block_weights.shape == (6,)
        assert wls[0].block_dst_bytes.shape == (6, 2)

    def test_bytes_read_formula(self):
        _, _, wls = make(dim=8)
        wl = wls[0]
        rows = wl.nnz * 32  # 8 floats
        idx = wl.nnz * INDEX_BYTES
        assert wl.bytes_read >= rows + idx
        assert wl.bytes_read < rows + idx + (wl.batch_size * wl.num_local_tables + 1) * 8 + 1

    def test_bytes_written_formula(self):
        _, _, wls = make(n_tables=4, G=2, B=40, dim=8)
        assert wls[0].bytes_written == 40 * 2 * 32

    def test_output_bytes_by_dst_sums_to_written(self):
        _, _, wls = make(G=3, B=41)
        for wl in wls:
            assert wl.output_bytes_by_dst.sum() == pytest.approx(wl.bytes_written)

    def test_dst_split_follows_minibatch_bounds(self):
        _, _, wls = make(n_tables=2, G=2, B=40, dim=8)
        wl = wls[0]
        bounds = minibatch_bounds(40, 2)
        for dst, (lo, hi) in enumerate(bounds):
            expect = (hi - lo) * wl.num_local_tables * 32
            assert wl.output_bytes_by_dst[dst] == pytest.approx(expect)

    def test_remote_fraction(self):
        _, _, wls = make(G=4, B=40)
        for wl in wls:
            assert wl.remote_output_bytes == pytest.approx(wl.bytes_written * 3 / 4, rel=0.05)

    def test_missing_lengths_raise(self):
        cfg = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4, batch_size=8, max_pooling=2)
        for build, plan in builders(cfg, 2):
            with pytest.raises(KeyError, match="no lengths"):
                build(plan, {"sparse_0": np.ones(8, dtype=np.int64)})

    def test_inconsistent_batch_raises(self):
        cfg = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4, batch_size=8, max_pooling=2)
        for build, plan in builders(cfg, 1):
            with pytest.raises(ValueError, match="inconsistent"):
                build(
                    plan,
                    {
                        "sparse_0": np.ones(8, dtype=np.int64),
                        "sparse_1": np.ones(9, dtype=np.int64),
                    },
                )

    def test_nonpositive_samples_per_block_raises(self):
        cfg = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4, batch_size=8, max_pooling=2)
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        for build, plan in builders(cfg, 2):
            for spb in (0, -16):
                with pytest.raises(ValueError, match="samples_per_block"):
                    build(plan, lengths, samples_per_block=spb)

    def test_device_with_no_tables(self):
        cfg = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4, batch_size=8, max_pooling=2)
        plan = TableWiseSharding(cfg.table_configs(), 4)
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        wls = build_device_workloads(plan, lengths)
        empty = [w for w in wls if w.num_local_tables == 0]
        assert len(empty) == 2
        for w in empty:
            assert w.nnz == 0 and w.num_blocks == 0
            assert w.kernel_spec().num_blocks == 0

    def test_lengths_from_batch(self):
        cfg = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4, batch_size=8, max_pooling=3)
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        lengths = lengths_from_batch(batch)
        for name, f in batch:
            assert np.array_equal(lengths[name], f.lengths)


class TestWaveDstBytes:
    def test_rows_sum_to_block_totals(self):
        _, _, wls = make(G=3, B=50, spb=8)
        wl = wls[0]
        waves = wl.wave_dst_bytes(concurrent_blocks=4)
        assert waves.sum() == pytest.approx(wl.bytes_written)
        assert waves.shape[0] == int(np.ceil(wl.num_blocks / 4))

    def test_single_wave_when_concurrency_large(self):
        _, _, wls = make()
        wl = wls[0]
        waves = wl.wave_dst_bytes(concurrent_blocks=10_000)
        assert waves.shape[0] == 1
        assert np.allclose(waves[0], wl.output_bytes_by_dst)

    def test_invalid_concurrency(self):
        _, _, wls = make()
        with pytest.raises(ValueError):
            wls[0].wave_dst_bytes(0)


class TestAllToAllSplit:
    def test_shape_and_zero_diagonal(self):
        _, _, wls = make(G=3)
        split = alltoall_split_bytes(wls)
        assert split.shape == (3, 3)
        assert np.all(np.diag(split) == 0)

    def test_symmetric_for_uniform_tables(self):
        _, _, wls = make(n_tables=4, G=2, B=40)
        split = alltoall_split_bytes(wls)
        assert split[0, 1] == pytest.approx(split[1, 0])

    def test_unpack_equals_received(self):
        plan, lengths, wls = make(G=3, B=41)
        split = alltoall_split_bytes(wls)
        for d in range(3):
            assert unpack_bytes_received(wls, d) == pytest.approx(split[:, d].sum())
            # The unpack reads and writes each received byte once.
            assert wls[d].unpack_bytes(wls) == 2.0 * unpack_bytes_received(wls, d)
        # Row-wise: the owner reads G partials of its own share, writes one sum.
        rw = build_rowwise_workloads(RowWiseSharding(plan.table_configs, 3), lengths)
        for d in range(3):
            own = float(rw[d].output_bytes_by_dst[d])
            assert own > 0
            assert rw[d].unpack_bytes(rw) == own * 3 + own


class TestKernelSpecIntegration:
    def test_kernel_spec_fields(self):
        _, _, wls = make()
        k = wls[0].kernel_spec("test")
        assert k.num_blocks == wls[0].num_blocks
        assert k.bytes_read == wls[0].bytes_read
        assert k.min_waves_for_peak > 0
        assert k.block_weights is not None

    def test_paper_weak_scale_wave_count(self):
        """The paper-scale weak config launches ≳24 waves (no derate)."""
        cfg = WorkloadConfig(num_tables=64, rows_per_table=1000, dim=64,
                             batch_size=16384, max_pooling=128, seed=0)
        plan = TableWiseSharding(cfg.table_configs(), 1)
        lengths = SyntheticDataGenerator(cfg).lengths_batch()
        wls = build_device_workloads(plan, lengths)
        waves = np.ceil(wls[0].num_blocks / V100_SPEC.concurrent_blocks)
        assert waves >= 24


@settings(deadline=None)
@given(
    n_tables=st.integers(min_value=1, max_value=10),
    G=st.integers(min_value=1, max_value=5),
    B=st.integers(min_value=1, max_value=100),
    spb=st.integers(min_value=1, max_value=32),
)
def test_volume_conservation_property(n_tables, G, B, spb):
    """Every output byte has exactly one destination, whatever the shape."""
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=50, dim=4, batch_size=B,
        max_pooling=3, seed=1,
    )
    plan = TableWiseSharding(cfg.table_configs(), G)
    lengths = SyntheticDataGenerator(cfg).sample_lengths()
    wls = build_device_workloads(plan, lengths, samples_per_block=spb)
    total_out = sum(wl.bytes_written for wl in wls)
    assert total_out == pytest.approx(B * n_tables * 16)  # dim 4 x fp32
    for wl in wls:
        assert wl.output_bytes_by_dst.sum() == pytest.approx(wl.bytes_written)
        assert wl.block_dst_bytes.sum() == pytest.approx(wl.bytes_written)
