"""Tests for synthetic workload generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm.data import (
    STRONG_SCALING_TOTAL,
    SyntheticDataGenerator,
    WEAK_SCALING_BASE,
    WorkloadConfig,
)


class TestWorkloadConfig:
    def test_paper_weak_config(self):
        c = WEAK_SCALING_BASE
        assert c.num_tables == 64
        assert c.rows_per_table == 1_000_000
        assert c.dim == 64
        assert c.batch_size == 16_384
        assert c.max_pooling == 128

    def test_paper_strong_config(self):
        c = STRONG_SCALING_TOTAL
        assert c.num_tables == 96
        assert c.max_pooling == 32

    def test_weak_memory_fits_v100(self):
        """64 tables x 1M x 64 floats ≈ 16.4 GB — fits the 32 GB V100."""
        assert WEAK_SCALING_BASE.total_table_bytes < 32 * 1024**3

    def test_strong_memory_fits_single_v100(self):
        """96 tables total chosen to maximise single-GPU memory (paper)."""
        total = STRONG_SCALING_TOTAL.total_table_bytes
        assert 16 * 1024**3 < total < 32 * 1024**3

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_tables=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_tables=1, min_pooling=5, max_pooling=4)
        with pytest.raises(ValueError):
            WorkloadConfig(num_tables=1, index_distribution="zipf", zipf_alpha=1.0)

    def test_scaled_tables(self):
        c = WEAK_SCALING_BASE.scaled_tables(128)
        assert c.num_tables == 128
        assert c.batch_size == WEAK_SCALING_BASE.batch_size

    def test_feature_names_stable(self):
        c = WorkloadConfig(num_tables=3)
        assert c.feature_names == ["sparse_0", "sparse_1", "sparse_2"]

    def test_table_configs(self):
        cfgs = WorkloadConfig(num_tables=2, rows_per_table=10, dim=4).table_configs()
        assert len(cfgs) == 2
        assert cfgs[0].num_rows == 10 and cfgs[0].dim == 4

def small(**kw):
    defaults = dict(
        num_tables=4, rows_per_table=100, dim=8, batch_size=50,
        max_pooling=6, min_pooling=0, seed=7,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestSparseGeneration:
    def test_batch_structure(self):
        gen = SyntheticDataGenerator(small())
        b = gen.sparse_batch()
        assert b.batch_size == 50
        assert [name for name, _ in b] == ["sparse_0", "sparse_1", "sparse_2", "sparse_3"]

    def test_pooling_within_bounds(self):
        gen = SyntheticDataGenerator(small(min_pooling=2, max_pooling=5))
        b = gen.sparse_batch()
        for _, f in b:
            assert (f.lengths >= 2).all() and (f.lengths <= 5).all()

    def test_indices_within_cardinality(self):
        gen = SyntheticDataGenerator(small())
        b = gen.sparse_batch()
        for _, f in b:
            if f.nnz:
                assert f.indices.min() >= 0 and f.indices.max() < 100

    def test_deterministic_given_seed(self):
        a = SyntheticDataGenerator(small()).sparse_batch()
        b = SyntheticDataGenerator(small()).sparse_batch()
        for name, f in a:
            assert f == b.field(name)

    def test_reset_replays_stream(self):
        gen = SyntheticDataGenerator(small())
        first = gen.sparse_batch()
        gen.sparse_batch()
        again = SyntheticDataGenerator(small()).sparse_batch()  # a fresh one restarts
        for name, f in first:
            assert f == again.field(name)

    def test_custom_batch_size(self):
        gen = SyntheticDataGenerator(small())
        assert gen.sparse_batch(batch_size=7).batch_size == 7

    def test_zipf_skews_indices(self):
        gen = SyntheticDataGenerator(
            small(index_distribution="zipf", zipf_alpha=1.2, batch_size=500, max_pooling=20)
        )
        b = gen.sparse_batch()
        idx = np.concatenate([f.indices for _, f in b])
        # Zipf: index 0 should be far more frequent than uniform would give.
        frac_zero = np.mean(idx == 0)
        assert frac_zero > 5.0 / 100  # uniform would be ~1/100

    def test_zipf_deterministic_given_seed(self):
        cfg = small(index_distribution="zipf", zipf_alpha=1.2, batch_size=200)
        a = SyntheticDataGenerator(cfg).sparse_batch()
        b = SyntheticDataGenerator(cfg).sparse_batch()
        for name, f in a:
            assert f == b.field(name)

    def test_zipf_skew_grows_with_alpha(self):
        """Higher alpha concentrates more mass on the low indices."""
        def low_index_mass(alpha):
            cfg = small(
                index_distribution="zipf", zipf_alpha=alpha,
                batch_size=1000, max_pooling=20,
            )
            b = SyntheticDataGenerator(cfg).sparse_batch()
            idx = np.concatenate([f.indices for _, f in b])
            return np.mean(idx < 10)

        masses = [low_index_mass(a) for a in (1.05, 1.3, 1.8)]
        assert masses[0] < masses[1] < masses[2]
        assert masses[0] > 10.0 / 100  # already above the uniform share

    def test_zipf_per_device_reproducibility(self):
        """Independent generators (e.g. one per simulated device) with the
        same config replay the same stream — the distributed tests rely on
        this instead of broadcasting inputs."""
        cfg = small(index_distribution="zipf", zipf_alpha=1.1, batch_size=100)
        gens = [SyntheticDataGenerator(cfg) for _ in range(3)]
        for _ in range(2):  # stays in lockstep across successive batches
            batches = [g.sparse_batch() for g in gens]
            for name, f in batches[0]:
                for other in batches[1:]:
                    assert f == other.field(name)


class TestLengthsOnly:
    def test_lengths_batch_structure(self):
        gen = SyntheticDataGenerator(small())
        lengths = gen.sample_lengths()
        assert set(lengths) == set(small().feature_names)
        for arr in lengths.values():
            assert arr.shape == (50,)
            assert (arr >= 0).all() and (arr <= 6).all()

    def test_lengths_distribution_matches_sparse(self):
        """Same marginal: means agree within noise at moderate size."""
        cfg = small(batch_size=2000)
        l = SyntheticDataGenerator(cfg).sample_lengths()
        s = SyntheticDataGenerator(cfg).sparse_batch()
        m1 = np.mean([arr.mean() for arr in l.values()])
        m2 = np.mean([f.lengths.mean() for _, f in s])
        assert abs(m1 - m2) < 0.3


class TestDense:
    def test_dense_shape_and_range(self):
        gen = SyntheticDataGenerator(small(num_dense_features=13))
        d = gen.dense_batch()
        assert d.shape == (50, 13)
        assert d.dtype == np.float32
        assert (d >= 0).all() and (d <= 1).all()

    def test_batches_iterator(self):
        gen = SyntheticDataGenerator(small())
        pairs = list(gen.batches(3))
        assert len(pairs) == 3
        d, s = pairs[0]
        assert d.shape[0] == s.batch_size == 50

    def test_negative_count_rejected(self):
        gen = SyntheticDataGenerator(small())
        with pytest.raises(ValueError):
            list(gen.batches(-1))
