"""Tests for heterogeneous table profiles and Criteo-like workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm.heterogeneous import (
    HeterogeneousDataGenerator,
    HeterogeneousWorkload,
    TableProfile,
    criteo_like,
)


def small_workload():
    return HeterogeneousWorkload(
        tables=(
            TableProfile("states", num_rows=50, max_pooling=1, min_pooling=1),
            TableProfile("pages", num_rows=5000, max_pooling=16),
            TableProfile("items", num_rows=800, max_pooling=4),
        ),
        dim=8,
        batch_size=40,
        seed=5,
    )


class TestTableProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            TableProfile("x", num_rows=0, max_pooling=1)
        with pytest.raises(ValueError):
            TableProfile("x", num_rows=1, max_pooling=1, min_pooling=2)

    def test_nbytes(self):
        assert TableProfile("x", 100, max_pooling=1).nbytes(dim=8) == 3200


class TestWorkload:
    def test_table_configs_share_dim(self):
        wl = small_workload()
        cfgs = wl.table_configs()
        assert [c.name for c in cfgs] == ["states", "pages", "items"]
        assert all(c.dim == 8 for c in cfgs)
        assert cfgs[0].num_rows == 50

    def test_total_bytes(self):
        wl = small_workload()
        assert wl.total_table_bytes == (50 + 5000 + 800) * 8 * 4

    def test_duplicate_names_rejected(self):
        t = TableProfile("a", 10, 1)
        with pytest.raises(ValueError):
            HeterogeneousWorkload(tables=(t, t), dim=4, batch_size=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousWorkload(tables=(), dim=4, batch_size=2)


class TestGenerator:
    """Lookup counts: ``small_workload``'s 40 samples are one 64-sample chunk."""

    def test_per_table_pooling_ranges(self):
        counts = HeterogeneousDataGenerator(small_workload()).lengths_batch().chunk_counts(64)
        assert counts.shape == (3, 1)
        assert counts[0, 0] == 40  # single-valued feature: one lookup per sample
        assert 0 <= counts[1, 0] <= 16 * 40

    def test_lengths_batch_matches_profiles(self):
        lengths = HeterogeneousDataGenerator(small_workload()).lengths_batch()
        assert set(lengths.layout.names) == {"states", "pages", "items"}
        counts = lengths.chunk_counts(64)
        assert counts[0].tolist() == [40] and 0 <= counts[2, 0] <= 4 * 40

    def test_deterministic(self):
        a = HeterogeneousDataGenerator(small_workload()).lengths_batch()
        b = HeterogeneousDataGenerator(small_workload()).lengths_batch()
        assert np.array_equal(a.chunk_counts(64), b.chunk_counts(64))


class TestCriteoLike:
    def test_shape(self):
        wl = criteo_like(num_tables=26, dim=64)
        assert wl.num_tables == 26
        assert wl.dim == 64
        assert len(set(wl.feature_names)) == 26

    def test_cardinalities_span_orders_of_magnitude(self):
        wl = criteo_like(num_tables=26, seed=7)
        rows = [t.num_rows for t in wl.tables]
        assert min(rows) < 10_000
        assert max(rows) > 1_000_000

    def test_hash_cap(self):
        wl = criteo_like(num_tables=40, max_rows=500_000_000, seed=1)
        assert max(t.num_rows for t in wl.tables) == 10_000_000

    def test_multivalued_fraction(self):
        wl = criteo_like(num_tables=20, multivalued_fraction=0.5, seed=2)
        multi = [t for t in wl.tables if t.max_pooling > 1]
        assert len(multi) == 10
        single = [t for t in wl.tables if t.max_pooling == 1]
        assert all(t.min_pooling == 1 for t in single)

    def test_validation(self):
        with pytest.raises(ValueError):
            criteo_like(num_tables=0)
        with pytest.raises(ValueError):
            criteo_like(multivalued_fraction=1.5)

    def test_works_with_distributed_embedding(self):
        """End to end: heterogeneous workload through the retrieval API."""
        from repro.core import DistributedEmbedding

        wl = criteo_like(num_tables=8, dim=16, batch_size=256,
                         max_rows=10_000, seed=3)
        emb = DistributedEmbedding(wl.table_configs(), 2, backend="pgas")
        lengths = HeterogeneousDataGenerator(wl).lengths_batch()
        t = emb.forward_timed(lengths)
        assert t.total_ns > 0
