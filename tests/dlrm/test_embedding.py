"""Tests for embedding tables: hash/lookup/pool, collections, gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dlrm.batch import JaggedField, SparseBatch
from repro.dlrm.embedding import (
    EmbeddingBagCollection,
    EmbeddingTable,
    EmbeddingTableConfig,
    segment_pool,
)


def make_table(rows=10, dim=4, name="t", **kw):
    cfg = EmbeddingTableConfig(name=name, num_rows=rows, dim=dim, **kw)
    return EmbeddingTable(cfg, rng=np.random.default_rng(0))


class TestConfig:
    def test_nbytes(self):
        cfg = EmbeddingTableConfig("t", num_rows=100, dim=64)
        assert cfg.nbytes == 100 * 64 * 4
        assert cfg.row_bytes == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTableConfig("t", num_rows=0, dim=4)
        with pytest.raises(ValueError):
            EmbeddingTableConfig("t", num_rows=4, dim=0)

    @pytest.mark.parametrize(
        "field, value",
        [("num_rows", 10.5), ("num_rows", 10.0), ("num_rows", True), ("dim", 4.0),
         ("dim", False), ("dim", "4"), ("num_rows", np.float64(3))],
    )
    def test_non_integer_count_rejected(self, field, value):
        kwargs = {"num_rows": 10, "dim": 4, field: value}
        with pytest.raises(TypeError, match=rf"EmbeddingTableConfig\('t'\)\.{field} must be an int"):
            EmbeddingTableConfig("t", **kwargs)

    def test_numpy_integer_counts_become_ints(self):
        cfg = EmbeddingTableConfig("t", num_rows=np.int64(10), dim=np.uint8(4))
        assert (cfg.num_rows, cfg.dim) == (10, 4)
        assert type(cfg.num_rows) is int and type(cfg.dim) is int


class TestSegmentPool:
    def test_sum(self):
        vecs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
        out = segment_pool(vecs, np.array([0, 2, 3]))
        assert np.allclose(out, [[4.0, 6.0], [5.0, 6.0]])

    def test_empty_segment_is_zero(self):
        vecs = np.array([[1.0], [2.0]], dtype=np.float32)
        out = segment_pool(vecs, np.array([0, 0, 2, 2]))
        assert np.allclose(out, [[0.0], [3.0], [0.0]])

    def test_all_segments_empty(self):
        out = segment_pool(np.empty((0, 3), dtype=np.float32), np.array([0, 0, 0]))
        assert out.shape == (2, 3)
        assert np.all(out == 0)

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20),
        dim=st.integers(min_value=1, max_value=8),
    )
    def test_sum_matches_manual(self, lengths, dim):
        rng = np.random.default_rng(42)
        nnz = sum(lengths)
        vecs = rng.normal(size=(nnz, dim)).astype(np.float64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        out = segment_pool(vecs, offsets)
        for i, l in enumerate(lengths):
            manual = vecs[offsets[i] : offsets[i + 1]].sum(axis=0) if l else np.zeros(dim)
            assert np.allclose(out[i], manual, atol=1e-9)


class TestEmbeddingTable:
    def test_lookup_shape(self):
        t = make_table(rows=10, dim=4)
        out = t.lookup(np.array([0, 3, 7]))
        assert out.shape == (3, 4)

    def test_lookup_hashes_out_of_range(self):
        t = make_table(rows=10, dim=4)
        assert np.array_equal(t.lookup(np.array([12])), t.lookup(np.array([2])))

    def test_hash_collisions_share_vector(self):
        t = make_table(rows=5, dim=2)
        out = t.lookup(np.array([1, 6, 11]))
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[1], out[2])

    def test_forward_sum_pooling(self):
        t = make_table(rows=10, dim=3)
        f = JaggedField.from_bags([[0, 1], [2], []])
        out = t.forward(f)
        assert out.shape == (3, 3)
        assert np.allclose(out[0], t.weights[0] + t.weights[1], atol=1e-6)
        assert np.allclose(out[1], t.weights[2])
        assert np.allclose(out[2], 0.0)

    def test_explicit_weights(self):
        w = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = EmbeddingTable(EmbeddingTableConfig("t", 3, 4), weights=w)
        assert np.array_equal(t.weights, w)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError, match="weights shape"):
            EmbeddingTable(EmbeddingTableConfig("t", 3, 4), weights=np.zeros((2, 4)))

    def test_init_bound_scales_with_rows(self):
        big = make_table(rows=10_000, dim=8, name="big")
        assert np.abs(big.weights).max() <= 1.0 / np.sqrt(10_000) + 1e-7

    def test_apply_row_gradients_accumulates_duplicates(self):
        t = make_table(rows=4, dim=2)
        before = t.weights.copy()
        rows = np.array([1, 1, 2])
        grads = np.ones((3, 2), dtype=np.float32)
        t.apply_row_gradients(rows, grads, lr=0.5)
        assert np.allclose(t.weights[1], before[1] - 1.0)  # two contributions
        assert np.allclose(t.weights[2], before[2] - 0.5)
        assert np.allclose(t.weights[0], before[0])

    def test_apply_gradients_shape_mismatch(self):
        t = make_table()
        with pytest.raises(ValueError):
            t.apply_row_gradients(np.array([0]), np.ones((2, 4), dtype=np.float32))


class TestCollection:
    def make_collection(self, n=3, rows=10, dim=4):
        cfgs = [EmbeddingTableConfig(f"f{i}", rows, dim) for i in range(n)]
        return EmbeddingBagCollection.from_configs(cfgs, rng=np.random.default_rng(1))

    def test_forward_shape_and_order(self):
        ebc = self.make_collection(n=3)
        batch = SparseBatch(
            {
                "f0": JaggedField.from_bags([[0], [1]]),
                "f1": JaggedField.from_bags([[2], []]),
                "f2": JaggedField.from_bags([[], [3, 4]]),
            }
        )
        out = ebc.forward(batch)
        assert out.shape == (2, 3, 4)
        assert np.allclose(out[0, 0], ebc.table("f0").weights[0])
        assert np.allclose(out[1, 2], ebc.table("f2").weights[3] + ebc.table("f2").weights[4], atol=1e-6)

    def test_mixed_dims_rejected(self):
        tables = [
            EmbeddingTable(EmbeddingTableConfig("a", 4, 4)),
            EmbeddingTable(EmbeddingTableConfig("b", 4, 8)),
        ]
        with pytest.raises(ValueError, match="share one dim"):
            EmbeddingBagCollection(tables)

    def test_duplicate_names_rejected(self):
        tables = [
            EmbeddingTable(EmbeddingTableConfig("a", 4, 4)),
            EmbeddingTable(EmbeddingTableConfig("a", 4, 4)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingBagCollection(tables)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingBagCollection([])

