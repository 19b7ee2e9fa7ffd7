"""Tests for jagged batch representation and partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sharding import minibatch_bounds
from repro.dlrm.batch import JaggedField, SparseBatch


def field_from(bags):
    return JaggedField.from_bags(bags)


class TestJaggedField:
    def test_from_bags_roundtrip(self):
        f = field_from([[1, 2], [], [3, 4, 5]])
        assert f.batch_size == 3
        assert f.nnz == 5
        assert list(f.bag(0)) == [1, 2]
        assert list(f.bag(1)) == []
        assert list(f.bag(2)) == [3, 4, 5]

    def test_lengths(self):
        f = field_from([[1], [], [2, 3]])
        assert list(f.lengths) == [1, 0, 2]

    def test_from_lengths(self):
        f = JaggedField.from_lengths([2, 0, 1], np.array([7, 8, 9]))
        assert list(f.bag(0)) == [7, 8]
        assert list(f.bag(2)) == [9]

    def test_all_empty_bags(self):
        f = field_from([[], [], []])
        assert f.nnz == 0
        assert f.batch_size == 3

    def test_validation_offsets_start_at_zero(self):
        with pytest.raises(ValueError, match="offsets\\[0\\]"):
            JaggedField(offsets=np.array([1, 2]), indices=np.array([5]))

    def test_validation_offsets_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            JaggedField(offsets=np.array([0, 3, 1]), indices=np.arange(3))

    def test_validation_last_offset_matches_nnz(self):
        with pytest.raises(ValueError, match="len\\(indices\\)"):
            JaggedField(offsets=np.array([0, 2]), indices=np.arange(5))

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValueError):
            JaggedField.from_lengths([2, -1], np.array([1]))

    def test_bags_iterator(self):
        f = field_from([[1], [2, 3]])
        assert [list(b) for b in f.bags()] == [[1], [2, 3]]

    def test_equality(self):
        a = field_from([[1, 2], [3]])
        b = field_from([[1, 2], [3]])
        c = field_from([[1], [2, 3]])
        assert a == b
        assert a != c

    def test_slice_samples(self):
        f = field_from([[1], [2, 3], [], [4, 5, 6]])
        sub = f.slice_samples(1, 3)
        assert sub.batch_size == 2
        assert list(sub.bag(0)) == [2, 3]
        assert list(sub.bag(1)) == []

    def test_slice_bounds_checked(self):
        f = field_from([[1], [2]])
        with pytest.raises(ValueError):
            f.slice_samples(1, 5)
        with pytest.raises(ValueError):
            f.slice_samples(-1, 1)

    def test_concat_inverts_slice(self):
        f = field_from([[1], [2, 3], [], [4]])
        halves = [f.slice_samples(0, 2), f.slice_samples(2, 4)]
        assert [list(bag) for h in halves for bag in h.bags()] == [list(b) for b in f.bags()]

    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=30),
        cut=st.integers(min_value=0, max_value=30),
    )
    def test_slice_concat_roundtrip_property(self, lengths, cut):
        cut = min(cut, len(lengths))
        nnz = sum(lengths)
        f = JaggedField.from_lengths(lengths, np.arange(nnz))
        parts = [f.slice_samples(0, cut), f.slice_samples(cut, len(lengths))]
        assert np.array_equal(np.concatenate([p.lengths for p in parts]), f.lengths)
        assert np.array_equal(np.concatenate([p.indices for p in parts]), f.indices)


class TestSparseBatch:
    def make(self):
        return SparseBatch(
            {
                "a": field_from([[1], [2, 3], []]),
                "b": field_from([[], [4], [5, 6]]),
            }
        )

    def test_basic_properties(self):
        b = self.make()
        assert b.batch_size == 3
        assert [name for name, _ in b] == ["a", "b"]
        assert "a" in b and "z" not in b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SparseBatch({})

    def test_inconsistent_batch_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            SparseBatch({"a": field_from([[1]]), "b": field_from([[1], [2]])})

    def test_minibatch_bounds_even(self):
        b = self.make()
        assert minibatch_bounds(b.batch_size, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_minibatch_bounds_remainder_spread(self):
        f = field_from([[i] for i in range(7)])
        b = SparseBatch({"a": f})
        bounds = minibatch_bounds(b.batch_size, 3)
        assert bounds == [(0, 3), (3, 5), (5, 7)]
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 7

    def test_minibatch_bounds_validation(self):
        with pytest.raises(ValueError):
            minibatch_bounds(self.make().batch_size, 0)

    @given(
        batch=st.integers(min_value=1, max_value=64),
        parts=st.integers(min_value=1, max_value=8),
    )
    def test_minibatch_bounds_partition_property(self, batch, parts):
        f = JaggedField.from_lengths([1] * batch, np.arange(batch))
        bounds = minibatch_bounds(SparseBatch({"a": f}).batch_size, parts)
        # exact cover, in order, balanced within 1
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        for (l1, h1), (l2, h2) in zip(bounds, bounds[1:]):
            assert h1 == l2
        sizes = [h - l for l, h in bounds]
        assert max(sizes) - min(sizes) <= 1
