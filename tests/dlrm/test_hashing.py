"""Tests for index hashing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dlrm.hashing import hash_indices


class TestModHash:
    def test_in_range_identity(self):
        idx = np.array([0, 5, 99])
        assert np.array_equal(hash_indices(idx, 100), idx)

    def test_wraps(self):
        assert np.array_equal(hash_indices(np.array([100, 205]), 100), [0, 5])

    def test_non_positive_rows_rejected(self):
        with pytest.raises(ValueError):
            hash_indices(np.array([1]), 0)

    def test_empty_input(self):
        out = hash_indices(np.empty(0, dtype=np.int64), 10)
        assert out.size == 0


@given(
    idx=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=100),
    rows=st.integers(min_value=1, max_value=10_000),
)
def test_hash_always_in_range(idx, rows):
    out = hash_indices(np.array(idx, dtype=np.int64), rows)
    assert out.dtype == np.int64
    assert (out >= 0).all() and (out < rows).all()


@given(
    idx=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50),
    rows=st.integers(min_value=1, max_value=1000),
)
def test_collisions_are_consistent(idx, rows):
    """Equal raw indices always collide to the same row (a pure function)."""
    arr = np.array(idx + idx, dtype=np.int64)
    out = hash_indices(arr, rows)
    n = len(idx)
    assert np.array_equal(out[:n], out[n:])
