"""Tests for the feature-interaction layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm.interaction import dot_interaction, interaction_output_dim


def make_inputs(B=3, F=4, d=8, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(B, d)).astype(np.float32)
    sparse = rng.normal(size=(B, F, d)).astype(np.float32)
    return dense, sparse


class TestDot:
    def test_output_shape(self):
        dense, sparse = make_inputs(B=3, F=4, d=8)
        out = dot_interaction(dense, sparse)
        assert out.shape == (3, interaction_output_dim(4, 8))
        assert out.shape == (3, 8 + 5 * 4 // 2)

    def test_dense_passthrough(self):
        dense, sparse = make_inputs()
        out = dot_interaction(dense, sparse)
        assert np.array_equal(out[:, : dense.shape[1]], dense)

    def test_pairs_are_dot_products(self):
        dense, sparse = make_inputs(B=1, F=2, d=4)
        out = dot_interaction(dense, sparse)
        stacked = np.concatenate([dense[:, None, :], sparse], axis=1)[0]
        # pair order: strictly-lower triangle of the (F+1)x(F+1) Gram matrix
        expected = [
            stacked[1] @ stacked[0],
            stacked[2] @ stacked[0],
            stacked[2] @ stacked[1],
        ]
        assert np.allclose(out[0, 4:], expected, atol=1e-5)

    def test_single_sparse_feature(self):
        dense, sparse = make_inputs(F=1)
        out = dot_interaction(dense, sparse)
        assert out.shape[1] == dense.shape[1] + 1


class TestDispatchAndValidation:
    def test_mismatched_batch(self):
        dense, sparse = make_inputs(B=3)
        with pytest.raises(ValueError):
            dot_interaction(dense[:2], sparse)

    def test_mismatched_dim(self):
        dense, sparse = make_inputs(d=8)
        with pytest.raises(ValueError):
            dot_interaction(dense[:, :4], sparse)

    def test_wrong_rank(self):
        dense, sparse = make_inputs()
        with pytest.raises(ValueError):
            dot_interaction(dense, dense)  # sparse must be 3-D

    def test_output_dims_consistent(self):
        dense, sparse = make_inputs(B=2, F=5, d=16)
        out = dot_interaction(dense, sparse)
        assert out.shape[1] == interaction_output_dim(5, 16)
