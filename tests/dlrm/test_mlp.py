"""Tests for the dense layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dlrm.mlp import MLP, Linear, relu, sigmoid


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        assert np.array_equal(relu(x), [0.0, 0.0, 3.0])

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0], dtype=np.float32))[0] == pytest.approx(0.5)

    def test_sigmoid_bounds(self):
        x = np.array([-100.0, 100.0], dtype=np.float32)
        out = sigmoid(x)
        assert 0.0 <= out[0] < 1e-6
        assert 1.0 - 1e-6 < out[1] <= 1.0

    def test_sigmoid_no_overflow_warnings(self):
        x = np.array([-1000.0, 1000.0], dtype=np.float32)
        with np.errstate(over="raise"):
            out = sigmoid(x)
        assert np.isfinite(out).all()

    def test_sigmoid_symmetry(self):
        x = np.linspace(-5, 5, 11).astype(np.float32)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-6)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(8, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 8), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_affine_definition(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        layer.bias = np.array([10.0, 20.0], dtype=np.float32)
        out = layer.forward(np.array([[1.0, 1.0]], dtype=np.float32))
        assert np.allclose(out, [[13.0, 27.0]])

    def test_wrong_input_dim(self):
        layer = Linear(4, 2)
        with pytest.raises(ValueError, match="in_features"):
            layer.forward(np.ones((3, 5), dtype=np.float32))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_deterministic_init(self):
        a = Linear(4, 4, rng=np.random.default_rng(5))
        b = Linear(4, 4, rng=np.random.default_rng(5))
        assert np.array_equal(a.weight, b.weight)


class TestMLP:
    def test_stack_shapes(self):
        mlp = MLP([16, 8, 4, 2], rng=np.random.default_rng(0))
        out = mlp.forward(np.ones((7, 16), dtype=np.float32))
        assert out.shape == (7, 2)

    def test_sigmoid_output_in_unit_interval(self):
        mlp = MLP([4, 8, 1], sigmoid_output=True, rng=np.random.default_rng(0))
        out = mlp.forward(np.random.default_rng(1).normal(size=(20, 4)).astype(np.float32))
        assert (out > 0).all() and (out < 1).all()

    def test_hidden_relu_applied(self):
        """With wildly negative bias on layer 0, ReLU forces zeros into layer 1."""
        mlp = MLP([2, 2, 2], rng=np.random.default_rng(0))
        mlp.layers[0].bias[:] = -1e6
        out = mlp.forward(np.ones((1, 2), dtype=np.float32))
        # layer 1 sees all-zeros → output equals its bias
        assert np.allclose(out, mlp.layers[1].bias)

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_no_sigmoid_by_default(self):
        mlp = MLP([4, 4], rng=np.random.default_rng(0))
        x = np.random.default_rng(2).normal(size=(50, 4)).astype(np.float32) * 10
        out = mlp.forward(x)
        assert out.max() > 1.0 or out.min() < 0.0  # unbounded output
