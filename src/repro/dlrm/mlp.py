"""Dense layers: Linear / activations / MLP stacks (numpy inference).

The paper's focus is the EMB layer, but the full inference pipeline (its
experiments run "the full inference pipeline of the DLRM model with 100
batches") needs the dense side too: the bottom MLP over dense features and
the top MLP over the interaction output.  These are small, data-parallel,
and purely local — implemented here as straightforward vectorised numpy.

Weights use the standard DLRM initialisation (normal with
``sqrt(2 / (fan_in + fan_out))`` std) so example outputs look sane.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Linear", "relu", "sigmoid", "MLP"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False)


class Linear:
    """Affine layer ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        dtype: np.dtype = np.dtype(np.float32),
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer sizes must be positive")
        rng = rng or np.random.default_rng(0)
        std = np.sqrt(2.0 / (in_features + out_features))
        self.weight = rng.normal(0.0, std, size=(out_features, in_features)).astype(dtype)
        self.bias = np.zeros(out_features, dtype=dtype)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the affine map to a ``(batch, in_features)`` input."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"input feature dim {x.shape[-1]} != layer in_features {self.in_features}"
            )
        return x @ self.weight.T + self.bias

    def backward(
        self, x: np.ndarray, grad_out: np.ndarray, lr: float = 0.0
    ) -> np.ndarray:
        """Backprop through the layer; optionally apply SGD in place.

        ``x`` is the input the forward pass saw; returns ``dL/dx``.  With
        ``lr > 0`` the weight/bias gradients are applied immediately
        (fused backward+update, as DLRM training kernels do).
        """
        if grad_out.shape != (x.shape[0], self.out_features):
            raise ValueError(
                f"grad_out shape {grad_out.shape} != ({x.shape[0]}, {self.out_features})"
            )
        grad_in = grad_out @ self.weight
        if lr > 0.0:
            gw = grad_out.T @ x
            gb = grad_out.sum(axis=0)
            self.weight -= (lr * gw).astype(self.weight.dtype)
            self.bias -= (lr * gb).astype(self.bias.dtype)
        return grad_in

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Linear {self.in_features}->{self.out_features}>"


class MLP:
    """A ReLU MLP; optionally sigmoid on the final layer (DLRM top MLP)."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        sigmoid_output: bool = False,
        rng: Optional[np.random.Generator] = None,
        dtype: np.dtype = np.dtype(np.float32),
    ):
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        self.layers: List[Linear] = [
            Linear(layer_sizes[i], layer_sizes[i + 1], rng=rng, dtype=dtype)
            for i in range(len(layer_sizes) - 1)
        ]
        self.sigmoid_output = sigmoid_output
        self.layer_sizes = list(layer_sizes)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack; ReLU between layers, optional sigmoid at the end."""
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            last = i == len(self.layers) - 1
            if not last:
                x = relu(x)
            elif self.sigmoid_output:
                x = sigmoid(x)
        return x

    def forward_cached(self, x: np.ndarray):
        """Forward keeping per-layer inputs for :meth:`backward`.

        Returns ``(output, cache)``; the cache holds each layer's input and
        pre-activation, which the backward pass needs for ReLU masks.
        """
        inputs = []
        pre_acts = []
        for i, layer in enumerate(self.layers):
            inputs.append(x)
            z = layer.forward(x)
            pre_acts.append(z)
            last = i == len(self.layers) - 1
            if not last:
                x = relu(z)
            elif self.sigmoid_output:
                x = sigmoid(z)
            else:
                x = z
        return x, (inputs, pre_acts)

    def backward(self, cache, grad_out: np.ndarray, lr: float = 0.0) -> np.ndarray:
        """Backprop the whole stack; returns ``dL/d(input)``.

        ``grad_out`` must be the gradient w.r.t. the final layer's
        *pre-sigmoid* output when ``sigmoid_output`` is set (the usual
        fused BCE+sigmoid convention) — the trainer supplies exactly that.
        """
        inputs, pre_acts = cache
        grad = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            if i != len(self.layers) - 1:
                grad = grad * (pre_acts[i] > 0)  # ReLU mask
            grad = self.layers[i].backward(inputs[i], grad, lr=lr)
        return grad

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        arch = "-".join(str(s) for s in self.layer_sizes)
        return f"<MLP {arch}{' sigmoid' if self.sigmoid_output else ''}>"
