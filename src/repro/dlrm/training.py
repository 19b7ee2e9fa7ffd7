"""End-to-end DLRM training step (hand-written numpy backprop).

The paper's forward-pass optimisation is motivated by training (over 50%
of Meta's ML training cycles are DLRM, §I) and its §V sketches the
backward pass.  This module provides the functional substrate: a complete
training step — BCE loss, backprop through the top MLP, the interaction
layer, the bottom MLP, and the embedding tables — so the distributed
backward schemes in :mod:`repro.core.backward` can be exercised with
*real* gradients from a real loss rather than synthetic ones.

Only what training needs is implemented (SGD, sum pooling, the dot
interaction); this is a substrate, not a framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .batch import SparseBatch
from .interaction import dot_interaction
from .model import DLRM

__all__ = ["bce_loss", "bce_grad", "interaction_backward", "DLRMTrainer", "TrainStepResult"]


def bce_loss(preds: np.ndarray, labels: np.ndarray, eps: float = 1e-7) -> float:
    """Mean binary cross-entropy of probabilities vs {0,1} labels."""
    p = np.clip(np.asarray(preds, dtype=np.float64).reshape(-1), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise ValueError(f"preds {p.shape} vs labels {y.shape}")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def bce_grad(preds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean BCE w.r.t. the *pre-sigmoid* logits: (p - y)/B.

    The classic fused sigmoid+BCE simplification — numerically stable and
    exactly what the top MLP's backward expects.
    """
    p = np.asarray(preds, dtype=np.float32).reshape(-1, 1)
    y = np.asarray(labels, dtype=np.float32).reshape(-1, 1)
    return (p - y) / p.shape[0]


def interaction_backward(
    grad_out: np.ndarray,
    dense_emb: np.ndarray,
    sparse_emb: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Backprop through :func:`repro.dlrm.interaction.dot_interaction`.

    Returns ``(grad_dense, grad_sparse)`` with the forward input shapes
    ``(B, d)`` and ``(B, F, d)``.
    """
    d = dense_emb.shape[1]
    stacked = np.concatenate([dense_emb[:, None, :], sparse_emb], axis=1)  # (B, F+1, d)
    li, lj = np.tril_indices(stacked.shape[1], k=-1)
    g_pairs = grad_out[:, d:]
    if g_pairs.shape[1] != li.size:
        raise ValueError(
            f"grad width {grad_out.shape[1]} inconsistent with dot interaction "
            f"({d} + {li.size})"
        )
    # d gram[:, i, j] contributes stacked[j] to i and stacked[i] to j.
    g_stacked = np.zeros_like(stacked)
    # scatter-add per pair, vectorised over the batch
    np.add.at(g_stacked, (slice(None), li), g_pairs[:, :, None] * stacked[:, lj])
    np.add.at(g_stacked, (slice(None), lj), g_pairs[:, :, None] * stacked[:, li])
    g_stacked[:, 0, :] += grad_out[:, :d]
    return g_stacked[:, 0, :].copy(), g_stacked[:, 1:, :].copy()


@dataclass
class TrainStepResult:
    """Diagnostics of one training step."""

    loss: float
    grad_sparse: np.ndarray  #: (B, F, d) upstream gradient at the EMB output
    grad_dense: np.ndarray  #: (B, d) gradient at the bottom MLP output
    preds: np.ndarray  #: (B, 1) probabilities from the forward pass


class DLRMTrainer:
    """Plain-SGD trainer over a :class:`~repro.dlrm.model.DLRM`.

    ``apply_embedding_grads=False`` leaves the embedding tables untouched
    and only *returns* their upstream gradient — the hand-off point where
    the distributed backward schemes (:mod:`repro.core.backward`) take
    over; the tests pass that gradient through baseline/PGAS backward and
    compare against this trainer's own (reference) application.
    """

    def __init__(self, model: DLRM, lr: float = 0.1):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.model = model
        self.lr = lr

    def train_step(
        self,
        dense: np.ndarray,
        sparse: SparseBatch,
        labels: np.ndarray,
        *,
        apply_embedding_grads: bool = True,
    ) -> TrainStepResult:
        """One forward/backward/update over a batch; returns diagnostics."""
        model = self.model
        if dense.shape[0] != sparse.batch_size:
            raise ValueError("dense/sparse batch mismatch")

        # ---- forward with caches -------------------------------------------------
        dense_emb, bottom_cache = model.bottom_mlp.forward_cached(dense)
        sparse_emb = model.emb_forward(sparse)
        fused = dot_interaction(dense_emb, sparse_emb)
        preds, top_cache = model.top_mlp.forward_cached(fused)

        # ---- backward --------------------------------------------------------------
        loss = bce_loss(preds, labels)
        g_logits = bce_grad(preds, labels)
        g_fused = model.top_mlp.backward(top_cache, g_logits, lr=self.lr)
        g_dense_emb, g_sparse_emb = interaction_backward(g_fused, dense_emb, sparse_emb)
        model.bottom_mlp.backward(bottom_cache, g_dense_emb, lr=self.lr)

        if apply_embedding_grads:
            from ..core.backward import reference_backward

            reference_backward(model.embeddings.tables, sparse, g_sparse_emb, lr=self.lr)

        return TrainStepResult(
            loss=loss, grad_sparse=g_sparse_emb, grad_dense=g_dense_emb, preds=preds
        )
