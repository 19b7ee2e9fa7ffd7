"""Feature-interaction layer (paper Fig. 1, "interaction layer").

Fuses the bottom-MLP dense embedding with the EMB-layer sparse embeddings
into a single vector per sample with DLRM's reference operator, the
pairwise dot interaction: with ``F`` sparse features plus the dense
embedding, the output is the strictly-lower-triangular part of the Gram
matrix, concatenated after the dense embedding.  It is vectorised over the
batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dot_interaction", "interaction_output_dim"]


def _stack(dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
    """Stack dense (B, d) with sparse (B, F, d) into (B, F+1, d)."""
    if dense.ndim != 2 or sparse.ndim != 3:
        raise ValueError(
            f"expected dense (B, d) and sparse (B, F, d), got {dense.shape} / {sparse.shape}"
        )
    if dense.shape[0] != sparse.shape[0] or dense.shape[1] != sparse.shape[2]:
        raise ValueError(
            f"dense {dense.shape} incompatible with sparse {sparse.shape}: "
            "batch and embedding dims must match"
        )
    return np.concatenate([dense[:, None, :], sparse], axis=1)


def dot_interaction(dense: np.ndarray, sparse: np.ndarray) -> np.ndarray:
    """Pairwise-dot interaction: ``(B, d + (F+1)F/2)`` output.

    The Gram matrix of the ``F + 1`` embeddings is computed per sample with
    one batched matmul; its strictly-lower triangle is flattened and
    concatenated after the dense embedding, matching the reference DLRM.
    """
    stacked = _stack(dense, sparse)  # (B, F+1, d)
    gram = np.einsum("bfd,bgd->bfg", stacked, stacked)
    n = stacked.shape[1]
    li, lj = np.tril_indices(n, k=-1)
    pairs = gram[:, li, lj]  # (B, (F+1)F/2)
    return np.concatenate([dense, pairs.astype(dense.dtype, copy=False)], axis=1)


def interaction_output_dim(num_sparse_features: int, dim: int) -> int:
    """Output width of :func:`dot_interaction` for the given configuration."""
    n = num_sparse_features + 1
    return dim + n * (n - 1) // 2
