"""The full DLRM model (paper Fig. 1), single-process reference.

Pipeline per batch:

1. dense features → **bottom MLP** → dense embedding ``(B, d)``;
2. sparse features → **EMB layer** (hash/lookup/pool) → ``(B, F, d)``;
3. **interaction** fuses them → single embedding per sample;
4. **top MLP** + sigmoid → click-probability predictions ``(B, 1)``.

(The paper's Fig. 1 labels the dense-side MLP "top" and the post-
interaction MLP "bottom"; we follow the reference DLRM code's naming —
*bottom* processes dense inputs, *top* produces predictions — and note the
flip here once so nobody trips over it.)

This module is the correctness oracle: the distributed retrieval backends
in :mod:`repro.core` must reproduce its EMB activations exactly, and
:meth:`DLRM.forward` is also what the examples run end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .batch import SparseBatch
from .embedding import EmbeddingBagCollection, EmbeddingTableConfig
from .interaction import dot_interaction, interaction_output_dim
from .mlp import MLP

__all__ = ["DLRMConfig", "DLRM"]


@dataclass(frozen=True)
class DLRMConfig:
    """Architecture hyperparameters of a DLRM."""

    num_dense_features: int
    embedding_dim: int
    table_configs: Sequence[EmbeddingTableConfig]
    bottom_mlp_sizes: Sequence[int] = (512, 256)
    top_mlp_sizes: Sequence[int] = (512, 256)

    def __post_init__(self) -> None:
        if self.num_dense_features <= 0:
            raise ValueError("num_dense_features must be positive")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if not self.table_configs:
            raise ValueError("at least one embedding table is required")
        bad = [t.name for t in self.table_configs if t.dim != self.embedding_dim]
        if bad:
            raise ValueError(
                f"tables {bad} have dim != embedding_dim={self.embedding_dim}; "
                "the interaction layer requires one shared dim"
            )

    @property
    def num_sparse_features(self) -> int:
        """Number of embedding tables."""
        return len(self.table_configs)

    @property
    def interaction_dim(self) -> int:
        """Width of the interaction layer's output."""
        return interaction_output_dim(self.num_sparse_features, self.embedding_dim)


class DLRM:
    """Reference (single-device, numpy) DLRM inference model."""

    def __init__(self, config: DLRMConfig, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.embeddings = EmbeddingBagCollection.from_configs(config.table_configs, rng=rng)
        # Bottom MLP maps dense features into the embedding space.
        self.bottom_mlp = MLP(
            [config.num_dense_features, *config.bottom_mlp_sizes, config.embedding_dim],
            rng=rng,
        )
        # Top MLP maps the interaction output to one logit.
        self.top_mlp = MLP(
            [config.interaction_dim, *config.top_mlp_sizes, 1],
            sigmoid_output=True,
            rng=rng,
        )

    # -- stages (exposed separately so distributed code can interleave them) --------

    def dense_forward(self, dense: np.ndarray) -> np.ndarray:
        """Bottom MLP: ``(B, num_dense) -> (B, d)``."""
        return self.bottom_mlp.forward(dense)

    def emb_forward(self, sparse: SparseBatch) -> np.ndarray:
        """EMB layer: ``SparseBatch -> (B, F, d)``."""
        return self.embeddings.forward(sparse)

    def predict_from_embeddings(
        self, dense_emb: np.ndarray, sparse_emb: np.ndarray
    ) -> np.ndarray:
        """Interaction + top MLP: the stages after the EMB all-to-all."""
        fused = dot_interaction(dense_emb, sparse_emb)
        return self.top_mlp.forward(fused)

    def forward(self, dense: np.ndarray, sparse: SparseBatch) -> np.ndarray:
        """Full inference pass: ``(B, 1)`` click probabilities."""
        if dense.shape[0] != sparse.batch_size:
            raise ValueError(
                f"dense batch {dense.shape[0]} != sparse batch {sparse.batch_size}"
            )
        dense_emb = self.dense_forward(dense)
        sparse_emb = self.emb_forward(sparse)
        return self.predict_from_embeddings(dense_emb, sparse_emb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.config
        return (
            f"<DLRM dense={c.num_dense_features} F={c.num_sparse_features} "
            f"d={c.embedding_dim}>"
        )
