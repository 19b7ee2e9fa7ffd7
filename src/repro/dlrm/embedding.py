"""Embedding tables: hash → lookup → pool (paper §II-B).

:class:`EmbeddingTable` is one sparse feature's table; its
:meth:`~EmbeddingTable.forward` performs the three steps of the EMB layer
for a jagged batch:

1. **Hashing** — raw indices folded to ``[0, num_rows)``.
2. **Lookup** — gather the embedding vectors for every index in every bag.
3. **Pooling** — sum each bag's vectors into one output vector per sample
   (the paper's segment sum); an empty bag ("NULL" input) pools to zeros.

:class:`EmbeddingBagCollection` groups many tables and produces the
``(batch, num_features, dim)`` activation the interaction layer consumes —
the tensor whose layout conversion is the whole point of the paper.

Implementation notes (hpc guides: vectorise, avoid copies): pooling is one
``gather`` + one ``reduceat``-style segment reduction, no Python-level loop
over samples.  Sum-pooling of a segment is computed with
``np.add.reduceat`` over non-empty segments, which is deterministic for a
fixed batch, so backends that reuse this code produce *bit-identical*
outputs — the equality tests rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .batch import JaggedField, SparseBatch
from .hashing import hash_indices

__all__ = ["EmbeddingTableConfig", "EmbeddingTable", "EmbeddingBagCollection", "segment_pool"]


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """Static description of one embedding table.

    ``num_rows`` is the post-hash size M_i; ``dim`` the embedding dimension
    d (powers of two in practice, paper §II-A).
    """

    name: str
    num_rows: int
    dim: int
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"table {self.name!r}: num_rows must be positive")
        if self.dim <= 0:
            raise ValueError(f"table {self.name!r}: dim must be positive")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    @property
    def nbytes(self) -> int:
        """Weight storage footprint."""
        return self.num_rows * self.dim * self.dtype.itemsize

    @property
    def row_bytes(self) -> int:
        """Bytes of one embedding vector."""
        return self.dim * self.dtype.itemsize


def segment_pool(vectors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum gathered vectors per CSR segment; empty segments give zeros.

    ``vectors`` has shape ``(nnz, dim)``; ``offsets`` has shape ``(B + 1,)``.
    Returns ``(B, dim)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n_seg = offsets.size - 1
    dim = vectors.shape[1] if vectors.ndim == 2 else 0
    out = np.zeros((n_seg, dim), dtype=vectors.dtype)
    nonempty = np.flatnonzero(np.diff(offsets) > 0)
    if nonempty.size == 0:
        return out
    # reduceat over the starts of non-empty segments; reduceat reduces
    # [start[i], start[i+1]) so consecutive non-empty segments compose,
    # and trailing elements of an empty-segment run never leak because
    # empty segments are excluded from the starts.
    out[nonempty] = np.add.reduceat(vectors, offsets[nonempty], axis=0)
    return out


class EmbeddingTable:
    """One sparse feature's embedding table (learned weights + ops)."""

    def __init__(
        self,
        config: EmbeddingTableConfig,
        weights: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config
        if weights is not None:
            weights = np.asarray(weights, dtype=config.dtype)
            if weights.shape != (config.num_rows, config.dim):
                raise ValueError(
                    f"table {config.name!r}: weights shape {weights.shape} != "
                    f"({config.num_rows}, {config.dim})"
                )
            self.weights = weights
        else:
            rng = rng or np.random.default_rng(0)
            # DLRM-style init: uniform in +-1/sqrt(num_rows).
            bound = 1.0 / np.sqrt(config.num_rows)
            self.weights = rng.uniform(
                -bound, bound, size=(config.num_rows, config.dim)
            ).astype(config.dtype)

    @property
    def name(self) -> str:
        """Feature/table name."""
        return self.config.name

    def hash(self, raw_indices: np.ndarray) -> np.ndarray:
        """Fold raw indices to row ids."""
        return hash_indices(raw_indices, self.config.num_rows)

    def lookup(self, raw_indices: np.ndarray) -> np.ndarray:
        """Hash + gather: ``(nnz, dim)`` embedding vectors."""
        rows = self.hash(raw_indices)
        return self.weights[rows]

    def forward(self, field: JaggedField) -> np.ndarray:
        """Full EMB step for one feature: returns ``(batch, dim)``."""
        vectors = self.lookup(field.indices)
        return segment_pool(vectors, field.offsets)

    def apply_row_gradients(self, rows: np.ndarray, grads: np.ndarray, lr: float = 1.0) -> None:
        """SGD update with duplicate-row accumulation (backward §V).

        ``rows`` may contain duplicates; gradients for the same row sum —
        ``np.add.at`` is the scatter-add the PGAS backward pass models with
        remote atomics.
        """
        if rows.shape[0] != grads.shape[0]:
            raise ValueError("rows and grads must align")
        np.subtract.at(self.weights, rows, lr * grads.astype(self.config.dtype))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.config
        return f"<EmbeddingTable {c.name!r} {c.num_rows}x{c.dim}>"


class EmbeddingBagCollection:
    """A set of embedding tables evaluated together (TorchRec's EBC analogue).

    ``forward`` returns ``(batch, num_features, dim)`` with features in
    *collection* order — the model-parallel activation whose re-layout into
    data-parallel mini-batches is the communication under study.
    """

    def __init__(self, tables: Sequence[EmbeddingTable]):
        if not tables:
            raise ValueError("EmbeddingBagCollection needs at least one table")
        dims = {t.config.dim for t in tables}
        if len(dims) != 1:
            raise ValueError(
                f"all tables in a collection must share one dim, got {sorted(dims)}"
            )
        names = [t.name for t in tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names: {names}")
        self.tables: List[EmbeddingTable] = list(tables)
        self._by_name: Dict[str, EmbeddingTable] = {t.name: t for t in tables}
        self.dim = dims.pop()

    @classmethod
    def from_configs(
        cls,
        configs: Sequence[EmbeddingTableConfig],
        rng: Optional[np.random.Generator] = None,
    ) -> "EmbeddingBagCollection":
        """Build tables with fresh weights from configs."""
        rng = rng or np.random.default_rng(0)
        return cls([EmbeddingTable(c, rng=rng) for c in configs])

    @property
    def num_features(self) -> int:
        """Number of tables."""
        return len(self.tables)

    def table(self, name: str) -> EmbeddingTable:
        """Table by feature name."""
        return self._by_name[name]

    def forward(self, batch: SparseBatch) -> np.ndarray:
        """EMB layer forward for every feature: ``(batch, F, dim)``."""
        out = np.empty(
            (batch.batch_size, self.num_features, self.dim),
            dtype=self.tables[0].config.dtype,
        )
        for f, table in enumerate(self.tables):
            out[:, f, :] = table.forward(batch.field(table.name))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EmbeddingBagCollection F={self.num_features} dim={self.dim}>"
