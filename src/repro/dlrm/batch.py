"""Jagged sparse-batch representation.

A DLRM sparse input is jagged: per (feature, sample) a *bag* of indices
whose size — the pooling factor — varies by feature and by sample, possibly
zero ("NULL" in the paper's Fig. 3).  We use the standard CSR-style
``(offsets, indices)`` encoding per feature, the same layout as PyTorch's
``EmbeddingBag`` / TorchRec's ``KeyedJaggedTensor``:

* ``offsets`` — int64 array of shape ``(batch_size + 1,)``, non-decreasing,
  ``offsets[0] == 0``; bag *b* is ``indices[offsets[b]:offsets[b + 1]]``.
* ``indices`` — int64 array of raw (pre-hash) sparse indices.

:class:`SparseBatch` maps feature names to :class:`JaggedField` and supports
the data-parallel cut of the distributed forward pass (paper Fig. 4): a
device's mini-batch is ``field.slice_samples(lo, hi)`` of every feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["JaggedField", "SparseBatch"]


@dataclass(frozen=True)
class JaggedField:
    """One feature's jagged bags for a batch, in CSR form."""

    offsets: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "indices", indices)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a 1-D array of length batch_size + 1")
        if offsets[0] != 0:
            raise ValueError(f"offsets[0] must be 0, got {offsets[0]}")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if offsets[-1] != indices.size:
            raise ValueError(
                f"offsets[-1] ({offsets[-1]}) must equal len(indices) ({indices.size})"
            )

    @property
    def batch_size(self) -> int:
        """Number of samples."""
        return self.offsets.size - 1

    @property
    def nnz(self) -> int:
        """Total indices across all bags."""
        return int(self.indices.size)

    @property
    def lengths(self) -> np.ndarray:
        """Pooling factor per sample."""
        return np.diff(self.offsets)

    def bag(self, sample: int) -> np.ndarray:
        """The index bag of one sample (possibly empty)."""
        return self.indices[self.offsets[sample] : self.offsets[sample + 1]]

    def bags(self) -> Iterator[np.ndarray]:
        """Iterate over all bags in sample order."""
        for b in range(self.batch_size):
            yield self.bag(b)

    @staticmethod
    def from_lengths(lengths: Sequence[int], indices: np.ndarray) -> "JaggedField":
        """Build from per-sample bag lengths plus flat indices."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 0):
            raise ValueError("bag lengths must be non-negative")
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return JaggedField(offsets=offsets, indices=np.asarray(indices, dtype=np.int64))

    @staticmethod
    def from_bags(bags: Sequence[Sequence[int]]) -> "JaggedField":
        """Build from an explicit list of bags (convenient in tests)."""
        lengths = [len(b) for b in bags]
        if sum(lengths):
            indices = np.concatenate([np.asarray(b, dtype=np.int64) for b in bags if len(b)])
        else:
            indices = np.empty(0, dtype=np.int64)
        return JaggedField.from_lengths(lengths, indices)

    def slice_samples(self, lo: int, hi: int) -> "JaggedField":
        """Sub-batch ``[lo, hi)`` — the data-parallel mini-batch cut."""
        if not (0 <= lo <= hi <= self.batch_size):
            raise ValueError(f"slice [{lo}, {hi}) out of range for batch {self.batch_size}")
        base = self.offsets[lo]
        return JaggedField(
            offsets=self.offsets[lo : hi + 1] - base,
            indices=self.indices[base : self.offsets[hi]],
        )

    def take(self, rows: Sequence[int]) -> "JaggedField":
        """Gather arbitrary samples (with reorder) into a new batch.

        The continuous-batching scheduler pre-draws one pooled batch of
        request features and assembles each dispatched batch from the
        admitted request ids — which need not be contiguous once load
        shedding drops some — so a row-gather is needed on top of
        :meth:`slice_samples`'s contiguous cut.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.batch_size):
            raise ValueError(f"row ids out of range for batch {self.batch_size}")
        lengths = self.lengths[rows]
        if rows.size:
            parts = [self.indices[self.offsets[r] : self.offsets[r + 1]] for r in rows]
            indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        else:
            indices = np.empty(0, dtype=np.int64)
        return JaggedField.from_lengths(lengths, indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JaggedField):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JaggedField B={self.batch_size} nnz={self.nnz}>"


class SparseBatch:
    """All sparse features of one input batch: ``{feature_name: JaggedField}``.

    All fields must share one batch size.  Iteration order is the insertion
    order of ``fields`` (deterministic — feature order defines the layout of
    the EMB output tensor, so it must be stable across devices).
    """

    def __init__(self, fields: Mapping[str, JaggedField]):
        if not fields:
            raise ValueError("a SparseBatch needs at least one feature")
        sizes = {f.batch_size for f in fields.values()}
        if len(sizes) != 1:
            raise ValueError(f"inconsistent batch sizes across features: {sorted(sizes)}")
        self._fields: Dict[str, JaggedField] = dict(fields)
        self._batch_size = sizes.pop()

    @property
    def batch_size(self) -> int:
        """Samples per feature."""
        return self._batch_size

    def field(self, name: str) -> JaggedField:
        """One feature's jagged data."""
        return self._fields[name]

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[Tuple[str, JaggedField]]:
        return iter(self._fields.items())

    def take(self, rows: Sequence[int]) -> "SparseBatch":
        """Gather arbitrary samples of every feature (see JaggedField.take)."""
        return SparseBatch({n: f.take(rows) for n, f in self._fields.items()})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SparseBatch B={self._batch_size} features={len(self._fields)} "
            f"nnz={sum(f.nnz for f in self._fields.values())}>"
        )
