"""Heterogeneous table profiles and Criteo-like workloads.

The paper's experiments use uniform tables, but its background section is
explicit that real sparse-feature spaces are wildly skewed: "Some tables,
like those for US states, have small cardinalities (e.g., 50 rows).
However, tables for features like user-browsed pages can have billions of
rows" (§II-A).  This module models that heterogeneity:

* :class:`TableProfile` — per-table rows, hash cardinality, and pooling
  range (pooling "varies by features and by samples", §II);
* :class:`HeterogeneousWorkload` — a set of profiles sharing one embedding
  dim, usable everywhere a :class:`~repro.dlrm.data.WorkloadConfig` is
  (same ``table_configs()`` / generator interface);
* :func:`criteo_like` — a 26-sparse-feature profile with log-uniform
  cardinalities from tens to tens of millions, matching the shape of the
  public Criteo Kaggle/Terabyte datasets DLRM is benchmarked on.

Heterogeneous tables are what make non-trivial placement matter — see
:mod:`repro.core.planner` for the balanced table-wise placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..checks import checked_count
from .batch import JaggedField, SparseBatch
from .data import (
    BlockDraw,
    FeatureLayout,
    LengthsBatch,
    _batch_size,
    _counts_batch,
    _storage_dtype,
)
from .embedding import EmbeddingTableConfig, PoolingMode

__all__ = ["TableProfile", "HeterogeneousWorkload", "HeterogeneousDataGenerator", "criteo_like"]


@dataclass(frozen=True)
class TableProfile:
    """One sparse feature's statistical profile."""

    name: str
    num_rows: int  #: post-hash table size M_i
    max_pooling: int  #: largest bag for this feature
    min_pooling: int = 0  #: 0 allows NULL bags (paper Fig. 3)
    raw_cardinality: Optional[int] = None  #: pre-hash index space

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"table {self.name!r}: num_rows must be positive")
        if not (0 <= self.min_pooling <= self.max_pooling):
            raise ValueError(
                f"table {self.name!r}: bad pooling range "
                f"[{self.min_pooling}, {self.max_pooling}]"
            )
        if self.raw_cardinality is not None and self.raw_cardinality <= 0:
            raise ValueError(f"table {self.name!r}: raw_cardinality must be positive")

    @property
    def mean_pooling(self) -> float:
        """Expected bag size under the uniform draw."""
        return (self.min_pooling + self.max_pooling) / 2.0

    def nbytes(self, dim: int, itemsize: int = 4) -> int:
        """Weight footprint at embedding dim ``dim``."""
        return self.num_rows * dim * itemsize


@dataclass(frozen=True)
class HeterogeneousWorkload:
    """A batch workload over heterogeneous tables (one shared dim)."""

    tables: Tuple[TableProfile, ...]
    dim: int = 64
    batch_size: int = 16_384
    pooling: PoolingMode = "sum"
    num_dense_features: int = 13
    seed: int = 2024

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("need at least one table profile")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate table names")
        if self.dim <= 0 or self.batch_size <= 0:
            raise ValueError("dim and batch_size must be positive")
        object.__setattr__(self, "tables", tuple(self.tables))

    @property
    def num_tables(self) -> int:
        """Number of sparse features."""
        return len(self.tables)

    @property
    def feature_names(self) -> List[str]:
        """Feature names in layout order."""
        return [t.name for t in self.tables]

    @property
    def total_table_bytes(self) -> int:
        """Weight bytes across all tables."""
        return sum(t.nbytes(self.dim) for t in self.tables)

    def table_configs(self) -> List[EmbeddingTableConfig]:
        """Embedding-table configs (the sharding/retrieval interface)."""
        return [
            EmbeddingTableConfig(
                name=t.name, num_rows=t.num_rows, dim=self.dim, pooling=self.pooling
            )
            for t in self.tables
        ]

    def profile(self, name: str) -> TableProfile:
        """Profile by feature name."""
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


class HeterogeneousDataGenerator:
    """Draws batches honouring each table's own pooling range/cardinality."""

    def __init__(self, workload: HeterogeneousWorkload):
        self.workload = workload
        self._rng = np.random.default_rng(workload.seed)
        self._layout = FeatureLayout(workload.feature_names)

    def reset(self) -> None:
        """Restart the stream."""
        self._rng = np.random.default_rng(self.workload.seed)

    def lengths_batch(self, batch_size: Optional[int] = None) -> LengthsBatch:
        """Lookup counts only: a counts-only :class:`LengthsBatch`.

        Each table's count per
        :data:`~repro.dlrm.data.EMB_SAMPLES_PER_BLOCK` samples is drawn
        from the law of the sum of its own range's uniform draws, one law
        per distinct range; a single-valued table draws nothing.  When any
        range is too wide for its law (see
        :meth:`SyntheticDataGenerator.lengths_batch`), every sample is
        drawn as :meth:`sample_lengths` does and reduced.
        ``batch_size=None`` draws the workload's batch size.
        """
        B = _batch_size(
            "HeterogeneousDataGenerator.lengths_batch", batch_size, self.workload.batch_size
        )
        tables = self.workload.tables
        ranges = (
            np.array([t.min_pooling for t in tables], dtype=np.int64),
            np.array([t.max_pooling - t.min_pooling for t in tables], dtype=np.int64),
        )
        return _counts_batch(self._layout, B, self._rng, ranges, self._block_draw(B))

    def sample_lengths(self, batch_size: Optional[int] = None) -> LengthsBatch:
        """Per-sample pooling factors, each from its own range (read-only).

        One draw per table, since each has its own range, as
        :meth:`sparse_batch` draws its lengths, written into its row of
        blocks stored in the narrowest unsigned type that holds the largest
        ``max_pooling`` of any table.  ``batch_size=None`` draws the
        workload's batch size.
        """
        B = _batch_size(
            "HeterogeneousDataGenerator.sample_lengths", batch_size, self.workload.batch_size
        )
        return LengthsBatch.drawn(self._layout, B, self._rng, self._block_draw(B))

    def _block_draw(self, batch_size: int) -> BlockDraw:
        """The per-sample draw of a block of tables at ``batch_size``."""
        tables = self.workload.tables
        dtype = _storage_dtype(max(t.max_pooling for t in tables))

        def draw(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
            block = np.empty((hi - lo, batch_size), dtype=dtype)
            for i, t in enumerate(tables[lo:hi]):
                block[i] = rng.integers(
                    t.min_pooling, t.max_pooling + 1, size=batch_size, dtype=np.int64
                )
            return block

        return draw

    def sparse_batch(self, batch_size: Optional[int] = None) -> SparseBatch:
        """Full jagged batch with per-feature cardinalities."""
        B = _batch_size(
            "HeterogeneousDataGenerator.sparse_batch", batch_size, self.workload.batch_size
        )
        fields = {}
        for t in self.workload.tables:
            lengths = self._rng.integers(
                t.min_pooling, t.max_pooling + 1, size=B, dtype=np.int64
            )
            nnz = int(lengths.sum())
            card = t.raw_cardinality or t.num_rows
            indices = (
                self._rng.integers(0, card, size=nnz, dtype=np.int64)
                if nnz
                else np.empty(0, dtype=np.int64)
            )
            fields[t.name] = JaggedField.from_lengths(lengths, indices)
        return SparseBatch(fields)

    def dense_batch(self, batch_size: Optional[int] = None) -> np.ndarray:
        """Continuous features, uniform [0, 1)."""
        B = _batch_size(
            "HeterogeneousDataGenerator.dense_batch", batch_size, self.workload.batch_size
        )
        return self._rng.uniform(size=(B, self.workload.num_dense_features)).astype(
            np.float32
        )

    def batches(self, n: int, batch_size: Optional[int] = None) -> Iterator[tuple]:
        """``n`` (dense, sparse) pairs; ``n`` must be an int >= 0, checked
        on the call."""
        n = checked_count("HeterogeneousDataGenerator.batches", "n", n, 0)
        return ((self.dense_batch(batch_size), self.sparse_batch(batch_size)) for _ in range(n))


def criteo_like(
    num_tables: int = 26,
    dim: int = 64,
    batch_size: int = 16_384,
    *,
    min_rows: int = 32,
    max_rows: int = 40_000_000,
    multivalued_fraction: float = 0.25,
    seed: int = 7,
) -> HeterogeneousWorkload:
    """A Criteo-shaped workload: 26 features, log-uniform cardinalities.

    Most features are single-valued (pooling 1, like Criteo's categorical
    columns); ``multivalued_fraction`` of them are multi-hot bags (browsed
    pages, past clicks) with pooling up to 64.  Cardinalities span
    ``[min_rows, max_rows]`` log-uniformly, hashed down to at most 10M rows
    as production systems do (paper §II-A).
    """
    if num_tables <= 0:
        raise ValueError("num_tables must be positive")
    if not (0.0 <= multivalued_fraction <= 1.0):
        raise ValueError("multivalued_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    log_lo, log_hi = np.log10(min_rows), np.log10(max_rows)
    cards = (10 ** rng.uniform(log_lo, log_hi, size=num_tables)).astype(np.int64)
    n_multi = int(round(num_tables * multivalued_fraction))
    multi = set(rng.choice(num_tables, size=n_multi, replace=False).tolist())
    profiles = []
    for i in range(num_tables):
        raw = int(cards[i])
        hashed = min(raw, 10_000_000)
        if i in multi:
            lo_p, hi_p = 0, 64
        else:
            lo_p, hi_p = 1, 1
        profiles.append(
            TableProfile(
                name=f"cat_{i}",
                num_rows=hashed,
                max_pooling=hi_p,
                min_pooling=lo_p,
                raw_cardinality=raw,
            )
        )
    return HeterogeneousWorkload(
        tables=tuple(profiles), dim=dim, batch_size=batch_size, seed=seed
    )
