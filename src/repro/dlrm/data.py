"""Synthetic workload generation (paper §IV: "the dense and sparse feature
inputs are generated synthetically with a uniform random distribution").

:class:`WorkloadConfig` captures the knobs of the paper's two experiments —
number of tables, rows, embedding dim, batch size, and the pooling-factor
cap — and :class:`SyntheticDataGenerator` draws batches from them.  Beyond
the paper's uniform distribution, a Zipf index distribution and a
fixed-pooling mode are provided for the extension studies (skewed access is
what makes the backward pass's gradient aggregation interesting).

Generation is deterministic given a seed; the same seed produces the same
batches on every device, which the distributed tests use to avoid
broadcasting inputs.

Timing-only runs draw just the pooling factors, as a :class:`LengthsBatch`:
a read-only mapping whose arrays are frozen, so the per-chunk lookup counts
each table derives (the only per-batch input to the simulated EMB kernel)
can be memoized on the batch and shared by every backend that runs it.
Building that memo also validates the lengths, once per batch: a negative,
fractional or NaN pooling factor raises :class:`InvalidLengthsError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import (
    Dict,
    ItemsView,
    Iterator,
    KeysView,
    List,
    Literal,
    Mapping,
    Optional,
    Sequence,
    ValuesView,
)

import numpy as np

from .batch import JaggedField, SparseBatch
from .embedding import EmbeddingTableConfig, PoolingMode

__all__ = [
    "WorkloadConfig",
    "SyntheticDataGenerator",
    "LengthsBatch",
    "InvalidLengthsError",
    "WEAK_SCALING_BASE",
    "STRONG_SCALING_TOTAL",
]

IndexDistribution = Literal["uniform", "zipf"]


@dataclass(frozen=True)
class WorkloadConfig:
    """One experiment's workload description.

    Attributes mirror the paper's setup tables:

    * weak scaling: ``num_tables`` **per GPU** 64, 1M rows, dim 64,
      batch 16384, pooling uniform with max 128;
    * strong scaling: 96 tables **total**, 1M rows, dim 64, batch 16384,
      pooling up to 32.
    """

    num_tables: int
    rows_per_table: int = 1_000_000
    dim: int = 64
    batch_size: int = 16_384
    max_pooling: int = 128
    min_pooling: int = 0  #: 0 allows "NULL" bags as in paper Fig. 3
    index_distribution: IndexDistribution = "uniform"
    zipf_alpha: float = 1.05
    table_skew_alpha: Optional[float] = None  #: zipf skew of *per-table* traffic
    pooling: PoolingMode = "sum"
    raw_cardinality: Optional[int] = None  #: pre-hash index space; default = rows
    seed: int = 2024
    num_dense_features: int = 13  #: Criteo-like dense width for the full model

    def __post_init__(self) -> None:
        if self.num_tables <= 0:
            raise ValueError("num_tables must be positive")
        if self.rows_per_table <= 0 or self.dim <= 0 or self.batch_size <= 0:
            raise ValueError("rows, dim and batch_size must be positive")
        if not (0 <= self.min_pooling <= self.max_pooling):
            raise ValueError(
                f"need 0 <= min_pooling <= max_pooling, got "
                f"[{self.min_pooling}, {self.max_pooling}]"
            )
        if self.index_distribution == "zipf" and self.zipf_alpha <= 1.0:
            raise ValueError("zipf_alpha must be > 1 for a proper Zipf law")
        if self.table_skew_alpha is not None and self.table_skew_alpha <= 0:
            raise ValueError(
                f"table_skew_alpha must be positive (or None for uniform "
                f"table traffic), got {self.table_skew_alpha}"
            )

    @property
    def mean_pooling(self) -> float:
        """Expected bag size under the uniform pooling draw."""
        return (self.min_pooling + self.max_pooling) / 2.0

    @property
    def table_bytes(self) -> int:
        """Weight bytes of one table (float32)."""
        return self.rows_per_table * self.dim * 4

    @property
    def total_table_bytes(self) -> int:
        """Weight bytes across all tables."""
        return self.num_tables * self.table_bytes

    @property
    def feature_names(self) -> List[str]:
        """Deterministic feature naming: ``sparse_0 ... sparse_{T-1}``."""
        return [f"sparse_{i}" for i in range(self.num_tables)]

    def table_configs(self) -> List[EmbeddingTableConfig]:
        """Embedding-table configs for this workload."""
        return [
            EmbeddingTableConfig(
                name=name,
                num_rows=self.rows_per_table,
                dim=self.dim,
                pooling=self.pooling,
            )
            for name in self.feature_names
        ]

    def table_skew_scales(self) -> Optional[np.ndarray]:
        """Per-table traffic multipliers under the table-popularity skew.

        ``None`` when :attr:`table_skew_alpha` is unset (uniform traffic).
        Otherwise table *t* gets weight ``(t + 1) ** -alpha`` (zipf over
        the feature order), normalised so the multipliers average 1.0 —
        the *total* expected traffic matches the uniform workload, only
        its distribution over tables changes.
        """
        if self.table_skew_alpha is None:
            return None
        w = np.arange(1, self.num_tables + 1, dtype=np.float64) ** (
            -self.table_skew_alpha
        )
        return w * (self.num_tables / w.sum())

    def scaled_tables(self, num_tables: int) -> "WorkloadConfig":
        """Copy with a different table count (weak-scaling helper)."""
        return replace(self, num_tables=num_tables)

    def with_batch_size(self, batch_size: int) -> "WorkloadConfig":
        """Copy with a different batch size (sweep helper)."""
        return replace(self, batch_size=batch_size)


#: Paper §IV-A: per-GPU workload of the weak-scaling test.
WEAK_SCALING_BASE = WorkloadConfig(
    num_tables=64, rows_per_table=1_000_000, dim=64, batch_size=16_384, max_pooling=128
)

#: Paper §IV-B: total workload of the strong-scaling test.
STRONG_SCALING_TOTAL = WorkloadConfig(
    num_tables=96, rows_per_table=1_000_000, dim=64, batch_size=16_384, max_pooling=32
)


class InvalidLengthsError(ValueError):
    """A feature's pooling factors cannot be per-sample lookup counts."""


#: Values reduced per ``reduceat`` call.  Features of a small batch are
#: concatenated up to this many values (64 KiB of int64: heap memory, below
#: malloc's mmap threshold), so one call serves many tables; a feature of
#: this size or more is reduced on its own, without a copy.
_GROUP_VALUES = 8192


def _chunk_counts(names: List[str], arrays: List[np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """Validated per-chunk lookup counts of a group of features (int64).

    Row *i* holds feature *i*'s counts: ``offsets`` are the chunk starts of
    the features laid end to end.  The sign check runs first, on the same
    values: its pass pulls them into cache for the sum.
    """
    flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, dtype=np.int64)
    if flat.dtype.kind == "i" and flat.size and flat.min() < 0:
        bad = int(np.flatnonzero(flat < 0)[0])
        raise InvalidLengthsError(
            f"feature {names[bad // arrays[0].shape[0]]!r}: "
            f"negative pooling factor {int(flat[bad])}"
        )
    return np.add.reduceat(flat, offsets, dtype=np.int64).reshape(len(arrays), -1)


class LengthsBatch(Mapping[str, np.ndarray]):
    """One batch's per-feature pooling factors, read-only.

    Maps each feature to its ``(B,)`` integer lengths.  The arrays are
    read-only, which is what makes :meth:`chunk_counts` safe to memoize:
    nothing the batch hands out can change its counts, so every backend
    that runs the batch reads the counts the first one derived.  Arrays
    that arrive writeable are wrapped in read-only views; the caller must
    not write through its own references afterwards.

    Construction checks shapes and dtypes (1-D, integer, one batch size);
    the first :meth:`chunk_counts` checks the values.
    """

    __slots__ = ("_lengths", "_counts", "batch_size")

    def __init__(self, lengths_by_feature: Mapping[str, Sequence[int]]):
        arrays: Dict[str, np.ndarray] = {}
        for name, raw in lengths_by_feature.items():
            arr = np.asarray(raw)
            if arr.ndim != 1:
                raise InvalidLengthsError(
                    f"feature {name!r}: lengths must be 1-D, got shape {arr.shape}"
                )
            if arr.dtype.kind not in "iu":
                raise InvalidLengthsError(
                    f"feature {name!r}: lengths must be integers, got dtype {arr.dtype}"
                )
            if arr.flags.writeable:
                arr = arr.view()
                arr.setflags(write=False)
            arrays[name] = arr
        sizes = {arr.shape[0] for arr in arrays.values()}
        if len(sizes) > 1:
            raise ValueError(f"inconsistent batch sizes in lengths: {sorted(sizes)}")
        self._lengths = arrays
        #: samples_per_block -> feature -> per-chunk counts
        self._counts: Dict[int, Mapping[str, np.ndarray]] = {}
        #: samples per feature (0 for an empty batch)
        self.batch_size = sizes.pop() if sizes else 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self._lengths[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)

    # The dict's own views: the Mapping defaults go through __getitem__.
    def __contains__(self, name: object) -> bool:
        return name in self._lengths

    def keys(self) -> KeysView[str]:
        return self._lengths.keys()

    def values(self) -> ValuesView[np.ndarray]:
        return self._lengths.values()

    def items(self) -> ItemsView[str, np.ndarray]:
        return self._lengths.items()

    def take(self, rows: np.ndarray) -> "LengthsBatch":
        """The samples ``rows`` of every feature, in that order (a new batch).

        The selected arrays keep this batch's checked shape and dtype, so
        the new batch skips the constructor's checks; its values are
        checked when its own counts are derived.
        """
        out = {}
        for name, arr in self._lengths.items():
            sub = arr[rows]
            sub.setflags(write=False)
            out[name] = sub
        batch = LengthsBatch.__new__(LengthsBatch)
        batch._lengths, batch._counts, batch.batch_size = out, {}, len(rows)
        return batch

    def chunk_counts(self, samples_per_block: int) -> Mapping[str, np.ndarray]:
        """Every feature's lookup counts per ``samples_per_block`` samples.

        Derived, and the lengths validated, on the first call per block
        size; later calls return the same read-only arrays.
        """
        counts = self._counts.get(samples_per_block)
        if counts is None:
            B = self.batch_size
            names, arrays = list(self._lengths), list(self._lengths.values())
            starts = np.arange(0, B, samples_per_block)
            per_group = max(1, _GROUP_VALUES // max(B, 1))
            offsets = (np.arange(per_group)[:, None] * B + starts).ravel()
            by_name: Dict[str, np.ndarray] = {}
            for lo in range(0, len(names), per_group):
                group = names[lo : lo + per_group]
                rows = _chunk_counts(
                    group, arrays[lo : lo + per_group], offsets[: len(group) * len(starts)]
                )
                rows.flags.writeable = False
                by_name.update(zip(group, rows))
            counts = self._counts[samples_per_block] = MappingProxyType(by_name)
        return counts


def _skew_lengths(lengths: np.ndarray, scale: float) -> np.ndarray:
    """Scale a uniform per-sample length draw by one table's multiplier.

    The scaling happens *after* the uniform draw, so the generator's RNG
    stream is untouched — a config with ``table_skew_alpha=None`` is
    bit-identical to one that never had the knob.
    """
    return np.rint(lengths.astype(np.float64) * scale).astype(np.int64)


class SyntheticDataGenerator:
    """Draws dense + sparse batches for a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def reset(self) -> None:
        """Restart the stream (same seed → same batches again)."""
        self._rng = np.random.default_rng(self.config.seed)

    # -- sparse -----------------------------------------------------------------

    def sparse_batch(self, batch_size: Optional[int] = None) -> SparseBatch:
        """One batch of jagged sparse inputs for every feature."""
        cfg = self.config
        B = batch_size or cfg.batch_size
        cardinality = cfg.raw_cardinality or cfg.rows_per_table
        scales = cfg.table_skew_scales()
        fields = {}
        for t, name in enumerate(cfg.feature_names):
            lengths = self._rng.integers(
                cfg.min_pooling, cfg.max_pooling + 1, size=B, dtype=np.int64
            )
            if scales is not None:
                lengths = _skew_lengths(lengths, scales[t])
            nnz = int(lengths.sum())
            indices = self._draw_indices(nnz, cardinality)
            fields[name] = JaggedField.from_lengths(lengths, indices)
        return SparseBatch(fields)

    def _draw_indices(self, nnz: int, cardinality: int) -> np.ndarray:
        cfg = self.config
        if nnz == 0:
            return np.empty(0, dtype=np.int64)
        if cfg.index_distribution == "uniform":
            return self._rng.integers(0, cardinality, size=nnz, dtype=np.int64)
        if cfg.index_distribution == "zipf":
            # Rejection-free: draw Zipf and fold into range (keeps skew).
            draws = self._rng.zipf(cfg.zipf_alpha, size=nnz)
            return ((draws - 1) % cardinality).astype(np.int64)
        raise ValueError(f"unknown index distribution {cfg.index_distribution!r}")

    def lengths_batch(self, batch_size: Optional[int] = None) -> LengthsBatch:
        """Pooling factors only: ``{feature: (B,) lengths}``, read-only.

        Timing-only runs need just the jagged shape, not the indices — this
        draws exactly the lengths :meth:`sparse_batch` would (same marginal
        distribution) without materialising the index arrays, which at
        paper scale would be ~0.5 GB per batch.
        """
        cfg = self.config
        B = batch_size or cfg.batch_size
        scales = cfg.table_skew_scales()
        out = {}
        for t, name in enumerate(cfg.feature_names):
            lengths = self._rng.integers(
                cfg.min_pooling, cfg.max_pooling + 1, size=B, dtype=np.int64
            )
            if scales is not None:
                lengths = _skew_lengths(lengths, scales[t])
            lengths.flags.writeable = False
            out[name] = lengths
        return LengthsBatch(out)

    # -- dense ------------------------------------------------------------------

    def dense_batch(self, batch_size: Optional[int] = None) -> np.ndarray:
        """One batch of continuous features, ``(B, num_dense_features)``."""
        cfg = self.config
        B = batch_size or cfg.batch_size
        return self._rng.uniform(0.0, 1.0, size=(B, cfg.num_dense_features)).astype(
            np.float32
        )

    # -- streams ----------------------------------------------------------------

    def batches(self, n: int, batch_size: Optional[int] = None) -> Iterator[tuple]:
        """Yield ``n`` (dense, sparse) batch pairs — the 100-batch loop."""
        if n < 0:
            raise ValueError("n must be non-negative")
        for _ in range(n):
            yield self.dense_batch(batch_size), self.sparse_batch(batch_size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.config
        return (
            f"<SyntheticDataGenerator T={c.num_tables} B={c.batch_size} "
            f"pool[{c.min_pooling},{c.max_pooling}] {c.index_distribution}>"
        )
