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
a read-only mapping over the per-chunk lookup counts of every table (the
only per-batch input to the simulated EMB kernel).  A drawn batch reduces
each block of its draw to counts per :data:`EMB_SAMPLES_PER_BLOCK` samples
as it is drawn and keeps only those counts and the generator's state at the
start of the batch; the first per-sample read replays the draw once from
that state into a few frozen row blocks, each in the narrowest unsigned type
the generator's pooling range allows.  Counts are memoized on the batch and
shared by every backend that runs it.  Deriving them from blocks also
validates the lengths, once per batch: a negative, fractional or NaN pooling
factor raises :class:`InvalidLengthsError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Literal, Mapping, Optional, Sequence

import numpy as np

from ..checks import check_finite, checked_count
from .batch import JaggedField, SparseBatch
from .embedding import EmbeddingTableConfig, PoolingMode

__all__ = [
    "WorkloadConfig",
    "SyntheticDataGenerator",
    "LengthsBatch",
    "InvalidLengthsError",
    "EMB_SAMPLES_PER_BLOCK",
    "WEAK_SCALING_BASE",
    "STRONG_SCALING_TOTAL",
]

IndexDistribution = Literal["uniform", "zipf"]


#: WorkloadConfig's integer fields and their least valid values
_COUNT_FIELDS = (
    ("num_tables", 1),
    ("rows_per_table", 1),
    ("dim", 1),
    ("batch_size", 1),
    ("max_pooling", 0),
    ("min_pooling", 0),
    ("seed", 0),
    ("num_dense_features", 1),
)


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
        for name, minimum in _COUNT_FIELDS:
            value = checked_count("WorkloadConfig", name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
        if self.raw_cardinality is not None:
            object.__setattr__(
                self,
                "raw_cardinality",
                checked_count("WorkloadConfig", "raw_cardinality", self.raw_cardinality),
            )
        if self.min_pooling > self.max_pooling:
            raise ValueError(
                f"WorkloadConfig needs min_pooling <= max_pooling, got "
                f"[{self.min_pooling}, {self.max_pooling}]"
            )
        if self.index_distribution not in ("uniform", "zipf"):
            raise ValueError(
                f"WorkloadConfig.index_distribution must be 'uniform' or 'zipf', "
                f"got {self.index_distribution!r}"
            )
        if self.pooling not in ("sum", "mean", "max"):
            raise ValueError(
                f"WorkloadConfig.pooling must be 'sum', 'mean' or 'max', got {self.pooling!r}"
            )
        check_finite("WorkloadConfig", "zipf_alpha", self.zipf_alpha)
        if self.index_distribution == "zipf" and self.zipf_alpha <= 1.0:
            raise ValueError("WorkloadConfig.zipf_alpha must be > 1 for a proper Zipf law")
        if self.table_skew_alpha is not None:  # None: uniform table traffic
            check_finite("WorkloadConfig", "table_skew_alpha", self.table_skew_alpha)

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


#: Samples per thread block in the EMB retrieval kernel's grid: FBGEMM's
#: (table, sample-chunk) tile, derived in :mod:`repro.core.calibration`,
#: which re-exports it.  It lives here because a drawn batch keeps its
#: lookup counts at this chunk.
EMB_SAMPLES_PER_BLOCK = 64

#: Byte budget of one int64 lengths block.  A batch holds its lengths as
#: ``(rows, B)`` blocks of at most this size as int64 (one row when a row
#: is larger), never as one ``(T, B)`` matrix: glibc's dynamic mmap
#: threshold keeps a freed matrix of many megabytes on the heap, and peak
#: RSS grows with it.  Blocks this small keep it flat while one numpy call
#: per block still serves many tables.  A drawn block is stored narrower
#: (:func:`_storage_dtype`) but keeps the int64 geometry, so its int64
#: draw is the one transient of that size.
_BLOCK_BYTES = 1 << 18

#: Stored types of drawn lengths, narrowest first; int64 past the last.
_NARROW_DTYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32))

#: ``block(rng, lo, hi)``: features ``[lo, hi)`` of a batch, drawn from ``rng``
BlockDraw = Callable[[np.random.Generator, int, int], np.ndarray]


def _block_rows(batch_size: int) -> int:
    """Features per block at ``batch_size`` samples per feature."""
    return max(1, _BLOCK_BYTES // max(8 * batch_size, 1))


def _storage_dtype(top: int) -> np.dtype:
    """The narrowest of uint8, uint16 and uint32 that holds every pooling
    factor up to ``top``, int64 beyond that: chosen from a generator's
    declared range, never from the values it draws."""
    for dtype in _NARROW_DTYPES:
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.dtype(np.int64)


def _batch_size(owner: str, batch_size, default: int) -> int:
    """A generator call's batch size: ``default`` for ``None``, else a
    checked int >= 1, so 0 is an error rather than the default."""
    if batch_size is None:
        return default
    return checked_count(owner, "batch_size", batch_size, 1)


class FeatureLayout:
    """Feature order of a family of batches: each feature's row.

    Every batch one generator draws, and every batch :meth:`LengthsBatch.take`
    cuts from them, shares one layout, so what depends only on the layout
    (a plan's per-device rows of the count matrix) is derived once for all.
    """

    __slots__ = ("names", "rows", "__weakref__")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.rows: Mapping[str, int] = MappingProxyType(
            {name: i for i, name in enumerate(self.names)}
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _spans(n_features: int, batch_size: int) -> Iterator[tuple]:
    """The ``(lo, hi)`` feature range of each block."""
    rows = _block_rows(batch_size)
    return ((lo, min(lo + rows, n_features)) for lo in range(0, n_features, rows))


def _fill_blocks(
    n_features: int, batch_size: int, block: Callable[[int, int], np.ndarray]
) -> List[np.ndarray]:
    """Read-only blocks ``block(lo, hi)`` covering ``n_features`` features."""
    return [_frozen(block(lo, hi)) for lo, hi in _spans(n_features, batch_size)]


class LengthsBatch(Mapping[str, np.ndarray]):
    """One batch's per-feature pooling factors, read-only.

    A drawn batch is its lookup counts: the ``(T, n_chunks)`` int64 matrix
    per :data:`EMB_SAMPLES_PER_BLOCK` samples, reduced block by block as
    it was drawn, and the generator's state at the start of the draw.  A
    per-sample read (mapping a feature, :meth:`take`, or
    :meth:`chunk_counts` at any other block size) first replays the draw
    once from that state into ``(rows, B)`` blocks, features in
    :attr:`layout` order, in the narrowest unsigned type the generator's
    range allows (uint8 for every paper preset), and keeps them.  A batch
    copied from a mapping or cut by :meth:`take` holds its blocks from the
    start, int64 for a copy and the source's type for a cut.

    Mapping a feature gives its ``(B,)`` int64 lengths, read-only: a row of
    an int64 block, or an int64 copy of a narrow block's row.  Hot paths
    read :meth:`chunk_counts` at :data:`EMB_SAMPLES_PER_BLOCK` instead.
    Nothing the batch hands out can change its values, which is what makes
    :meth:`chunk_counts` safe to memoize: every backend that runs the batch
    reads the counts the first one derived.

    Construction from any other mapping checks shapes and dtypes (1-D,
    integer, one batch size) and copies the values into the batch's own
    blocks; the first :meth:`chunk_counts` checks the values.
    """

    __slots__ = ("_kept", "_replay", "_drawn_counts", "_counts", "layout", "batch_size")

    def __init__(self, lengths_by_feature: Mapping[str, Sequence[int]]):
        names, arrays = [], []
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
            names.append(name)
            arrays.append(arr)
        sizes = {arr.shape[0] for arr in arrays}
        if len(sizes) > 1:
            raise ValueError(f"inconsistent batch sizes in lengths: {sorted(sizes)}")
        B = sizes.pop() if sizes else 0

        def copy(lo: int, hi: int) -> np.ndarray:
            block = np.empty((hi - lo, B), dtype=np.int64)
            for i, arr in enumerate(arrays[lo:hi]):
                block[i] = arr
                # A uint64 beyond int64 wraps negative in the copy.
                if arr.dtype.kind == "u" and B and block[i].min() < 0:
                    bad = int(np.flatnonzero(block[i] < 0)[0])
                    raise InvalidLengthsError(
                        f"feature {names[lo + i]!r}: pooling factor {int(arr[bad])} "
                        f"does not fit in int64"
                    )
            return block

        self._setup(FeatureLayout(names), _fill_blocks(len(names), B, copy), B)

    def _setup(
        self, layout: FeatureLayout, blocks: Optional[List[np.ndarray]], batch_size: int
    ) -> None:
        self.layout = layout
        #: the row blocks, or None until a drawn batch replays its draw
        self._kept = blocks
        #: (bit generator type, its state, block draw) of an unreplayed draw
        self._replay = None
        #: counts per EMB_SAMPLES_PER_BLOCK samples taken while drawing
        self._drawn_counts: Optional[np.ndarray] = None
        #: samples_per_block -> read-only (T, n_chunks) counts
        self._counts: Dict[int, np.ndarray] = {}
        #: samples per feature (0 for an empty batch)
        self.batch_size = batch_size

    @classmethod
    def drawn(
        cls,
        layout: FeatureLayout,
        batch_size: int,
        rng: np.random.Generator,
        block: BlockDraw,
    ) -> "LengthsBatch":
        """A batch of ``layout``'s features, ``batch_size`` samples each,
        drawn from ``rng`` block by block: ``block(rng, lo, hi)`` returns
        features ``[lo, hi)`` as a new ``(hi - lo, batch_size)`` array of
        non-negative integers, of any integer type, and must draw only from
        the ``rng`` it is given.

        Each block is reduced into the counts per
        :data:`EMB_SAMPLES_PER_BLOCK` samples, without checking, and
        dropped.  The batch keeps those counts and ``rng``'s state before
        the first block; its first per-sample read runs ``block`` again on
        a fresh generator in that state, which draws the same values, and
        keeps the blocks.  ``rng`` itself ends where the draw left it.
        """
        bit_generator = rng.bit_generator
        replay = (type(bit_generator), bit_generator.state, block)
        starts = np.arange(0, batch_size, EMB_SAMPLES_PER_BLOCK)
        counts = np.empty((len(layout.names), len(starts)), dtype=np.int64)
        for lo, hi in _spans(len(layout.names), batch_size):
            np.add.reduceat(block(rng, lo, hi), starts, axis=1, out=counts[lo:hi])
        batch = cls.__new__(cls)
        batch._setup(layout, None, batch_size)
        batch._replay = replay
        batch._drawn_counts = _frozen(counts)
        return batch

    @property
    def _blocks(self) -> List[np.ndarray]:
        """The row blocks; a drawn batch replays its draw on the first read."""
        if self._kept is None:
            kind, state, block = self._replay
            rng = np.random.Generator(kind(0))  # any seed: the state is overwritten
            rng.bit_generator.state = state
            self._kept = _fill_blocks(
                len(self), self.batch_size, lambda lo, hi: block(rng, lo, hi)
            )
            self._replay = None
        return self._kept

    def __getitem__(self, name: str) -> np.ndarray:
        row = self.layout.rows[name]
        blocks = self._blocks
        rows = blocks[0].shape[0]
        return _frozen(blocks[row // rows][row % rows].astype(np.int64, copy=False))

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)

    def __contains__(self, name: object) -> bool:
        return name in self.layout.rows

    def take(self, rows: Sequence[int]) -> "LengthsBatch":
        """The samples ``rows`` of every feature, in that order (a new batch).

        ``rows`` must be 1-D integer indices (negative ones count from the
        end); anything else raises before a block is read.  The new batch
        shares this one's layout, in blocks of this one's dtype sized for
        its own batch size; each is gathered with one ``take`` per source
        block it overlaps.  Its values are checked when its counts are
        derived.
        """
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"LengthsBatch.take: rows must be 1-D, got shape {rows.shape}")
        if not rows.size:
            rows = rows.astype(np.intp)  # [] is float64
        elif rows.dtype.kind not in "iu":
            raise TypeError(
                f"LengthsBatch.take: rows must be integer indices, got dtype {rows.dtype}"
            )
        B = self.batch_size
        if rows.size and not (-B <= rows.min() and rows.max() < B):
            raise IndexError(f"rows out of range for a batch of {B} samples")
        blocks = self._blocks
        src = blocks[0].shape[0] if blocks else 1

        def gather(lo: int, hi: int) -> np.ndarray:
            out = np.empty((hi - lo, len(rows)), dtype=blocks[0].dtype)
            for s in range(lo // src, (hi - 1) // src + 1):
                a, b = max(lo, s * src), min(hi, (s + 1) * src)
                # In range, so "wrap" only maps negative rows as indexing
                # does, and skips numpy's buffered bounds check.
                blocks[s][a - s * src : b - s * src].take(
                    rows, axis=1, out=out[a - lo : b - lo], mode="wrap"
                )
            return out

        batch = LengthsBatch.__new__(LengthsBatch)
        batch._setup(self.layout, _fill_blocks(len(self), len(rows), gather), len(rows))
        return batch

    def chunk_counts(self, samples_per_block: int) -> np.ndarray:
        """Lookup counts per ``samples_per_block`` samples: ``(T, n_chunks)``.

        Row *t* is feature *t* of :attr:`layout`.  A drawn batch's counts
        at :data:`EMB_SAMPLES_PER_BLOCK` are the ones taken while drawing.
        Any other count matrix is derived, and the lengths validated, on
        the first call per block size with one ``min`` and one ``reduceat``
        per block, which sums a narrow block in int64 because it writes
        into the int64 matrix; later calls return the same read-only
        matrix.  ``samples_per_block`` must be an int >= 1.
        """
        samples_per_block = checked_count(
            "LengthsBatch.chunk_counts", "samples_per_block", samples_per_block, 1
        )
        counts = self._counts.get(samples_per_block)
        if counts is None:
            if samples_per_block == EMB_SAMPLES_PER_BLOCK and self._drawn_counts is not None:
                counts = self._drawn_counts
            else:
                counts = self._reduced(samples_per_block)
            self._counts[samples_per_block] = counts
        return counts

    def _reduced(self, samples_per_block: int) -> np.ndarray:
        """The blocks' counts per ``samples_per_block`` samples, checked."""
        starts = np.arange(0, self.batch_size, samples_per_block)
        counts = np.empty((len(self), len(starts)), dtype=np.int64)
        lo = 0
        for block in self._blocks:
            hi = lo + block.shape[0]
            if block.size and block.min() < 0:
                bad = int(np.flatnonzero(block < 0)[0])
                raise InvalidLengthsError(
                    f"feature {self.layout.names[lo + bad // self.batch_size]!r}: "
                    f"negative pooling factor {int(block.flat[bad])}"
                )
            np.add.reduceat(block, starts, axis=1, out=counts[lo:hi])
            lo = hi
        return _frozen(counts)


def _skew_lengths(lengths: np.ndarray, scale) -> np.ndarray:
    """Scale a uniform per-sample length draw by its table's multiplier
    (a block of tables by a column of multipliers).

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
        self._layout = FeatureLayout(config.feature_names)

    def reset(self) -> None:
        """Restart the stream (same seed → same batches again)."""
        self._rng = np.random.default_rng(self.config.seed)

    # -- sparse -----------------------------------------------------------------

    def sparse_batch(self, batch_size: Optional[int] = None) -> SparseBatch:
        """One batch of jagged sparse inputs for every feature."""
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.sparse_batch", batch_size, cfg.batch_size)
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
        paper scale would be ~0.5 GB per batch.  Each block of features is
        one ``(rows, B)`` draw: numpy's bounded int64 draw takes the same
        words from the bit generator as ``rows`` draws of ``B``, so the
        values and the generator's state equal per-table draws exactly.

        The batch keeps only each table's counts per
        :data:`EMB_SAMPLES_PER_BLOCK` samples and this generator's state
        before the draw (see :meth:`LengthsBatch.drawn`).  A per-sample
        read replays the draw once into blocks of the narrowest unsigned
        type that holds the largest factor the config allows:
        ``max_pooling``, scaled by the largest table multiplier under table
        skew (``rint`` of a product with a positive scale is monotone, so
        no drawn value exceeds it).  ``batch_size=None`` draws the config's
        batch size.
        """
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.lengths_batch", batch_size, cfg.batch_size)
        lo_pool, hi_pool = cfg.min_pooling, cfg.max_pooling + 1
        scales = cfg.table_skew_scales()
        top = cfg.max_pooling if scales is None else int(np.rint(cfg.max_pooling * scales.max()))
        dtype = _storage_dtype(top)

        def draw(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
            block = rng.integers(lo_pool, hi_pool, size=(hi - lo, B), dtype=np.int64)
            if scales is not None:
                block = _skew_lengths(block, scales[lo:hi, None])
            return block.astype(dtype, copy=False)

        return LengthsBatch.drawn(self._layout, B, self._rng, draw)

    # -- dense ------------------------------------------------------------------

    def dense_batch(self, batch_size: Optional[int] = None) -> np.ndarray:
        """One batch of continuous features, ``(B, num_dense_features)``."""
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.dense_batch", batch_size, cfg.batch_size)
        return self._rng.uniform(0.0, 1.0, size=(B, cfg.num_dense_features)).astype(
            np.float32
        )

    # -- streams ----------------------------------------------------------------

    def batches(self, n: int, batch_size: Optional[int] = None) -> Iterator[tuple]:
        """``n`` (dense, sparse) batch pairs — the 100-batch loop; ``n``
        must be an int >= 0, checked on the call."""
        n = checked_count("SyntheticDataGenerator.batches", "n", n, 0)
        return ((self.dense_batch(batch_size), self.sparse_batch(batch_size)) for _ in range(n))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        c = self.config
        return (
            f"<SyntheticDataGenerator T={c.num_tables} B={c.batch_size} "
            f"pool[{c.min_pooling},{c.max_pooling}] {c.index_distribution}>"
        )
