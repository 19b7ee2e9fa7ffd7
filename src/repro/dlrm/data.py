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

Timing-only runs draw just the lookup counts, as a :class:`LengthsBatch`
that holds only the per-chunk lookup counts of every table (the only
per-batch input to the simulated EMB kernel).  A chunk's count is the sum
of :data:`EMB_SAMPLES_PER_BLOCK` iid uniform pooling factors, so
``lengths_batch`` draws it from that sum's exact law: one uniform double
per (table, chunk), inverted through the law's CDF, which is built once per
pooling range and chunk size.  What is preserved is the marginal law of
each chunk count, not the per-sample draws: a per-sample read of such a
batch raises :class:`CountsOnlyError`.  A table skew, or a range too wide
for its law to be cheap, draws every sample and reduces instead.

``sample_lengths`` draws the per-sample pooling factors, held in a few
frozen row blocks, each in the narrowest unsigned type the generator's
pooling range allows.  Counts are memoized on the batch and shared by every
backend that runs it.  Deriving them from blocks also validates the
lengths, once per batch: a negative, fractional or NaN pooling factor
raises :class:`InvalidLengthsError`.

When every table's declared pooling range is one value (fixed pooling, as
production inference runs), ``sample_lengths`` returns the batch's fixed
form instead: one pooling factor per feature and the batch size, no sample
arrays.  Such a draw takes nothing from the generator.  Its counts are the
factors times the chunk sizes, and :meth:`LengthsBatch.take` hands out one
fixed sub-batch per size, so what is derived from a sub-batch is derived
once per size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Literal,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

import numpy as np

from ..checks import check_finite, checked_count
from .batch import JaggedField, SparseBatch
from .embedding import EmbeddingTableConfig

__all__ = [
    "WorkloadConfig",
    "SyntheticDataGenerator",
    "LengthsBatch",
    "InvalidLengthsError",
    "CountsOnlyError",
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
    seed: int = 2024
    num_dense_features: int = 13  #: Criteo-like dense width for the full model

    def __post_init__(self) -> None:
        for name, minimum in _COUNT_FIELDS:
            value = checked_count("WorkloadConfig", name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
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
        check_finite("WorkloadConfig", "zipf_alpha", self.zipf_alpha)
        if self.index_distribution == "zipf" and self.zipf_alpha <= 1.0:
            raise ValueError("WorkloadConfig.zipf_alpha must be > 1 for a proper Zipf law")
        if self.table_skew_alpha is not None:  # None: uniform table traffic
            check_finite("WorkloadConfig", "table_skew_alpha", self.table_skew_alpha)

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
            EmbeddingTableConfig(name=name, num_rows=self.rows_per_table, dim=self.dim)
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


class CountsOnlyError(TypeError):
    """A per-sample read of a batch that holds only its lookup counts."""


#: Samples per thread block in the EMB retrieval kernel's grid: FBGEMM's
#: (table, sample-chunk) tile, derived in :mod:`repro.core.calibration`,
#: which re-exports it.  It lives here because a drawn batch is its lookup
#: counts at this chunk.
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

#: Byte budget of one ``(rows, n_chunks)`` block of the uniform doubles a
#: counts draw inverts (one row when a row is larger).  One ``(T, n_chunks)``
#: draw raised the paper workload's peak RSS by 9 %; ``random`` takes one
#: 64-bit word per double, so blocking changes no value.
_UNIFORM_BYTES = 1 << 16

#: Largest span of a chunk count's law: a table draws its counts from the
#: law when ``EMB_SAMPLES_PER_BLOCK * (hi - lo)`` is at most this, i.e.
#: ``hi - lo <= 2048`` (a law of at most 2**17 + 1 values, built in about
#: 60 ms).  A wider range draws every sample instead.
_LAW_SPAN = 1 << 17

#: Stored types of drawn lengths, narrowest first; int64 past the last.
_NARROW_DTYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32))

#: ``block(rng, lo, hi)``: features ``[lo, hi)`` of a batch, drawn from ``rng``
BlockDraw = Callable[[np.random.Generator, int, int], np.ndarray]

_T = TypeVar("_T")


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


# -- the law of a chunk's lookup count ---------------------------------------------


def _sum_pmf(span: int, n: int) -> np.ndarray:
    """The pmf of the sum of ``n`` iid draws uniform on ``0..span``.

    ``n`` moving-window passes ``p <- (C[s] - C[s - w]) / w``, with
    ``C = cumsum(p)`` and ``w = span + 1``.  They use sequential,
    elementwise IEEE arithmetic only (no BLAS dot product as in
    ``np.convolve``, no FFT), so the values are the same on every numpy.
    Cancellation in the upper tail can leave entries a few ulps below
    zero; they are clipped.
    """
    w = span + 1
    p = np.zeros(n * span + 1)
    p[0] = 1.0
    c = np.empty_like(p)
    m = 1  # entries of p in use
    for _ in range(n):
        np.cumsum(p[:m], out=c[:m])
        c[m : m + span] = c[m - 1]  # C past the last entry stays at the total
        m += span
        p[:w] = c[:w]
        np.subtract(c[w:m], c[: m - w], out=p[w:m])
        p[:m] /= w
    return np.maximum(p, 0.0, out=p)


class _ChunkLaw:
    """The law of a chunk's lookup count past its least value: the CDF
    over ``0..n*span`` and a guide table that inverts it.

    ``invert(u)`` is ``np.searchsorted(cdf, u, side="right")``.  The guide
    splits ``[0, 1)`` into ``K`` equal buckets, ``K`` a power of two no
    smaller than the law's size (so ``u * K`` and ``k / K`` are exact), and
    holds the answer at each bucket's left edge.  A draw starts there and
    takes at most two ``cdf[j] <= u`` steps; a draw whose bucket spans more
    than two values (under 1 %, in the tails) falls back to a search.
    """

    __slots__ = ("cdf", "buckets", "guide", "wide")

    def __init__(self, span: int, n: int):
        cdf = np.cumsum(_sum_pmf(span, n))
        cdf /= cdf[-1]
        # Shared by every caller through the cache, so read-only.
        self.cdf = _frozen(cdf)
        self.buckets = 1 << (len(cdf) - 1).bit_length()
        edges = np.arange(self.buckets + 1, dtype=np.float64) / self.buckets
        self.guide = _frozen(np.searchsorted(cdf, edges, side="right"))
        #: buckets in which u can map to more than two values
        self.wide = _frozen(np.diff(self.guide) > 2)

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The offset each uniform ``u`` in ``[0, 1)`` draws (any shape)."""
        k = (u * self.buckets).astype(np.intp)
        cdf = self.cdf
        j = self.guide[k]
        j += cdf[j] <= u
        j += cdf[j] <= u
        wide = self.wide[k]
        if wide.any():
            j[wide] = np.searchsorted(cdf, u[wide], side="right")
        return j


@lru_cache(maxsize=32)
def _chunk_law(span: int, n: int) -> _ChunkLaw:
    """The law of the sum of ``n`` draws uniform on ``0..span``, built once
    per process (about 3 ms at the weak preset's span 128, n = 64)."""
    return _ChunkLaw(span, n)


def _law_counts(
    rng: np.random.Generator, lows: np.ndarray, spans: np.ndarray, batch_size: int
) -> np.ndarray:
    """``(T, n_chunks)`` lookup counts of tables whose pooling factors are
    uniform on ``lows[t]..lows[t] + spans[t]``, each chunk's count drawn
    from the law of its samples' sum (the last chunk's for its own size).

    Every table with a nonzero span takes one uniform double per chunk
    from ``rng``, in table order, in row blocks of at most
    :data:`_UNIFORM_BYTES`; a point mass is ``n * lo`` and draws nothing,
    as ``rng.integers`` draws nothing for a one-value range.
    """
    spb = EMB_SAMPLES_PER_BLOCK
    n_chunks = -(-batch_size // spb)
    tail = batch_size - (n_chunks - 1) * spb
    full = n_chunks if tail == spb else n_chunks - 1
    counts = np.empty((len(lows), n_chunks), dtype=np.int64)
    counts[:, :full] = (lows * spb)[:, None]
    counts[:, full:] = (lows * tail)[:, None]
    drawn = np.flatnonzero(spans)
    rows = max(1, _UNIFORM_BYTES // (8 * n_chunks))
    for a in range(0, len(drawn), rows):
        tables = drawn[a : a + rows]
        u = rng.random((len(tables), n_chunks))
        block_spans = spans[tables]
        for span in sorted(set(block_spans.tolist())):  # one for a uniform generator
            mine = block_spans == span
            sel, us = (tables, u) if mine.all() else (tables[mine], u[mine])
            counts[sel, :full] += _chunk_law(span, spb).invert(us[:, :full])
            if full < n_chunks:
                counts[sel, full] += _chunk_law(span, tail).invert(us[:, full])
    return counts


def _block_counts(
    n_features: int, batch_size: int, rng: np.random.Generator, block: BlockDraw
) -> np.ndarray:
    """``(T, n_chunks)`` lookup counts of per-sample block draws, each block
    reduced as it is drawn and dropped, unchecked."""
    starts = np.arange(0, batch_size, EMB_SAMPLES_PER_BLOCK)
    counts = np.empty((n_features, len(starts)), dtype=np.int64)
    for lo, hi in _spans(n_features, batch_size):
        np.add.reduceat(block(rng, lo, hi), starts, axis=1, out=counts[lo:hi])
    return counts


def _counts_batch(
    layout: FeatureLayout,
    batch_size: int,
    rng: np.random.Generator,
    ranges: Optional[tuple],
    block: BlockDraw,
) -> "LengthsBatch":
    """A generator's counts-only batch.  ``ranges`` is the ``(lows, spans)``
    of every table's uniform pooling factors, or ``None`` when they are not
    plain uniform ranges (table skew).  When every span qualifies (see
    :data:`_LAW_SPAN`) the counts come from their law, otherwise from
    ``block`` draws of every sample, reduced."""
    if ranges is not None and EMB_SAMPLES_PER_BLOCK * int(ranges[1].max()) <= _LAW_SPAN:
        counts = _law_counts(rng, *ranges, batch_size)
    else:
        counts = _block_counts(len(layout.names), batch_size, rng, block)
    return LengthsBatch.counted(layout, batch_size, counts)


class LengthsBatch(Mapping[str, np.ndarray]):
    """One batch's per-feature pooling factors, read-only.

    A batch from a generator's ``lengths_batch`` is counts only: the
    ``(T, n_chunks)`` int64 matrix per :data:`EMB_SAMPLES_PER_BLOCK`
    samples, row = feature in :attr:`layout` order.  Its per-sample
    reads (mapping a feature, iterating values, :meth:`take`, or
    :meth:`chunk_counts` at any other block size) raise
    :class:`CountsOnlyError`.  A fixed batch (:meth:`fixed`, what
    ``sample_lengths`` draws under fixed pooling) holds one pooling factor
    per feature and reads as constant rows.  Any other
    batch holds ``(rows, B)`` row blocks: a generator's ``sample_lengths``
    in the narrowest unsigned type the generator's range allows (uint8 for
    every paper preset), a copy of a mapping in int64, and a cut by
    :meth:`take` in the source's type.

    Mapping a feature gives its ``(B,)`` int64 lengths, read-only: a row of
    an int64 block, an int64 copy of a narrow block's row, or a fixed
    batch's ``np.full`` row.  Hot paths read :meth:`chunk_counts` at
    :data:`EMB_SAMPLES_PER_BLOCK` instead.  Nothing the batch hands out can
    change its values, which is what makes :meth:`chunk_counts` safe to
    memoize: every backend that runs the batch reads the counts the first
    one derived.

    Construction from any other mapping checks shapes and dtypes (1-D,
    integer, one batch size) and copies the values into the batch's own
    blocks; the first :meth:`chunk_counts` checks the values.
    """

    __slots__ = (
        "_kept", "_counts", "_pooling", "_derived", "layout", "batch_size", "__weakref__",
    )

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
        #: the row blocks, or None for a counts-only or fixed batch
        self._kept = blocks
        #: samples_per_block -> read-only (T, n_chunks) counts
        self._counts: Dict[int, np.ndarray] = {}
        #: a fixed batch's read-only (T,) int64 pooling factors, else None
        self._pooling: Optional[np.ndarray] = None
        #: what was derived from a fixed batch, by key (see memoized)
        self._derived: Dict[Hashable, object] = {}
        #: samples per feature (0 for an empty batch)
        self.batch_size = batch_size

    @classmethod
    def counted(
        cls, layout: FeatureLayout, batch_size: int, counts: np.ndarray
    ) -> "LengthsBatch":
        """A counts-only batch of ``layout``'s features, ``batch_size``
        samples each: ``counts`` is its ``(T, n_chunks)`` int64 matrix per
        :data:`EMB_SAMPLES_PER_BLOCK` samples, kept unchecked."""
        batch = cls.__new__(cls)
        batch._setup(layout, None, batch_size)
        batch._counts[EMB_SAMPLES_PER_BLOCK] = _frozen(counts)
        return batch

    @classmethod
    def drawn(
        cls,
        layout: FeatureLayout,
        batch_size: int,
        rng: np.random.Generator,
        block: BlockDraw,
    ) -> "LengthsBatch":
        """A batch of ``layout``'s features, ``batch_size`` samples each,
        drawn from ``rng`` block by block and kept: ``block(rng, lo, hi)``
        returns features ``[lo, hi)`` as a new ``(hi - lo, batch_size)``
        array of non-negative integers, of any integer type."""
        blocks = _fill_blocks(len(layout.names), batch_size, lambda lo, hi: block(rng, lo, hi))
        batch = cls.__new__(cls)
        batch._setup(layout, blocks, batch_size)
        return batch

    @classmethod
    def fixed(
        cls, layout: FeatureLayout, batch_size: int, pooling: np.ndarray
    ) -> "LengthsBatch":
        """A batch of ``layout``'s features, ``batch_size`` samples each, in
        which feature *t* looks up ``pooling[t]`` rows in every sample.

        ``pooling`` is a ``(T,)`` vector of non-negative integers, kept as
        read-only int64 (shared, not copied, when it already is).  The
        batch holds no sample arrays: its counts are the factors times the
        chunk sizes, and a per-sample read builds a constant row.
        """
        batch = cls.__new__(cls)
        batch._setup(layout, None, batch_size)
        pooling = np.asarray(pooling, dtype=np.int64)
        batch._pooling = pooling if not pooling.flags.writeable else _frozen(pooling.copy())
        return batch

    def memoized(self, key: Hashable, derive: Callable[[], _T]) -> _T:
        """``derive()``, kept on a fixed batch under ``key`` and returned by
        every later call with that key; any other batch derives it on
        every call.  A fixed sub-batch lives as long as the batch it was
        cut from (see :meth:`take`), so what is kept on it is derived once
        per batch size, and dies with that batch."""
        if self._pooling is None:
            return derive()
        out = self._derived.get(key)
        if out is None:
            out = self._derived[key] = derive()
        return out

    @property
    def _blocks(self) -> List[np.ndarray]:
        """The row blocks; a counts-only batch has none."""
        if self._kept is None:
            raise CountsOnlyError(
                f"this batch holds only its lookup counts per {EMB_SAMPLES_PER_BLOCK} "
                f"samples (a generator's lengths_batch); draw per-sample pooling "
                f"factors with the generator's sample_lengths() instead"
            )
        return self._kept

    def __getitem__(self, name: str) -> np.ndarray:
        row = self.layout.rows[name]
        if self._pooling is not None:
            return _frozen(np.full(self.batch_size, self._pooling[row], dtype=np.int64))
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
        derived.  A fixed batch's cut is the fixed batch of ``len(rows)``
        samples, made once per size and kept on this batch.
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
        if self._pooling is not None:
            n = len(rows)
            return self.memoized(
                ("take", n), lambda: LengthsBatch.fixed(self.layout, n, self._pooling)
            )
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

        Row *t* is feature *t* of :attr:`layout`.  A counts-only batch has
        its counts at :data:`EMB_SAMPLES_PER_BLOCK` only.  A batch with
        blocks derives a count matrix, and validates the lengths, on the
        first call per block size with one ``min`` and one ``reduceat`` per
        block, which sums a narrow block in int64 because it writes into
        the int64 matrix; a fixed batch multiplies its factors by the chunk
        sizes, which equals reducing its constant rows.  Later calls return
        the same read-only matrix.  ``samples_per_block`` must be an int
        >= 1.
        """
        samples_per_block = checked_count(
            "LengthsBatch.chunk_counts", "samples_per_block", samples_per_block, 1
        )
        counts = self._counts.get(samples_per_block)
        if counts is None:
            counts = self._counts[samples_per_block] = self._reduced(samples_per_block)
        return counts

    def _reduced(self, samples_per_block: int) -> np.ndarray:
        """The blocks' counts per ``samples_per_block`` samples, checked; a
        fixed batch's are its factors times the chunk sizes."""
        starts = np.arange(0, self.batch_size, samples_per_block)
        if self._pooling is not None:
            sizes = np.minimum(self.batch_size - starts, samples_per_block)
            return _frozen(np.multiply.outer(self._pooling, sizes))
        blocks = self._blocks
        counts = np.empty((len(self), len(starts)), dtype=np.int64)
        lo = 0
        for block in blocks:
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

    # -- sparse -----------------------------------------------------------------

    def sparse_batch(self, batch_size: Optional[int] = None) -> SparseBatch:
        """One batch of jagged sparse inputs for every feature."""
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.sparse_batch", batch_size, cfg.batch_size)
        cardinality = cfg.rows_per_table
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
        """Lookup counts only: a counts-only :class:`LengthsBatch`.

        Timing-only runs need just each table's lookup count per
        :data:`EMB_SAMPLES_PER_BLOCK` samples, not the indices or even the
        per-sample pooling factors.  Each chunk's count is drawn from the
        exact law of the sum of its samples' uniform pooling factors, the
        law :meth:`sample_lengths` gives it: one uniform double per (table,
        chunk) from this generator, inverted through the law's CDF (see
        :func:`_law_counts`).  Chunks are disjoint sets of iid samples, so
        the count matrix has the law a per-sample draw gives it; what is
        preserved is that law, not the values a per-sample draw from this
        generator would reduce to.  A pooling range wider than
        :data:`_LAW_SPAN` allows, or a table skew, draws every sample as
        :meth:`sample_lengths` does and reduces each block as it is drawn.
        Any per-sample read of the batch raises :class:`CountsOnlyError`.
        ``batch_size=None`` draws the config's batch size.
        """
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.lengths_batch", batch_size, cfg.batch_size)
        ranges = None
        if cfg.table_skew_alpha is None:
            ranges = (
                np.full(cfg.num_tables, cfg.min_pooling, dtype=np.int64),
                np.full(cfg.num_tables, cfg.max_pooling - cfg.min_pooling, dtype=np.int64),
            )
        return _counts_batch(self._layout, B, self._rng, ranges, self._block_draw(B))

    def sample_lengths(self, batch_size: Optional[int] = None) -> LengthsBatch:
        """Per-sample pooling factors: ``{feature: (B,) lengths}``, read-only.

        Draws pooling factors from the law :meth:`sparse_batch` draws them
        from, without materialising the index arrays, which at paper scale
        would be ~0.5 GB per batch.  Each block of
        features is one ``(rows, B)`` draw: numpy's bounded int64 draw
        takes the same words from the bit generator as ``rows`` draws of
        ``B``, so the values and the generator's state equal per-table
        draws exactly.  The blocks are stored in the narrowest unsigned
        type that holds the largest factor the config allows:
        ``max_pooling``, scaled by the largest table multiplier under table
        skew (``rint`` of a product with a positive scale is monotone, so
        no drawn value exceeds it).  When ``min_pooling == max_pooling``
        every sample of a table has one factor, the draw takes nothing from
        the generator, and the batch is :meth:`LengthsBatch.fixed`: chosen
        from the declared range, never from drawn values.
        ``batch_size=None`` draws the config's batch size.
        """
        cfg = self.config
        B = _batch_size("SyntheticDataGenerator.sample_lengths", batch_size, cfg.batch_size)
        if cfg.min_pooling == cfg.max_pooling:
            pooling = np.full(cfg.num_tables, cfg.max_pooling, dtype=np.int64)
            scales = cfg.table_skew_scales()
            if scales is not None:
                pooling = _skew_lengths(pooling, scales)
            return LengthsBatch.fixed(self._layout, B, pooling)
        return LengthsBatch.drawn(self._layout, B, self._rng, self._block_draw(B))

    def _block_draw(self, batch_size: int) -> BlockDraw:
        """The per-sample draw of a block of features at ``batch_size``."""
        cfg = self.config
        lo_pool, hi_pool = cfg.min_pooling, cfg.max_pooling + 1
        scales = cfg.table_skew_scales()
        top = cfg.max_pooling if scales is None else int(np.rint(cfg.max_pooling * scales.max()))
        dtype = _storage_dtype(top)

        def draw(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
            block = rng.integers(lo_pool, hi_pool, size=(hi - lo, batch_size), dtype=np.int64)
            if scales is not None:
                block = _skew_lengths(block, scales[lo:hi, None])
            return block.astype(dtype, copy=False)

        return draw

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
