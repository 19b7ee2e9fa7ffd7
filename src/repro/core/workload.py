"""Derived per-device EMB kernel workloads and communication volumes.

Bridges the functional world (jagged batches, sharding plans) and the
simulator world (kernel specs, byte matrices).  Both retrieval backends
consume a :class:`DeviceWorkload` per device:

* the **baseline** uses its :meth:`DeviceWorkload.kernel_spec` plus the
  all-to-all :func:`alltoall_split_bytes` matrix and
  :meth:`DeviceWorkload.unpack_bytes`;
* the **PGAS fused** backend additionally needs *where each thread block's
  outputs go* — :attr:`DeviceWorkload.block_dst_bytes` — so each retiring
  wave can inject exactly its remote bytes toward each destination.

Row-wise sharding (§V) builds the same type (:func:`build_rowwise_workloads`):
the table-wise grid with every table on every device, whose partial pools
go to every sample owner.  It differs from table-wise only in two costs it
carries as data, the kernel's reads and the baseline's post-exchange pass,
so both backends run it unchanged.

Timing never needs the index values themselves, only the jagged *lengths*
(pooling factors): byte counts are fully determined by them.  That is what
lets the benchmarks run the paper-scale configuration (17 GB of simulated
reads per GPU per batch) without allocating any of it.

Each build derives only what changes per batch.  Chunk lookup counts come
from the batch's :class:`~repro.dlrm.data.LengthsBatch` as one matrix,
memoized, so backends running the same batch derive them once; each
device's rows of it are indexed once per plan and batch layout.  The
destination tile and its reductions depend only on the batch *shape*, so a
small module cache (:func:`_dst_tile`) builds each shape once and hands the
same read-only arrays to every device and every batch of that shape.  A
fixed batch (fixed pooling: its counts follow from its size) keeps its
built workloads per plan and block size, so serving, which cuts one fixed
sub-batch per size from its request pool, builds each size once.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..dlrm.batch import SparseBatch
from ..dlrm.data import FeatureLayout, LengthsBatch
from ..dlrm.embedding import EmbeddingTableConfig
from ..simgpu.kernel import KernelSpec
from .calibration import (
    EMB_MIN_WAVES_FOR_PEAK,
    EMB_SAMPLES_PER_BLOCK,
    INDEX_BYTES,
    OFFSET_BYTES,
)
from .sharding import (
    RowWiseSharding,
    ShardingPlan,
    TableWiseSharding,
    sample_owner,
)

__all__ = [
    "DeviceWorkload",
    "build_device_workloads",
    "build_rowwise_workloads",
    "lengths_from_batch",
    "alltoall_split_bytes",
    "rehome_workloads",
    "table_segments",
    "unpack_bytes_received",
]


def lengths_from_batch(batch: SparseBatch) -> Dict[str, np.ndarray]:
    """Per-feature pooling-factor arrays of a functional batch."""
    return {name: field.lengths for name, field in batch}


def _wave_sums(block_dst_bytes: np.ndarray, concurrent_blocks: int) -> np.ndarray:
    """Per-wave sums of a ``(num_blocks, G)`` matrix, ``(n_waves, G)``.

    Wave *w* is blocks ``[w*C, (w+1)*C)``.  Full waves are one
    ``(waves, C, G)`` reshape summed over blocks, the ragged last wave one
    more row sum: the same row-by-row additions as a per-wave loop, so the
    result is bit-identical to it for any values (``np.add.reduceat`` would
    sum pairwise, and is several times slower along this strided axis).
    """
    if concurrent_blocks <= 0:
        raise ValueError("concurrent_blocks must be positive")
    (n, G), C = block_dst_bytes.shape, concurrent_blocks
    if n == 0:
        return np.zeros((0, G), dtype=np.float64)
    full = n // C
    out = np.empty((math.ceil(n / C), G), dtype=np.float64)
    out[:full] = block_dst_bytes[: full * C].reshape(full, C, G).sum(axis=1)
    if full < len(out):
        out[full] = block_dst_bytes[full * C : n].sum(axis=0)
    return out


class DstTile:
    """One batch shape's destination bytes and their reductions, read-only.

    ``block_dst_bytes`` is the chunk→device byte matrix tiled once per
    local table; ``by_dst`` its per-destination totals; :meth:`waves` its
    per-wave sums, reduced once per concurrency and then shared.
    """

    __slots__ = ("block_dst_bytes", "by_dst", "_waves")

    def __init__(self, block_dst_bytes: np.ndarray):
        block_dst_bytes.flags.writeable = False
        by_dst = block_dst_bytes.sum(axis=0)
        by_dst.flags.writeable = False
        self.block_dst_bytes = block_dst_bytes
        self.by_dst = by_dst
        self._waves: Dict[int, np.ndarray] = {}

    def waves(self, concurrent_blocks: int) -> np.ndarray:
        """Per-wave destination bytes at ``concurrent_blocks`` (read-only)."""
        out = self._waves.get(concurrent_blocks)
        if out is None:
            out = _wave_sums(self.block_dst_bytes, concurrent_blocks)
            out.flags.writeable = False
            self._waves[concurrent_blocks] = out
        return out


@lru_cache(maxsize=16)
def _dst_tile(
    batch_size: int, n_devices: int, samples_per_block: int, n_tables: int, row_bytes: int
) -> DstTile:
    """The destination tile of one batch shape, built once per shape.

    Bounded: a serving run cuts sub-batches of many sizes, and a tile is
    ``n_tables * n_chunks * G`` floats.
    """
    n_chunks = math.ceil(batch_size / samples_per_block)
    # chunk_dst_counts[c, g] = samples of chunk c owned by device g.
    chunk_dst_counts = np.zeros((n_chunks, n_devices), dtype=np.int64)
    chunk_ids = np.arange(batch_size) // samples_per_block
    np.add.at(chunk_dst_counts, (chunk_ids, sample_owner(batch_size, n_devices)), 1)
    return DstTile(np.tile(chunk_dst_counts * float(row_bytes), (n_tables, 1)))


@dataclass(frozen=True, eq=False)
class DeviceWorkload:
    """One device's share of an EMB forward pass, in byte terms.

    Frozen because the per-destination totals are derived once at
    construction: a workload with different bytes is a new instance
    (``dataclasses.replace``), never an in-place edit, so the cached
    totals cannot go stale.  ``tile`` (init-only) hands in totals and
    per-wave sums already reduced for ``block_dst_bytes``;
    ``dataclasses.replace`` drops it, so a replaced workload reduces its
    own bytes again.  Equality and hashing are by identity (its array
    fields have no truth value), so a workload can key what is derived
    from it, such as the PGAS kernel's launch plan.

    Attributes
    ----------
    device_id:
        The owning device.
    batch_size:
        Full (global) batch size B — model parallelism means every device
        processes the *full batch* of its local features.
    row_bytes:
        Bytes of one embedding vector (d × itemsize).
    num_local_tables:
        Tables resident on this device.
    nnz:
        Total lookups this device performs.
    num_blocks / samples_per_block:
        Grid geometry of the retrieval kernel.
    block_weights:
        Per-block lookup counts (jagged work distribution across the grid);
        ``None`` costs every block the same.
    block_dst_bytes:
        ``(num_blocks, n_devices)`` — output bytes each block produces for
        each destination device's mini-batch.  Row sums are the block's
        total output; the off-diagonal (≠ ``device_id``) columns are what
        the PGAS kernel sends as one-sided writes.
    """

    device_id: int
    n_devices: int
    batch_size: int
    row_bytes: int
    num_local_tables: int
    nnz: int
    num_blocks: int
    samples_per_block: int
    block_weights: Optional[np.ndarray]
    block_dst_bytes: np.ndarray
    tile: InitVar[Optional[DstTile]] = None

    def __post_init__(self, tile: Optional[DstTile]) -> None:
        # Read O(G²) times per batch (all-to-all splits, unpack sizes, the
        # PGAS drag model), so reduce the (num_blocks, G) matrix only once.
        if tile is None:
            by_dst = self.block_dst_bytes.sum(axis=0)
            by_dst.flags.writeable = False
        elif tile.block_dst_bytes is not self.block_dst_bytes:
            raise ValueError("tile must reduce this workload's own block_dst_bytes")
        else:
            by_dst = tile.by_dst
        object.__setattr__(self, "_output_bytes_by_dst", by_dst)
        object.__setattr__(self, "_tile", tile)

    # -- totals ------------------------------------------------------------------

    @property
    def bytes_read(self) -> float:
        """Kernel DRAM reads: embedding rows + indices + offsets."""
        return (
            float(self.nnz) * self.row_bytes
            + float(self.nnz) * INDEX_BYTES
            + float(self.batch_size * self.num_local_tables + 1) * OFFSET_BYTES
        )

    @property
    def bytes_written(self) -> float:
        """Kernel output writes: one pooled vector per (table, sample)."""
        return float(self.batch_size * self.num_local_tables) * self.row_bytes

    @property
    def flops(self) -> float:
        """Pooling additions (negligible next to the gather, as measured)."""
        dim = self.row_bytes / 4.0
        return float(self.nnz) * dim

    @property
    def output_bytes_by_dst(self) -> np.ndarray:
        """Total output bytes destined to each device, ``(n_devices,)``.

        Computed once per instance; the returned vector is read-only.
        """
        return self._output_bytes_by_dst

    @property
    def remote_output_bytes(self) -> float:
        """Output bytes leaving this device (the paper's comm volume)."""
        out = self.output_bytes_by_dst
        return float(out.sum() - out[self.device_id])

    def unpack_bytes(self, workloads: Sequence["DeviceWorkload"]) -> float:
        """Bytes the baseline's post-exchange pass touches on this device.

        The unpack reads each block received from ``workloads`` once and
        writes it once to its final slot in the ``(B_g, F, d)`` tensor.
        """
        return 2.0 * unpack_bytes_received(workloads, self.device_id)

    def kernel_spec(self, name: str = "emb_forward", stretch_ns: float = 0.0) -> KernelSpec:
        """Simulator kernel launch for this device's retrieval pass, its
        body stretched by ``stretch_ns`` (the PGAS remote-write drag)."""
        return KernelSpec(
            name=f"{name}.dev{self.device_id}",
            num_blocks=self.num_blocks,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            flops=self.flops,
            block_weights=self.block_weights,
            stretch_ns=stretch_ns,
            min_waves_for_peak=EMB_MIN_WAVES_FOR_PEAK,
        )

    def wave_dst_bytes(self, concurrent_blocks: int) -> np.ndarray:
        """Per-wave destination byte matrix, ``(n_waves, n_devices)``.

        Wave *w* executes blocks ``[w*C, (w+1)*C)``; summing their
        ``block_dst_bytes`` rows gives the bytes that become sendable when
        that wave retires.  A built workload reads its shape's shared,
        read-only sums; any other workload reduces its own bytes.
        """
        if self._tile is not None:
            return self._tile.waves(concurrent_blocks)
        return _wave_sums(self.block_dst_bytes, concurrent_blocks)


@dataclass(frozen=True, eq=False)
class _RowWiseWorkload(DeviceWorkload):
    """One device's share of a row-wise forward: partial pools of all tables.

    The kernel gathers only the rows in this device's slices (``nnz``) but
    scans every index of the batch (``nnz_scanned``) to test ownership, and
    reads no offsets.  The baseline's post-exchange pass reduces G partials
    into one sum instead of rearranging received blocks.
    """

    nnz_scanned: int = 0

    @property
    def bytes_read(self) -> float:
        """Local row gathers + the full index scan."""
        return float(self.nnz) * self.row_bytes + float(self.nnz_scanned) * INDEX_BYTES

    def unpack_bytes(self, workloads: Sequence[DeviceWorkload]) -> float:
        """G partial reads plus one write of their sum, per output byte."""
        own = float(self.output_bytes_by_dst[self.device_id])
        return own * self.n_devices + own


def _checked_lengths(
    plan: ShardingPlan, lengths_by_feature: Mapping[str, np.ndarray], samples_per_block: int
) -> LengthsBatch:
    """``lengths_by_feature`` as a :class:`LengthsBatch` (a copy of any
    other mapping); a missing plan table raises ``KeyError``."""
    if not isinstance(lengths_by_feature, LengthsBatch):
        missing = [t.name for t in plan.table_configs if t.name not in lengths_by_feature]
        if missing:
            raise KeyError(f"no lengths for features: {missing}")
        lengths_by_feature = LengthsBatch(lengths_by_feature)
    if samples_per_block <= 0:
        raise ValueError("samples_per_block must be positive")
    return lengths_by_feature


#: plan -> layout -> count-matrix rows; entries die with their plan or layout
_ROWS: "WeakKeyDictionary[ShardingPlan, WeakKeyDictionary]" = WeakKeyDictionary()
#: plan -> each device's row bytes
_ROW_BYTES: "WeakKeyDictionary[ShardingPlan, tuple]" = WeakKeyDictionary()


def _count_rows(
    plan: ShardingPlan, layout: FeatureLayout
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Rows of a ``layout`` count matrix: the plan's tables', and each
    device's tables'; derived once per plan and batch layout."""
    by_layout = _ROWS.get(plan)
    if by_layout is None:
        by_layout = _ROWS[plan] = WeakKeyDictionary()
    out = by_layout.get(layout)
    if out is None:
        rows = layout.rows
        missing = [t.name for t in plan.table_configs if t.name not in rows]
        if missing:
            raise KeyError(f"no lengths for features: {missing}")

        def of(tables: Sequence[EmbeddingTableConfig]) -> np.ndarray:
            return np.array([rows[t.name] for t in tables], dtype=np.intp)

        out = by_layout[layout] = (
            of(plan.table_configs),
            [of(plan.tables_on(d)) for d in range(plan.n_devices)],
        )
    return out


def _device_row_bytes(plan: TableWiseSharding) -> tuple:
    """Each device's embedding row bytes, once per plan: the first table's
    for a device with none, ``None`` for one mixing row sizes."""
    out = _ROW_BYTES.get(plan)
    if out is None:
        sizes = [
            {t.row_bytes for t in plan.tables_on(d)} or {plan.table_configs[0].row_bytes}
            for d in range(plan.n_devices)
        ]
        out = _ROW_BYTES[plan] = tuple(s.pop() if len(s) == 1 else None for s in sizes)
    return out


def build_device_workloads(
    plan: TableWiseSharding,
    lengths_by_feature: Mapping[str, np.ndarray],
    *,
    samples_per_block: int = EMB_SAMPLES_PER_BLOCK,
) -> List[DeviceWorkload]:
    """Derive every device's :class:`DeviceWorkload` for one batch.

    ``lengths_by_feature`` maps each table name to its per-sample pooling
    factors (shape ``(B,)``); all features must agree on B.  Any mapping
    other than a :class:`~repro.dlrm.data.LengthsBatch` is copied into one,
    which validates it; a ``LengthsBatch`` shares its chunk counts with
    every other build of the same batch, and its layout shares each
    device's rows of them with every batch of that layout.  A fixed batch
    keeps the workloads it builds per plan and ``samples_per_block``: a
    later build returns a new list of the same frozen workloads.
    """
    lengths = _checked_lengths(plan, lengths_by_feature, samples_per_block)
    return list(
        lengths.memoized(
            ("device_workloads", plan, samples_per_block),
            lambda: _device_workloads(plan, lengths, samples_per_block),
        )
    )


def _device_workloads(
    plan: TableWiseSharding, lengths: LengthsBatch, samples_per_block: int
) -> Tuple[DeviceWorkload, ...]:
    """Every device's workload for ``lengths``, built."""
    B = lengths.batch_size
    G = plan.n_devices
    _, rows = _count_rows(plan, lengths.layout)
    chunk_counts = lengths.chunk_counts(samples_per_block)
    row_bytes = _device_row_bytes(plan)
    workloads: List[DeviceWorkload] = []
    for dev in range(G):
        n_tables, rb = len(rows[dev]), row_bytes[dev]
        if rb is None:
            raise ValueError("mixed embedding dims/dtypes on one device are unsupported")
        if not n_tables:
            workloads.append(
                DeviceWorkload(
                    device_id=dev,
                    n_devices=G,
                    batch_size=B,
                    row_bytes=rb,
                    num_local_tables=0,
                    nnz=0,
                    num_blocks=0,
                    samples_per_block=samples_per_block,
                    block_weights=np.empty(0),
                    block_dst_bytes=np.zeros((0, G)),
                )
            )
            continue
        # Per-block lookup counts: the device's tables' rows of the batch's
        # count matrix, derived once per batch; the device's nnz is their
        # total.
        counts = chunk_counts[rows[dev]]
        # Destination bytes: the chunk→device byte counts, tiled per table,
        # shared read-only by every device and batch of the same shape.
        # Nothing writes into block_dst_bytes: transforms copy or build a
        # new array.
        tile = _dst_tile(B, G, samples_per_block, n_tables, rb)
        workloads.append(
            DeviceWorkload(
                device_id=dev,
                n_devices=G,
                batch_size=B,
                row_bytes=rb,
                num_local_tables=n_tables,
                nnz=int(counts.sum()),
                num_blocks=counts.size,
                samples_per_block=samples_per_block,
                block_weights=counts.astype(np.float64).ravel(),
                block_dst_bytes=tile.block_dst_bytes,
                tile=tile,
            )
        )
    return tuple(workloads)


def build_rowwise_workloads(
    plan: RowWiseSharding,
    lengths_by_feature: Mapping[str, np.ndarray],
    *,
    samples_per_block: int = EMB_SAMPLES_PER_BLOCK,
) -> List[DeviceWorkload]:
    """Derive every device's row-wise workload for one batch.

    Every device holds a row slice of every table, so each runs the
    table-wise grid with all T tables local and writes a partial pool for
    every (table, sample): ``B x T x d`` output per device, G times the
    table-wise total.  Row ownership of a uniformly hashed lookup is uniform
    over devices, so each device gathers ``nnz / G`` rows (the remainder to
    the lowest ids) over uniformly costed blocks; the functional layer uses
    the exact per-index ownership, timing only the expectation.  Lengths
    are validated as :func:`build_device_workloads` validates them.
    """
    lengths = _checked_lengths(plan, lengths_by_feature, samples_per_block)
    rows, _ = _count_rows(plan, lengths.layout)
    row_bytes = {t.row_bytes for t in plan.table_configs}
    if len(row_bytes) != 1:
        raise ValueError(
            "row-wise sharding puts every table on every device; "
            "mixed embedding dims/dtypes on one device are unsupported"
        )
    rb = row_bytes.pop()
    counts = lengths.chunk_counts(samples_per_block)
    nnz_total = int(counts[rows].sum())
    G = plan.n_devices
    tile = _dst_tile(lengths.batch_size, G, samples_per_block, plan.num_tables, rb)
    base, rem = divmod(nnz_total, G)
    return [
        _RowWiseWorkload(
            device_id=dev,
            n_devices=G,
            batch_size=lengths.batch_size,
            row_bytes=rb,
            num_local_tables=plan.num_tables,
            nnz=base + (1 if dev < rem else 0),
            num_blocks=tile.block_dst_bytes.shape[0],
            samples_per_block=samples_per_block,
            block_weights=None,
            block_dst_bytes=tile.block_dst_bytes,
            tile=tile,
            nnz_scanned=nnz_total,
        )
        for dev in range(G)
    ]


def table_segments(
    plan: TableWiseSharding, workloads: Sequence[DeviceWorkload]
) -> Dict[str, tuple]:
    """Lift each table's block segment out of its owner's workload.

    Table-wise workloads are a concatenation of per-table block segments
    (``n_chunks`` blocks per table, in the plan's global feature order), so
    each table's blocks can be recovered exactly.  Returns
    ``{table_name: (block_weights, block_dst_bytes, nnz)}`` — the raw
    material for re-homing tables under a different ownership (failover,
    migration cutover) without rebuilding from jagged lengths.
    """
    segments: Dict[str, tuple] = {}
    for wl in workloads:
        tables = plan.tables_on(wl.device_id)
        if not tables:
            continue
        n_chunks = math.ceil(wl.batch_size / wl.samples_per_block)
        for j, cfg in enumerate(tables):
            sl = slice(j * n_chunks, (j + 1) * n_chunks)
            weights = wl.block_weights[sl]
            segments[cfg.name] = (
                weights,
                wl.block_dst_bytes[sl],
                int(round(float(weights.sum()))),
            )
    return segments


def rehome_workloads(
    plan: TableWiseSharding,
    workloads: Sequence[DeviceWorkload],
    owners: Mapping[str, Optional[int]],
) -> List[DeviceWorkload]:
    """Rebuild per-device workloads under an explicit effective ownership.

    ``owners`` maps each table name to the device that should *serve* it
    for this batch (``None`` drops the table's lookups entirely — the
    replication layer uses that for tables with no live holder).
    Destination columns of ``block_dst_bytes`` are absolute device ids and
    need no adjustment, which is what re-derives the baseline's all-to-all
    splits and the PGAS put targets on the new owner for free.  Shared by
    replication failover and reshard migration cutover.
    """
    if not workloads:
        raise ValueError("rehome_workloads needs at least one workload")
    G = plan.n_devices
    segments = table_segments(plan, workloads)
    batch_size = workloads[0].batch_size
    spb = workloads[0].samples_per_block
    out: List[DeviceWorkload] = []
    for d in range(G):
        cfgs = [
            cfg
            for cfg in plan.table_configs
            if owners.get(cfg.name) == d and cfg.name in segments
        ]
        if not cfgs:
            out.append(
                DeviceWorkload(
                    device_id=d,
                    n_devices=G,
                    batch_size=batch_size,
                    row_bytes=plan.table_configs[0].row_bytes,
                    num_local_tables=0,
                    nnz=0,
                    num_blocks=0,
                    samples_per_block=spb,
                    block_weights=np.empty(0),
                    block_dst_bytes=np.zeros((0, G)),
                )
            )
            continue
        row_bytes = {cfg.row_bytes for cfg in cfgs}
        if len(row_bytes) != 1:
            raise ValueError(
                "re-homing would mix row byte sizes on one device; "
                "table re-homing needs tables of equal row_bytes"
            )
        weights = np.concatenate([segments[cfg.name][0] for cfg in cfgs])
        dst = np.concatenate([segments[cfg.name][1] for cfg in cfgs], axis=0)
        out.append(
            DeviceWorkload(
                device_id=d,
                n_devices=G,
                batch_size=batch_size,
                row_bytes=row_bytes.pop(),
                num_local_tables=len(cfgs),
                nnz=sum(segments[cfg.name][2] for cfg in cfgs),
                num_blocks=dst.shape[0],
                samples_per_block=spb,
                block_weights=weights,
                block_dst_bytes=dst,
            )
        )
    return out


def alltoall_split_bytes(workloads: Sequence[DeviceWorkload]) -> np.ndarray:
    """All-to-all byte matrix ``split[src, dst]`` for the baseline.

    Entry (s, d) is the size of src s's EMB output belonging to dst d's
    mini-batch.  The diagonal (local share) moves no wire bytes.
    """
    G = len(workloads)
    split = np.zeros((G, G), dtype=np.float64)
    for wl in workloads:
        split[wl.device_id] = wl.output_bytes_by_dst
    np.fill_diagonal(split, 0.0)
    return split


def unpack_bytes_received(workloads: Sequence[DeviceWorkload], device_id: int) -> float:
    """Bytes device ``device_id`` receives and must rearrange (baseline).

    The unpack pass reads each received block and writes it to its final
    position in the ``(B_g, F, d)`` tensor.
    """
    return float(
        sum(wl.output_bytes_by_dst[device_id] for wl in workloads if wl.device_id != device_id)
    )
