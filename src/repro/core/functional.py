"""Functional (real-data) distributed EMB forward passes.

The simulator times byte movements; this module actually *moves the
numbers*, at test scale, so the backends can be checked for correctness:

* :func:`reference_forward` — single-device oracle: the plain
  :class:`~repro.dlrm.embedding.EmbeddingBagCollection` forward.
* :func:`baseline_functional_forward` — the collective path: per-device
  model-parallel forward → batch-dim split into per-destination *send
  blocks* (the wire format of ``all_to_all_single``) → receive → **unpack**
  into the final ``(B_g, F, d)`` tensor via an explicit feature-permutation
  copy (the rearrangement step the paper eliminates).
* :func:`pgas_functional_forward` — the one-sided path: each pooled vector
  is written *directly* into the destination device's final output tensor
  at its final coordinates, no intermediate receive buffer.

Both distributed paths compute each table's pooled output with the same
kernel (``EmbeddingTable.forward`` on the full batch), so their results are
**bit-identical** to each other and to the reference — asserted by the
equality tests in ``tests/core/``.

Under row-wise sharding (§V) every device holds a row slice of every table,
so it can only pool a *partial* per (table, sample):
:func:`rowwise_baseline_functional_forward` exchanges the partials and
reduces them at each sample's owner, :func:`rowwise_pgas_functional_forward`
atomically adds them into the owner's tensor.  Both agree with the
reference to float tolerance only: the reduction order necessarily differs.

:class:`ShardedEmbeddingTables` holds the per-device table instances; built
with :meth:`~ShardedEmbeddingTables.from_collection`, the shards *alias* the
reference collection's weight arrays, so no extra memory and exact parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..dlrm.batch import SparseBatch
from ..dlrm.embedding import (
    EmbeddingBagCollection,
    EmbeddingTable,
    EmbeddingTableConfig,
    segment_pool,
)
from .sharding import RowWiseSharding, TableWiseSharding, minibatch_bounds

__all__ = [
    "ShardedEmbeddingTables",
    "reference_forward",
    "baseline_functional_forward",
    "functional_forward",
    "pgas_functional_forward",
    "rowwise_baseline_functional_forward",
    "rowwise_functional_forward_partials",
    "rowwise_pgas_functional_forward",
    "SendBlock",
]


@dataclass(frozen=True)
class SendBlock:
    """One (src → dst) payload of the baseline all-to-all.

    ``data`` has shape ``(B_dst, T_src, d)`` — the dst mini-batch's rows of
    every src-local table, in src-local table order (the contiguous chunk
    ``all_to_all_single`` sends).
    """

    src: int
    dst: int
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        """Payload size."""
        return self.data.nbytes


class ShardedEmbeddingTables:
    """Per-device embedding tables under a table-wise plan."""

    def __init__(self, plan: TableWiseSharding, per_device: Sequence[List[EmbeddingTable]]):
        if len(per_device) != plan.n_devices:
            raise ValueError(
                f"expected {plan.n_devices} device shards, got {len(per_device)}"
            )
        self.plan = plan
        self.per_device = [list(ts) for ts in per_device]
        for dev, tables in enumerate(self.per_device):
            expect = [t.name for t in plan.tables_on(dev)]
            got = [t.name for t in tables]
            if expect != got:
                raise ValueError(
                    f"device {dev}: tables {got} do not match plan {expect}"
                )

    @classmethod
    def from_collection(
        cls, ebc: EmbeddingBagCollection, plan: TableWiseSharding
    ) -> "ShardedEmbeddingTables":
        """Shard an existing collection; shards alias its weights."""
        per_device = [
            [ebc.table(cfg.name) for cfg in plan.tables_on(dev)]
            for dev in range(plan.n_devices)
        ]
        return cls(plan, per_device)

    def rehomed(self, owners: Mapping[str, int]) -> "ShardedEmbeddingTables":
        """The same tables (weights aliased) under a new table → device map.

        Failover and migration serve tables from devices other than their
        planned owner; outputs partition by sample, so the forward over
        the re-homed view is bit-identical to the original one.
        """
        plan = TableWiseSharding.from_assignment(
            self.plan.table_configs, self.plan.n_devices, owners
        )
        tables = {t.name: t for per in self.per_device for t in per}
        return ShardedEmbeddingTables(
            plan,
            [[tables[cfg.name] for cfg in plan.tables_on(d)] for d in range(plan.n_devices)],
        )

    @classmethod
    def build(
        cls,
        configs: Sequence[EmbeddingTableConfig],
        n_devices: int,
        *,
        strategy: str = "contiguous",
        rng: Optional[np.random.Generator] = None,
    ) -> "ShardedEmbeddingTables":
        """Create fresh weights and shard them."""
        ebc = EmbeddingBagCollection.from_configs(list(configs), rng=rng)
        plan = TableWiseSharding(list(configs), n_devices, strategy=strategy)  # type: ignore[arg-type]
        return cls.from_collection(ebc, plan)

    @property
    def n_devices(self) -> int:
        """Number of device shards."""
        return self.plan.n_devices

    @property
    def dim(self) -> int:
        """Shared embedding dimension."""
        return self.plan.table_configs[0].dim

    @property
    def dtype(self) -> np.dtype:
        """Shared weight dtype."""
        return self.plan.table_configs[0].dtype

    def local_forward(self, device_id: int, batch: SparseBatch) -> np.ndarray:
        """Model-parallel step: full batch over this device's tables.

        Returns ``(B, T_local, d)`` in local table order.
        """
        tables = self.per_device[device_id]
        B = batch.batch_size
        out = np.empty((B, len(tables), self.dim), dtype=self.dtype)
        for j, table in enumerate(tables):
            out[:, j, :] = table.forward(batch.field(table.name))
        return out


def reference_forward(ebc: EmbeddingBagCollection, batch: SparseBatch) -> np.ndarray:
    """Single-device oracle: ``(B, F, d)``."""
    return ebc.forward(batch)


def baseline_functional_forward(
    sharded: ShardedEmbeddingTables, batch: SparseBatch
) -> Tuple[List[np.ndarray], List[SendBlock]]:
    """Collective-path forward: returns (per-device outputs, wire blocks).

    Per-device output ``g`` has shape ``(B_g, F, d)`` with features in
    global order.  The returned :class:`SendBlock` list is the exact
    all-to-all wire traffic (useful for byte-accounting tests).
    """
    plan = sharded.plan
    G = plan.n_devices
    B = batch.batch_size
    F = plan.num_tables
    bounds = minibatch_bounds(B, G)

    # Phase 1 — model-parallel compute on every src device.
    local_out = [sharded.local_forward(src, batch) for src in range(G)]

    # Phase 2 — split along the batch dim into per-destination send blocks.
    blocks: List[SendBlock] = []
    for src in range(G):
        for dst, (lo, hi) in enumerate(bounds):
            blocks.append(SendBlock(src=src, dst=dst, data=local_out[src][lo:hi]))

    # Phase 3 — receive + UNPACK: copy each block into its final feature
    # columns.  This explicit rearrangement is the step PGAS removes.
    outputs: List[np.ndarray] = []
    for dst, (lo, hi) in enumerate(bounds):
        final = np.zeros((hi - lo, F, sharded.dim), dtype=sharded.dtype)
        for block in blocks:
            if block.dst != dst:
                continue
            cols = plan.feature_indices_on(block.src)
            final[:, cols, :] = block.data
        outputs.append(final)
    return outputs, blocks


def functional_forward(
    base: str, sharded: ShardedEmbeddingTables, batch: SparseBatch
) -> List[np.ndarray]:
    """Per-device ``(B_g, F, d)`` outputs of base strategy ``base``.

    The one dispatch from a backend's base name to its numpy forward;
    every adapter's functional path goes through here.
    """
    if base == "pgas":
        return pgas_functional_forward(sharded, batch)
    if base == "baseline":
        outputs, _blocks = baseline_functional_forward(sharded, batch)
        return outputs
    raise ValueError(f"unknown base backend {base!r} (use 'pgas' or 'baseline')")


def pgas_functional_forward(
    sharded: ShardedEmbeddingTables, batch: SparseBatch
) -> List[np.ndarray]:
    """One-sided-path forward: per-device ``(B_g, F, d)`` outputs.

    Each source writes its pooled vectors straight into the destination
    tensors at their final coordinates (Listing 2's
    ``sum.store(outputs[output_idx], pe)``) — no send blocks, no unpack.
    """
    plan = sharded.plan
    G = plan.n_devices
    B = batch.batch_size
    F = plan.num_tables
    bounds = minibatch_bounds(B, G)

    # Destination tensors pre-exist on every device (symmetric allocation).
    outputs = [
        np.zeros((hi - lo, F, sharded.dim), dtype=sharded.dtype) for lo, hi in bounds
    ]

    for src in range(G):
        cols = plan.feature_indices_on(src)
        for j, table in enumerate(sharded.per_device[src]):
            pooled = table.forward(batch.field(table.name))  # (B, d)
            # One-sided writes: each sample's vector lands at its final
            # (sample - lo, feature, :) slot on the owning device.
            for dst, (lo, hi) in enumerate(bounds):
                outputs[dst][:, cols[j], :] = pooled[lo:hi]
    return outputs


# ---------------------------------------------------------------------------
# row-wise sharding (§V)
# ---------------------------------------------------------------------------


def rowwise_functional_forward_partials(
    ebc: EmbeddingBagCollection,
    plan: RowWiseSharding,
    batch: SparseBatch,
    device_id: int,
) -> np.ndarray:
    """One device's partial pools over ALL tables: ``(B, T, d)``.

    Only the lookups whose hashed rows fall inside this device's row slice
    contribute; everything else pools as zero.
    """
    B = batch.batch_size
    T = ebc.num_features
    out = np.zeros((B, T, ebc.dim), dtype=ebc.tables[0].config.dtype)
    for f, table in enumerate(ebc.tables):
        field = batch.field(table.name)
        if field.nnz == 0:
            continue
        rows = table.hash(field.indices)
        shard = plan.shard_on(table.name, device_id)
        mask = (rows >= shard.row_lo) & (rows < shard.row_hi)
        vecs = np.zeros((field.nnz, ebc.dim), dtype=out.dtype)
        if mask.any():
            vecs[mask] = table.weights[rows[mask]]
        out[:, f, :] = segment_pool(vecs, field.offsets, table.config.pooling)
    return out


def _check_sum_pooling(ebc: EmbeddingBagCollection) -> None:
    bad = [t.name for t in ebc.tables if t.config.pooling != "sum"]
    if bad:
        raise NotImplementedError(
            f"row-wise sharding requires sum pooling (partials must add); "
            f"tables with other pooling: {bad}"
        )


def rowwise_baseline_functional_forward(
    ebc: EmbeddingBagCollection, plan: RowWiseSharding, batch: SparseBatch
) -> List[np.ndarray]:
    """Collective path: exchange partials, reduce at the owner.

    Returns per-device ``(B_g, T, d)`` outputs.
    """
    _check_sum_pooling(ebc)
    G = plan.n_devices
    bounds = minibatch_bounds(batch.batch_size, G)
    partials = [
        rowwise_functional_forward_partials(ebc, plan, batch, dev) for dev in range(G)
    ]
    outputs = []
    for lo, hi in bounds:
        # Receive one (B_g, T, d) chunk from every source, then reduce —
        # the explicit reduction step PGAS atomics eliminate.
        received = [partials[src][lo:hi] for src in range(G)]
        outputs.append(np.sum(received, axis=0, dtype=received[0].dtype))
    return outputs


def rowwise_pgas_functional_forward(
    ebc: EmbeddingBagCollection, plan: RowWiseSharding, batch: SparseBatch
) -> List[np.ndarray]:
    """One-sided path: partials atomically added into the owner's tensor."""
    _check_sum_pooling(ebc)
    G = plan.n_devices
    bounds = minibatch_bounds(batch.batch_size, G)
    outputs = [
        np.zeros((hi - lo, ebc.num_features, ebc.dim), dtype=ebc.tables[0].config.dtype)
        for lo, hi in bounds
    ]
    for src in range(G):
        partial = rowwise_functional_forward_partials(ebc, plan, batch, src)
        for dst, (lo, hi) in enumerate(bounds):
            # Remote (or local) atomic adds at the final coordinates.
            outputs[dst] += partial[lo:hi]
    return outputs
