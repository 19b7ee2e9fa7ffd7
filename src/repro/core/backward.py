"""EMB-layer backward pass — the paper's §V (future work) extension.

During backpropagation the data flow of the forward pass reverses: each
device holds the upstream gradients for *its mini-batch* of the EMB output
``(B_g, F, d)``, and the gradient of every table row must end up at the
table's owner, summed over every bag occurrence from every device.

**Baseline** (collective) backward, per batch:

1. *pack* kernel — regroup the mini-batch gradients into per-owner send
   buffers (the inverse of the forward's unpack, same inefficient
   rearrangement pass);
2. ``all_to_all_single`` of the gradient chunks (the forward split matrix,
   transposed);
3. *scatter-add* kernel at each owner — read each received ``(b, f)``
   gradient once per bag index and read-modify-write the table row.
   Duplicate rows serialise through the same accumulator, and the whole
   step waits for the full collective (paper: "multiple synchronizations
   to ensure all GPUs have consistent gradient information").

**PGAS** backward, per batch: one fused kernel per device walks its
mini-batch gradients; contributions to remote tables leave immediately as
*remote atomic adds* per wave, local ones scatter-add in place.  No pack,
no collective rounds — completion is a ``quiet`` + rendezvous, exactly the
mechanism the paper proposes ("replacing multiple rounds of collective
calls with atomic PGAS direct-GPU remote writes").

Under **row-wise** sharding (§V) every device's mini-batch holds gradient
contributions for rows on *every* device.  The collective backward is the
paper's shift rounds (:class:`RowWiseBaselineBackward`); the one-sided one
sends remote atomic adds to every row-slice owner
(:class:`RowWisePGASBackward`).  Both consume the row-wise
:class:`~repro.core.workload.DeviceWorkload` the forward runs on, but they
stay models of their own: the shift rounds are not the table-wise
pack/all-to-all/scatter-add, and the row-wise atomics are spread evenly
over peers rather than following the transposed forward split.

The functional layer (:func:`reference_backward` et al.) really computes
and applies the row gradients so tests can check the two schemes agree
with a single-device oracle (to accumulation order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..comm.collective import CollectiveContext, CollectiveSpec
from ..comm.pgas import PGASContext, PGASSpec
from ..dlrm.batch import JaggedField, SparseBatch
from ..dlrm.embedding import EmbeddingBagCollection, EmbeddingTable
from ..simgpu.cluster import Cluster
from ..simgpu.engine import ProcessGenerator
from ..simgpu.kernel import KernelSpec, WaveInfo
from .baseline import PhaseTiming
from .calibration import (
    EMB_MIN_WAVES_FOR_PEAK,
    EMB_SAMPLES_PER_BLOCK,
    REMOTE_WRITE_KERNEL_DRAG,
    UNPACK_BANDWIDTH,
)
from .functional import ShardedEmbeddingTables
from .sharding import RowWiseSharding, minibatch_bounds
from .workload import DeviceWorkload, alltoall_split_bytes, unpack_bytes_received

__all__ = [
    "table_row_gradients",
    "reference_backward",
    "baseline_functional_backward",
    "pgas_functional_backward",
    "rowwise_functional_backward",
    "BaselineBackward",
    "PGASFusedBackward",
    "RowWiseBaselineBackward",
    "RowWisePGASBackward",
]


# ---------------------------------------------------------------------------
# functional layer
# ---------------------------------------------------------------------------


def table_row_gradients(
    table: EmbeddingTable, field: JaggedField, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lookup row gradients of one table.

    ``grad_out`` is the upstream gradient of the pooled output, shape
    ``(B, d)``.  For sum pooling every index in sample *b*'s bag receives
    ``grad_out[b]``; for mean pooling it is scaled by ``1 / len(bag)``.
    Returns ``(rows, grads)`` with shape ``(nnz,)`` / ``(nnz, d)`` —
    duplicates *not* combined (that is the accumulator's job).
    """
    if grad_out.shape[0] != field.batch_size:
        raise ValueError(
            f"grad batch {grad_out.shape[0]} != field batch {field.batch_size}"
        )
    rows = table.hash(field.indices)
    lengths = field.lengths
    grads = np.repeat(grad_out, lengths, axis=0)
    mode = table.config.pooling
    if mode == "mean":
        scale = np.repeat(
            np.where(lengths > 0, 1.0 / np.maximum(lengths, 1), 0.0), lengths
        )
        grads = grads * scale[:, None].astype(grads.dtype)
    elif mode != "sum":
        raise NotImplementedError(f"backward for pooling {mode!r} is not supported")
    return rows, grads


def reference_backward(
    ebc_tables: Sequence[EmbeddingTable],
    batch: SparseBatch,
    grad_output: np.ndarray,
    lr: float = 1.0,
) -> None:
    """Single-device oracle: apply full-batch gradients to every table.

    ``grad_output`` has shape ``(B, F, d)`` in collection order.
    """
    if grad_output.shape[1] != len(ebc_tables):
        raise ValueError("grad_output feature dim != number of tables")
    for f, table in enumerate(ebc_tables):
        field = batch.field(table.name)
        rows, grads = table_row_gradients(table, field, grad_output[:, f, :])
        table.apply_row_gradients(rows, grads, lr=lr)


def baseline_functional_backward(
    sharded: ShardedEmbeddingTables,
    batch: SparseBatch,
    grad_outputs: Sequence[np.ndarray],
    lr: float = 1.0,
) -> None:
    """Collective-path backward: gather each table's full-batch grad, apply.

    ``grad_outputs[g]`` is device g's ``(B_g, F, d)`` upstream gradient.
    The all-to-all reassembles, per owner, the full-batch ``(B, T_loc, d)``
    gradient before one scatter-add per table — bit-identical to the
    reference because the full-batch gradient is applied in one shot.
    """
    plan = sharded.plan
    G = plan.n_devices
    B = batch.batch_size
    bounds = minibatch_bounds(B, G)
    if len(grad_outputs) != G:
        raise ValueError(f"need {G} per-device gradients, got {len(grad_outputs)}")
    for src in range(G):
        cols = plan.feature_indices_on(src)
        for j, table in enumerate(sharded.per_device[src]):
            # Reassemble the full-batch gradient of this table from every
            # device's mini-batch chunk (the wire contents of the a2a).
            full = np.concatenate(
                [np.asarray(grad_outputs[g])[:, cols[j], :] for g in range(G)], axis=0
            )
            field = batch.field(table.name)
            rows, grads = table_row_gradients(table, field, full)
            table.apply_row_gradients(rows, grads, lr=lr)


def pgas_functional_backward(
    sharded: ShardedEmbeddingTables,
    batch: SparseBatch,
    grad_outputs: Sequence[np.ndarray],
    lr: float = 1.0,
) -> None:
    """One-sided-path backward: per-source remote atomic adds.

    Each source device applies its mini-batch's contributions to every
    table directly (remote atomics for non-local tables) — accumulation
    order differs from the oracle by source, so results agree to float
    tolerance, not bitwise.
    """
    plan = sharded.plan
    G = plan.n_devices
    B = batch.batch_size
    bounds = minibatch_bounds(B, G)
    if len(grad_outputs) != G:
        raise ValueError(f"need {G} per-device gradients, got {len(grad_outputs)}")
    for g, (lo, hi) in enumerate(bounds):
        grad_g = np.asarray(grad_outputs[g])
        for src in range(G):
            cols = plan.feature_indices_on(src)
            for j, table in enumerate(sharded.per_device[src]):
                field = batch.field(table.name).slice_samples(lo, hi)
                rows, grads = table_row_gradients(table, field, grad_g[:, cols[j], :])
                table.apply_row_gradients(rows, grads, lr=lr)


def rowwise_functional_backward(
    ebc: EmbeddingBagCollection,
    plan: RowWiseSharding,
    batch: SparseBatch,
    grad_outputs: Sequence[np.ndarray],
    lr: float = 1.0,
) -> None:
    """Apply EMB gradients under row-wise sharding (functional).

    ``grad_outputs[g]`` is device g's ``(B_g, T, d)`` upstream gradient.
    Every device applies, to its own row slice, the contributions arriving
    from every mini-batch — the aggregation the timed schemes realise with
    shift rounds (baseline) or remote atomics (PGAS).  Equivalent to the
    single-device reference up to accumulation order.
    """
    G = plan.n_devices
    bounds = minibatch_bounds(batch.batch_size, G)
    if len(grad_outputs) != G:
        raise ValueError(f"need {G} per-device gradients, got {len(grad_outputs)}")
    for f, table in enumerate(ebc.tables):
        field = batch.field(table.name)
        for g, (lo, hi) in enumerate(bounds):
            sub = field.slice_samples(lo, hi)
            rows, grads = table_row_gradients(
                table, sub, np.asarray(grad_outputs[g])[:, f, :]
            )
            if rows.size == 0:
                continue
            # Each row's update lands on its owning slice — ownership is a
            # partition, so applying per (device, slice) covers each
            # contribution exactly once.
            owners = plan.row_owner(table.name, rows)
            for dev in range(G):
                mask = owners == dev
                if mask.any():
                    table.apply_row_gradients(rows[mask], grads[mask], lr=lr)


# ---------------------------------------------------------------------------
# timed layer
# ---------------------------------------------------------------------------


def _backward_kernel_spec(wl: DeviceWorkload, name: str, *, owner_side: bool) -> KernelSpec:
    """Scatter-add kernel cost for one device.

    Owner side (baseline): read the full-batch gradients of local tables
    plus a read-modify-write of each looked-up row.  Source side (PGAS
    fused): read the local mini-batch gradients of *all* features plus the
    local share of row updates; remote contributions leave as atomics.
    """
    if owner_side:
        grad_bytes = float(wl.batch_size * wl.num_local_tables) * wl.row_bytes
        rmw = 3.0 * float(wl.nnz) * wl.row_bytes  # read grad, read row, write row
    else:
        B_local = float(wl.output_bytes_by_dst[wl.device_id]) / max(wl.row_bytes, 1)
        total_pairs = float(wl.batch_size * wl.num_local_tables)
        local_frac = B_local / total_pairs if total_pairs else 0.0
        grad_bytes = float(wl.batch_size * wl.num_local_tables) * wl.row_bytes
        rmw = 3.0 * float(wl.nnz) * local_frac * wl.row_bytes
    return KernelSpec(
        name=f"{name}.dev{wl.device_id}",
        num_blocks=wl.num_blocks,
        bytes_read=grad_bytes + rmw * 2.0 / 3.0,
        bytes_written=rmw / 3.0,
        flops=float(wl.nnz) * (wl.row_bytes / 4.0),
        block_weights=wl.block_weights,
        min_waves_for_peak=EMB_MIN_WAVES_FOR_PEAK,
    )


class BaselineBackward:
    """Timed collective backward: pack → all-to-all → scatter-add."""

    def __init__(
        self,
        cluster: Cluster,
        collective_spec: Optional[CollectiveSpec] = None,
        pack_bandwidth: float = UNPACK_BANDWIDTH,
    ):
        self.cluster = cluster
        self.collectives = CollectiveContext(cluster, collective_spec)
        self.pack_bandwidth = pack_bandwidth

    def run_batch(self, workloads: Sequence[DeviceWorkload]) -> PhaseTiming:
        """Simulate one backward pass; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        coll_spec = self.collectives.spec
        t0 = engine.now

        # Pack: rearrange (B_g, F, d) grads into per-owner contiguous buffers.
        if G > 1:
            ops = []
            for dev in cluster.devices:
                # Remote grads mirror the forward's received outputs; the
                # pack reads and writes each of them once.
                to_pack = 2.0 * unpack_bytes_received(workloads, dev.id)
                ops.append(
                    dev.default_stream.submit_delay(
                        dev.spec.kernel_launch_overhead_ns + to_pack / self.pack_bandwidth,
                        name=f"pack.dev{dev.id}",
                    )
                )
            yield engine.all_of([op.done for op in ops])
            yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now

        # Gradient all-to-all: forward split transposed (grads flow back).
        handle = self.collectives.all_to_all_single(alltoall_split_bytes(workloads).T)
        yield from handle.wait()
        t2 = engine.now

        # Owner-side scatter-add of the full-batch gradients.
        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            kspec = _backward_kernel_spec(wl, "baseline_emb_bwd", owner_side=True)
            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
            ops.append(dev.default_stream.launch(dev, kspec))
        yield engine.all_of([op.done for op in ops])
        yield engine.timeout(spec0.sync_overhead_ns)
        t3 = engine.now

        control = coll_spec.launch_overhead_ns + coll_spec.wait_overhead_ns
        timing.compute_ns = t3 - t2
        timing.comm_ns = max(t2 - t1 - control, 0.0) if G > 1 else 0.0
        timing.sync_unpack_ns = (t1 - t0) + (min(control, t2 - t1))
        timing.total_ns = t3 - t0


class PGASFusedBackward:
    """Timed one-sided backward: fused scatter-add + remote atomics."""

    def __init__(
        self,
        cluster: Cluster,
        pgas_spec: Optional[PGASSpec] = None,
        remote_write_drag: float = REMOTE_WRITE_KERNEL_DRAG,
    ):
        self.cluster = cluster
        self.pgas = PGASContext(cluster, pgas_spec)
        self.remote_write_drag = remote_write_drag

    def run_batch(self, workloads: Sequence[DeviceWorkload]) -> PhaseTiming:
        """Simulate one fused backward pass; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        t0 = engine.now

        # Remote gradient volume from device g: its mini-batch's rows of
        # every non-local feature — the transpose of the forward pattern.
        split = alltoall_split_bytes(workloads).T

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            out_bytes = float(split[dev.id].sum())
            kspec = _backward_kernel_spec(wl, "pgas_emb_bwd", owner_side=False)
            if G > 1 and out_bytes > 0:
                peer = (dev.id + 1) % G
                link_bw = cluster.topology.link_spec(dev.id, peer).bandwidth
                drag = self.remote_write_drag * out_bytes / link_bw
                kspec = KernelSpec(
                    name=kspec.name,
                    num_blocks=kspec.num_blocks,
                    bytes_read=kspec.bytes_read,
                    bytes_written=kspec.bytes_written,
                    flops=kspec.flops,
                    block_weights=kspec.block_weights,
                    stretch_ns=drag,
                    min_waves_for_peak=kspec.min_waves_for_peak,
                )

            row = split[dev.id].tolist()
            dsts = [dst for dst, nbytes in enumerate(row) if dst != dev.id and nbytes > 0]

            def on_wave(
                info: WaveInfo,
                dev_id: int = dev.id,
                dsts: List[int] = dsts,
                remote: List[float] = [row[dst] for dst in dsts],
                atomic_bytes: int = self.pgas.spec.atomic_payload_bytes,
                add=self.pgas.atomic_add,
            ) -> None:
                # Each wave ships its share of the gradient atomics: one
                # remote atomic per atomic_payload_bytes of gradient.
                counts = [int(round(nbytes * info.fraction / atomic_bytes)) for nbytes in remote]
                if any(counts):
                    add(dev_id, dsts, counts)

            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
            ops.append(dev.default_stream.launch(dev, kspec, on_wave))

        yield engine.all_of([op.done for op in ops])
        if G > 1:
            quiets = [
                engine.process(self.pgas.quiet(dev.id), name=f"quiet{dev.id}")
                for dev in cluster.devices
            ]
            yield engine.all_of(quiets)
        yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now
        timing.compute_ns = t1 - t0
        timing.total_ns = t1 - t0


class RowWiseBaselineBackward:
    """Timed collective backward under row-wise sharding — §V verbatim.

    With rows spread over all devices, every device's mini-batch produces
    gradient contributions for rows on *every* device, and contributions to
    the same row from different devices must be summed.  The collective
    pattern the paper describes: "multiple rounds of collective calls,
    where embeddings are shifted to (received from) the next (previous)
    GPU ... This process necessitates multiple synchronizations to ensure
    all GPUs have consistent gradient information before shifting and
    finally updating the embeddings."

    We model exactly that: G-1 ring-shift rounds, each moving every
    device's foreign-gradient buffer one hop, followed by a local
    accumulate kernel and a barrier, then the final weight-update kernel.
    """

    def __init__(
        self,
        cluster: Cluster,
        collective_spec: Optional[CollectiveSpec] = None,
        accumulate_bandwidth: float = UNPACK_BANDWIDTH,
    ):
        self.cluster = cluster
        self.collectives = CollectiveContext(cluster, collective_spec)
        self.accumulate_bandwidth = accumulate_bandwidth

    def run_batch(self, workloads: Sequence[DeviceWorkload]) -> PhaseTiming:
        """Simulate one row-wise backward pass; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        coll = self.collectives
        t0 = engine.now

        # Local gradient-contribution kernel: each device walks its
        # mini-batch gradients for all tables (the partials, reversed).
        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            k = wl.kernel_spec("rowwise_bwd_contrib")
            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, "launch")
            ops.append(dev.default_stream.launch(dev, k))
        yield engine.all_of([op.done for op in ops])
        yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now

        # G-1 shift rounds: each device forwards its foreign-gradient
        # buffer (its mini-batch's contributions to the next hop's rows;
        # per hop volume = B_g x T x d / G expected under uniform rows).
        comm_ns = 0.0
        sync_rounds_ns = 0.0
        for _round in range(G - 1):
            r0 = engine.now
            handle = coll.all_to_all_single(self._shift_split(workloads))
            yield from handle.wait()
            r1 = engine.now
            # local accumulate of the received slice + round barrier
            acc_ops = []
            for dev, wl in zip(cluster.devices, workloads):
                slice_bytes = wl.bytes_written / G
                acc_ops.append(dev.default_stream.submit_delay(
                    dev.spec.kernel_launch_overhead_ns
                    + 2.0 * slice_bytes / self.accumulate_bandwidth,
                    name=f"acc.dev{dev.id}",
                ))
            yield engine.all_of([op.done for op in acc_ops])
            yield engine.timeout(spec0.sync_overhead_ns)
            r2 = engine.now
            control = coll.spec.launch_overhead_ns + coll.spec.wait_overhead_ns
            comm_ns += max(r1 - r0 - control, 0.0)
            sync_rounds_ns += (r2 - r1) + min(control, r1 - r0)
        t2 = engine.now

        # Final weight update over the local row slices.
        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            rmw = 3.0 * float(wl.nnz) * wl.row_bytes
            k = KernelSpec(
                name=f"rowwise_bwd_update.dev{dev.id}",
                num_blocks=max(wl.num_blocks // max(G, 1), 1),
                bytes_read=rmw * 2 / 3,
                bytes_written=rmw / 3,
                min_waves_for_peak=EMB_MIN_WAVES_FOR_PEAK,
            )
            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, "launch")
            ops.append(dev.default_stream.launch(dev, k))
        yield engine.all_of([op.done for op in ops])
        yield engine.timeout(spec0.sync_overhead_ns)
        t3 = engine.now

        timing.compute_ns = (t1 - t0) + (t3 - t2)
        timing.comm_ns = comm_ns
        timing.sync_unpack_ns = sync_rounds_ns
        timing.total_ns = t3 - t0

    @staticmethod
    def _shift_split(workloads: Sequence[DeviceWorkload]) -> np.ndarray:
        """Ring-shift byte matrix: each device → next hop, 1/G of its grads."""
        G = workloads[0].n_devices
        split = np.zeros((G, G))
        for wl in workloads:
            split[wl.device_id, (wl.device_id + 1) % G] = wl.bytes_written / G
        return split


class RowWisePGASBackward:
    """Timed one-sided backward under row-wise sharding.

    The §V alternative: "replacing multiple rounds of collective calls
    with atomic PGAS direct-GPU remote writes".  One fused kernel per
    device; each wave's gradient contributions to remote row slices leave
    as remote atomic adds, owner-side accumulation rides the memory
    system, and a single quiet + rendezvous replaces the per-round
    synchronisations.
    """

    def __init__(
        self,
        cluster: Cluster,
        pgas_spec: Optional[PGASSpec] = None,
        remote_write_drag: float = REMOTE_WRITE_KERNEL_DRAG,
    ):
        self.cluster = cluster
        self.pgas = PGASContext(cluster, pgas_spec)
        self.remote_write_drag = remote_write_drag

    def run_batch(self, workloads: Sequence[DeviceWorkload]) -> PhaseTiming:
        """Simulate one fused row-wise backward pass."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        t0 = engine.now

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            # Gradient bytes to each remote row-slice owner: uniform rows
            # ⇒ (G-1)/G of this device's gradient volume leaves, split
            # evenly across peers, spread over waves like the forward.
            remote_total = wl.bytes_written * (G - 1) / G if G > 1 else 0.0
            base = wl.kernel_spec("rowwise_pgas_bwd")
            drag = 0.0
            if G > 1 and remote_total > 0:
                peer = (dev.id + 1) % G
                bw = cluster.topology.link_spec(dev.id, peer).bandwidth
                spec = self.pgas.spec
                payload_per_atomic = spec.atomic_payload_bytes
                wire = remote_total * (1 + spec.header_bytes / max(payload_per_atomic, 1))
                drag = self.remote_write_drag * wire / bw
            kspec = KernelSpec(
                name=base.name, num_blocks=base.num_blocks,
                bytes_read=base.bytes_read, bytes_written=base.bytes_written,
                flops=base.flops, stretch_ns=drag,
                min_waves_for_peak=base.min_waves_for_peak,
            )
            n_waves = max(
                math.ceil(kspec.num_blocks / dev.spec.concurrent_blocks), 1
            )
            per_wave_per_peer = (
                remote_total / n_waves / max(G - 1, 1) if G > 1 else 0.0
            )

            n_elems = (
                int(round(per_wave_per_peer / self.pgas.spec.atomic_payload_bytes))
                if per_wave_per_peer > 0 else 0
            )

            def on_wave(
                info: WaveInfo, dev_id=dev.id, add=self.pgas.atomic_add,
                others=[d for d in range(G) if d != dev.id],
                counts=[n_elems] * (G - 1) if n_elems > 0 else None,
            ) -> None:
                if counts:
                    add(dev_id, others, counts)

            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, "launch")
            ops.append(dev.default_stream.launch(dev, kspec, on_wave))
        yield engine.all_of([op.done for op in ops])
        if G > 1:
            quiets = [engine.process(self.pgas.quiet(dev.id), name=f"quiet{dev.id}")
                      for dev in cluster.devices]
            yield engine.all_of(quiets)
        yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now
        timing.compute_ns = t1 - t0
        timing.total_ns = t1 - t0
