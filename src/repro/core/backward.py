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
calls with atomic PGAS direct-GPU remote writes").  A launch defers its
atomics as one run (:meth:`~repro.comm.pgas.PGASContext.atomic_run`); a
traced one adds them wave by wave.

The functional layer (:func:`reference_backward` et al.) really computes
and applies the row gradients so tests can check the two schemes agree
with a single-device oracle (to accumulation order).
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..comm.collective import (
    LAUNCH_OVERHEAD_NS,
    WAIT_OVERHEAD_NS,
    CollectiveContext,
    CollectiveSpec,
)
from ..comm.pgas import ATOMIC_PAYLOAD_BYTES, PGASContext, PGASSpec
from ..dlrm.batch import JaggedField, SparseBatch
from ..dlrm.embedding import EmbeddingTable
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.kernel import KernelSpec, WaveInfo
from ..simgpu.stream import join
from .baseline import PhaseTiming, TimedPass
from .calibration import (
    EMB_MIN_WAVES_FOR_PEAK,
    REMOTE_WRITE_KERNEL_DRAG,
    UNPACK_BANDWIDTH,
)
from .functional import ShardedEmbeddingTables
from .pgas_retrieval import FirstHops, first_hop_bandwidth, first_hop_table
from .sharding import minibatch_bounds
from .workload import DeviceWorkload, alltoall_split_bytes, unpack_bytes_received

__all__ = [
    "table_row_gradients",
    "reference_backward",
    "baseline_functional_backward",
    "pgas_functional_backward",
    "BaselineBackward",
    "PGASFusedBackward",
]


# ---------------------------------------------------------------------------
# functional layer
# ---------------------------------------------------------------------------


def table_row_gradients(
    table: EmbeddingTable, field: JaggedField, grad_out: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lookup row gradients of one table.

    ``grad_out`` is the upstream gradient of the pooled output, shape
    ``(B, d)``.  Pooling is a sum, so every index in sample *b*'s bag
    receives ``grad_out[b]``.
    Returns ``(rows, grads)`` with shape ``(nnz,)`` / ``(nnz, d)`` —
    duplicates *not* combined (that is the accumulator's job).
    """
    if grad_out.shape[0] != field.batch_size:
        raise ValueError(
            f"grad batch {grad_out.shape[0]} != field batch {field.batch_size}"
        )
    return table.hash(field.indices), np.repeat(grad_out, field.lengths, axis=0)


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


class BaselineBackward(TimedPass):
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

    def _start(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> Event:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        t0 = engine.now
        t1 = t2 = 0.0

        def pack() -> Optional[Event]:
            # Pack: rearrange (B_g, F, d) grads into per-owner contiguous buffers.
            if G == 1:
                return None
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
            return join(engine, ops, spec0.sync_overhead_ns)

        def all_to_all() -> Event:
            nonlocal t1
            t1 = engine.now
            # Gradient all-to-all: forward split transposed (grads flow back).
            return self.collectives.all_to_all_single(alltoall_split_bytes(workloads).T).wait()

        def scatter_add() -> Event:
            nonlocal t2
            t2 = engine.now
            # Owner-side scatter-add of the full-batch gradients.
            ops = []
            for dev, wl in zip(cluster.devices, workloads):
                kspec = _backward_kernel_spec(wl, "baseline_emb_bwd", owner_side=True)
                dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
                ops.append(dev.default_stream.launch(dev, kspec))
            return join(engine, ops, spec0.sync_overhead_ns)

        def finish() -> None:
            t3 = engine.now
            control = LAUNCH_OVERHEAD_NS + WAIT_OVERHEAD_NS
            timing.compute_ns = t3 - t2
            timing.comm_ns = max(t2 - t1 - control, 0.0) if G > 1 else 0.0
            timing.sync_unpack_ns = (t1 - t0) + (min(control, t2 - t1))
            timing.total_ns = t3 - t0

        return cluster.chain(pack, all_to_all, scatter_add, finish)



#: below this, every float share rounds to the integer ``int(round(x))`` gives
_EXACT = 2.0 ** 53


class _GradientAtomics:
    """One device's remote gradient atomics: the wave hook.

    Each wave ships its share of the device's remote gradient bytes
    (``remote``, one entry per destination in ``dsts``) as remote atomics,
    one per :data:`~repro.comm.pgas.ATOMIC_PAYLOAD_BYTES`, the count rounded half to even.
    Called per retiring wave in a traced launch; any other launch hands it
    every wave at once (``take_run``), and the atomics become one deferred
    run whose counts ``np.rint`` rounds the same way.
    """

    __slots__ = ("pgas", "src", "dsts", "remote")

    def __init__(self, pgas: PGASContext, src: int, dsts: List[int], remote: List[float]):
        self.pgas, self.src, self.dsts, self.remote = pgas, src, dsts, remote

    def __call__(self, info: WaveInfo) -> None:
        counts = [
            int(round(nbytes * info.fraction / ATOMIC_PAYLOAD_BYTES)) for nbytes in self.remote
        ]
        if any(counts):
            self.pgas.atomic_add(self.src, self.dsts, counts)

    def take_run(self, ends: List[float], fracs: List[float]) -> bool:
        if not self.dsts:
            return True  # nothing remote: no wave adds anything
        shares = np.multiply.outer(fracs, self.remote) / ATOMIC_PAYLOAD_BYTES
        # Whole numbers up to 2**53 round and scale exactly as int(round(x))
        # does; a larger, infinite or NaN share is left to the per-wave path.
        if not shares.max() < _EXACT:
            return False
        return self.pgas.atomic_run(self.src, self.dsts, ends, np.rint(shares).astype(np.int64))


class PGASFusedBackward(TimedPass):
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

    @cached_property
    def _first_hops(self) -> List[FirstHops]:
        """The forward's :func:`~repro.core.pgas_retrieval.first_hop_table`
        of this pass's fabric (gradients take direct links)."""
        return first_hop_table(self.cluster.topology)

    def _start(
        self, cluster: Cluster, workloads: Sequence[DeviceWorkload], timing: PhaseTiming
    ) -> Event:
        engine = cluster.engine
        G = cluster.n_devices

        # Remote gradient volume from device g: its mini-batch's rows of
        # every non-local feature — the transpose of the forward pattern.
        split = alltoall_split_bytes(workloads).T

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            out_bytes = float(split[dev.id].sum())
            kspec = _backward_kernel_spec(wl, "pgas_emb_bwd", owner_side=False)
            if G > 1 and out_bytes > 0:
                # Drag over the gradient's first hops, weighted by the bytes
                # each destination gets, as the forward prices its writes.
                link_bw = first_hop_bandwidth(self._first_hops[dev.id], split[dev.id])
                if link_bw is not None:
                    drag = self.remote_write_drag * out_bytes / link_bw
                    kspec = replace(kspec, stretch_ns=drag)

            row = split[dev.id].tolist()
            dsts = [dst for dst, nbytes in enumerate(row) if dst != dev.id and nbytes > 0]
            on_wave = _GradientAtomics(self.pgas, dev.id, dsts, [row[dst] for dst in dsts])
            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
            ops.append(dev.default_stream.launch(dev, kspec, on_wave))
        return self._fused_end(cluster, self.pgas, join(engine, ops), timing)
