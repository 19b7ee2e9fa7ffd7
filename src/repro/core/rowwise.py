"""Row-wise sharded retrieval — the paper's §V "partitioning by rows".

Under :class:`~repro.core.sharding.RowWiseSharding` every device holds a
horizontal slice of *every* table (RecShard-style), so a single bag's
lookups scatter across devices and each device can only produce a
**partial pool** per (table, sample).  The partials must be summed and the
sums delivered to each sample's mini-batch owner — a strictly heavier
communication pattern than the paper's table-wise scheme:

* **baseline**: every device all-to-alls its full ``(B, T, d)`` partial
  tensor split by sample owner; each owner then *reduces* G partials and
  rearranges — the multi-step, multi-synchronisation pattern §V describes
  for gradients;
* **PGAS**: every device's partials leave per retiring wave as **remote
  atomic adds** directly into the owner's output tensor, which doubles as
  the reduction — no receive buffers, no reduction kernel, one quiet.

Functional versions compute real numbers from real table slices and are
checked against the single-device oracle (to float tolerance — the
reduction order necessarily differs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..comm.collective import CollectiveContext, CollectiveSpec
from ..comm.pgas import PGASContext, PGASSpec
from ..dlrm.batch import SparseBatch
from ..dlrm.embedding import EmbeddingBagCollection, segment_pool
from ..simgpu.cluster import Cluster
from ..simgpu.engine import ProcessGenerator
from ..simgpu.kernel import KernelSpec, WaveInfo
from .baseline import PhaseTiming
from .calibration import (
    EMB_MIN_WAVES_FOR_PEAK,
    EMB_SAMPLES_PER_BLOCK,
    INDEX_BYTES,
    REMOTE_WRITE_KERNEL_DRAG,
    UNPACK_BANDWIDTH,
)
from .sharding import RowWiseSharding, minibatch_bounds, sample_owner

__all__ = [
    "RowWiseBaselineBackward",
    "RowWisePGASBackward",
    "rowwise_functional_forward_partials",
    "rowwise_baseline_functional_forward",
    "rowwise_pgas_functional_forward",
    "rowwise_functional_backward",
    "RowWiseWorkload",
    "build_rowwise_workloads",
    "RowWiseBaselineRetrieval",
    "RowWisePGASRetrieval",
]


# ---------------------------------------------------------------------------
# functional layer
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
    for dst, (lo, hi) in enumerate(bounds):
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


# ---------------------------------------------------------------------------
# timed layer
# ---------------------------------------------------------------------------


@dataclass
class RowWiseWorkload:
    """One device's byte accounting under row-wise sharding.

    Every device reads ~``nnz_total / G`` embedding rows (uniform hashing)
    but writes a partial for **every** (table, sample) pair — output volume
    is ``B × T × d`` per device, G× the table-wise case.
    """

    device_id: int
    n_devices: int
    batch_size: int
    num_tables: int
    row_bytes: int
    nnz_local: int
    nnz_scanned: int  #: indices examined (ownership test touches them all)
    num_blocks: int
    samples_per_block: int
    block_dst_bytes: np.ndarray  #: (num_blocks, G) partial-output bytes

    @property
    def bytes_read(self) -> float:
        """Local row gathers + the full index scan."""
        return (
            float(self.nnz_local) * self.row_bytes
            + float(self.nnz_scanned) * INDEX_BYTES
        )

    @property
    def bytes_written(self) -> float:
        """One partial vector per (table, sample)."""
        return float(self.batch_size * self.num_tables) * self.row_bytes

    @property
    def output_bytes_by_dst(self) -> np.ndarray:
        """Partial-output bytes destined to each owner."""
        return self.block_dst_bytes.sum(axis=0)

    @property
    def remote_output_bytes(self) -> float:
        """Partial bytes leaving this device."""
        out = self.output_bytes_by_dst
        return float(out.sum() - out[self.device_id])

    def kernel_spec(self, name: str) -> KernelSpec:
        """Simulator launch for this device's partial-pooling kernel."""
        return KernelSpec(
            name=f"{name}.dev{self.device_id}",
            num_blocks=self.num_blocks,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            flops=float(self.nnz_local) * (self.row_bytes / 4.0),
            min_waves_for_peak=EMB_MIN_WAVES_FOR_PEAK,
        )

    def wave_dst_bytes(self, concurrent_blocks: int) -> np.ndarray:
        """Per-wave owner byte matrix (as in the table-wise workload)."""
        if concurrent_blocks <= 0:
            raise ValueError("concurrent_blocks must be positive")
        n_waves = math.ceil(self.num_blocks / concurrent_blocks) if self.num_blocks else 0
        out = np.zeros((n_waves, self.n_devices))
        for w in range(n_waves):
            lo = w * concurrent_blocks
            hi = min(lo + concurrent_blocks, self.num_blocks)
            out[w] = self.block_dst_bytes[lo:hi].sum(axis=0)
        return out


def build_rowwise_workloads(
    plan: RowWiseSharding,
    lengths_by_feature: Mapping[str, np.ndarray],
    *,
    samples_per_block: int = EMB_SAMPLES_PER_BLOCK,
) -> List[RowWiseWorkload]:
    """Derive per-device row-wise workloads from pooling factors.

    Row ownership of a uniform-hashed lookup is uniform over devices, so
    each device's expected gather share is ``nnz / G`` (the functional
    layer uses the exact per-index ownership; byte-level timing only needs
    the expectation).
    """
    missing = [t.name for t in plan.table_configs if t.name not in lengths_by_feature]
    if missing:
        raise KeyError(f"no lengths for features: {missing}")
    sizes = {np.asarray(l).shape[0] for l in lengths_by_feature.values()}
    if len(sizes) != 1:
        raise ValueError(f"inconsistent batch sizes in lengths: {sorted(sizes)}")
    B = sizes.pop()
    G = plan.n_devices
    T = plan.num_tables
    rb = plan.table_configs[0].row_bytes
    nnz_total = int(sum(int(np.sum(l)) for l in lengths_by_feature.values()))

    n_chunks = math.ceil(B / samples_per_block)
    owners = sample_owner(B, G)
    chunk_dst_counts = np.zeros((n_chunks, G), dtype=np.int64)
    chunk_ids = np.arange(B) // samples_per_block
    np.add.at(chunk_dst_counts, (chunk_ids, owners), 1)
    # Every device runs the same grid: all T tables × all sample chunks.
    block_dst = np.tile(chunk_dst_counts, (T, 1)).astype(np.float64) * rb

    workloads = []
    base, rem = divmod(nnz_total, G)
    for dev in range(G):
        workloads.append(
            RowWiseWorkload(
                device_id=dev,
                n_devices=G,
                batch_size=B,
                num_tables=T,
                row_bytes=rb,
                nnz_local=base + (1 if dev < rem else 0),
                nnz_scanned=nnz_total,
                num_blocks=T * n_chunks,
                samples_per_block=samples_per_block,
                block_dst_bytes=block_dst,
            )
        )
    return workloads


class RowWiseBaselineRetrieval:
    """Timed collective path: partial kernel → a2a → reduce+rearrange."""

    def __init__(
        self,
        cluster: Cluster,
        collective_spec: Optional[CollectiveSpec] = None,
        unpack_bandwidth: float = UNPACK_BANDWIDTH,
    ):
        self.cluster = cluster
        self.collectives = CollectiveContext(cluster, collective_spec)
        self.unpack_bandwidth = unpack_bandwidth

    def run_batch(self, workloads: Sequence[RowWiseWorkload]) -> PhaseTiming:
        """Simulate one row-wise baseline forward pass."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(self, cluster, workloads, timing) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        coll = self.collectives
        t0 = engine.now

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            dev.default_stream.submit_delay(dev.spec.kernel_launch_overhead_ns, "launch")
            k = wl.kernel_spec("rowwise_base_emb")
            ops.append(dev.default_stream.launch(dev, k))
        yield engine.all_of([op.done for op in ops])
        yield engine.timeout(spec0.sync_overhead_ns)
        t1 = engine.now

        # All-to-all of partials: split[src][dst] = B_dst * T * rb.
        split = np.zeros((G, G))
        for wl in workloads:
            split[wl.device_id] = wl.output_bytes_by_dst
        np.fill_diagonal(split, 0.0)
        handle = coll.all_to_all_single(split)
        yield from handle.wait()
        t2 = engine.now

        # Reduce G partials + rearrange: read G x (B_g, T, d), write one.
        if G > 1:
            ops = []
            for dev, wl in zip(cluster.devices, workloads):
                own = float(wl.output_bytes_by_dst[dev.id])
                to_touch = own * G + own  # G reads + 1 write per element
                ops.append(dev.default_stream.submit_delay(
                    dev.spec.kernel_launch_overhead_ns + to_touch / self.unpack_bandwidth,
                    name=f"reduce.dev{dev.id}",
                ))
            yield engine.all_of([op.done for op in ops])
            yield engine.timeout(spec0.sync_overhead_ns)
        t3 = engine.now

        control = coll.spec.launch_overhead_ns + coll.spec.wait_overhead_ns
        timing.compute_ns = t1 - t0
        timing.comm_ns = max(t2 - t1 - control, 0.0) if G > 1 else 0.0
        timing.sync_unpack_ns = (t3 - t2) + min(control, t2 - t1)
        timing.total_ns = t3 - t0


class RowWisePGASRetrieval:
    """Timed one-sided path: partial kernel with per-wave remote atomics."""

    def __init__(
        self,
        cluster: Cluster,
        pgas_spec: Optional[PGASSpec] = None,
        remote_write_drag: float = REMOTE_WRITE_KERNEL_DRAG,
    ):
        self.cluster = cluster
        self.pgas = PGASContext(cluster, pgas_spec)
        self.remote_write_drag = remote_write_drag

    def run_batch(self, workloads: Sequence[RowWiseWorkload]) -> PhaseTiming:
        """Simulate one row-wise PGAS forward pass."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(self, cluster, workloads, timing) -> ProcessGenerator:
        engine = cluster.engine
        spec0 = cluster.devices[0].spec
        G = cluster.n_devices
        t0 = engine.now

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            waves_dst = wl.wave_dst_bytes(dev.spec.concurrent_blocks)
            base = wl.kernel_spec("rowwise_pgas_emb")
            drag = 0.0
            if G > 1 and wl.remote_output_bytes > 0:
                peer = (dev.id + 1) % G
                bw = cluster.topology.link_spec(dev.id, peer).bandwidth
                spec = self.pgas.spec
                wire = wl.remote_output_bytes * (1 + spec.header_bytes / spec.message_bytes)
                drag = self.remote_write_drag * wire / bw
            kspec = KernelSpec(
                name=base.name, num_blocks=base.num_blocks,
                bytes_read=base.bytes_read, bytes_written=base.bytes_written,
                flops=base.flops, stretch_ns=drag,
                min_waves_for_peak=base.min_waves_for_peak,
            )

            def on_wave(
                info: WaveInfo, dev_id=dev.id, wdst=waves_dst, put=self.pgas.put,
                others=[d for d in range(G) if d != dev.id],
            ) -> None:
                payloads = wdst[info.index].tolist()
                del payloads[dev_id]
                if any(payloads):
                    put(dev_id, others, payloads)

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


# ---------------------------------------------------------------------------
# §V backward under row-wise sharding: the shift-rounds pattern
# ---------------------------------------------------------------------------


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

    def run_batch(self, workloads: Sequence[RowWiseWorkload]) -> PhaseTiming:
        """Simulate one row-wise backward pass; returns its phase timing."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(self, cluster, workloads, timing) -> ProcessGenerator:
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
            rmw = 3.0 * float(wl.nnz_local) * wl.row_bytes
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
    def _shift_split(workloads: Sequence[RowWiseWorkload]) -> np.ndarray:
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

    def run_batch(self, workloads: Sequence[RowWiseWorkload]) -> PhaseTiming:
        """Simulate one fused row-wise backward pass."""
        timing = PhaseTiming(batches=1)
        self.cluster.run(lambda cl: self._process(cl, workloads, timing))
        return timing

    def _process(self, cluster, workloads, timing) -> ProcessGenerator:
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


# ---------------------------------------------------------------------------
# functional backward under row-wise sharding
# ---------------------------------------------------------------------------


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
    from .backward import table_row_gradients

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
