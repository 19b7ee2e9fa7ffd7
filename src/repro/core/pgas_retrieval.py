"""The PGAS fused retrieval (timed path) — the paper's contribution.

One fused CUDA kernel per device (Listing 2): as each wave of thread
blocks retires, the pooled embedding vectors belonging to *remote*
mini-batches are written straight to the owning GPU's output tensor as
one-sided small messages; local vectors are stored in place.  After its
kernel finishes, each device issues a ``quiet`` (drain outstanding puts)
and all devices rendezvous — the ``cudaStreamSynchronize`` loop at the end
of ``PGAS_EMB_forward``.

There is no separate communication phase and no unpack: the only exposed
communication cost is whatever message drain outlives the computation,
plus the fixed quiet/rendezvous overhead.  The in-kernel cost of issuing
remote writes is modelled by stretching the kernel body by
``REMOTE_WRITE_KERNEL_DRAG`` × (remote wire time) — see calibration notes.

Phase accounting: the whole pass is a single ``fused`` span; the
:class:`~repro.core.baseline.PhaseTiming` fields report it as ``compute``
(overlapped) with the exposed tail in ``sync_unpack`` (quiet + barrier),
so breakdown plots can show PGAS as one bar, as the paper does.

What a launch needs from its workload (the drag-stretched kernel spec
and the per-wave destination bytes) is its launch plan, derived once per
workload and kept while the workload lives: serving runs the same frozen
workloads for every batch of one size under fixed pooling.  On the flat
path an untraced launch hands the plan's per-wave bytes to
:meth:`~repro.comm.pgas.PGASContext.put_run` as one deferred run, so its
waves take no engine entry; a traced launch puts wave by wave.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..comm.hier import HierSpec

from ..comm.pgas import PGASContext, PGASSpec
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.interconnect import Topology, wire_bytes
from ..simgpu.kernel import KernelSpec, WaveInfo
from ..simgpu.stream import join
from .baseline import PhaseTiming, TimedPass
from .calibration import REMOTE_WRITE_KERNEL_DRAG
from .workload import DeviceWorkload

__all__ = ["PGASFusedRetrieval"]

#: Per device: the remote destinations whose bytes pay first-hop drag, each
#: one's first-hop bandwidth, and the one bandwidth they all share (None
#: when they differ).
FirstHops = Tuple[np.ndarray, List[float], Optional[float]]


def first_hop_table(topology: Topology, hier: Optional["HierSpec"] = None) -> List[FirstHops]:
    """Every device's :data:`FirstHops` on ``topology``.

    The first hop is the direct link normally, and the fast-fabric hop to
    the node leader when ``hier`` stages the write off-node.  A leader's
    own staged writes start as local buffer appends, so they pay no
    first-hop drag and are left out, and so is a destination with no
    first hop (its first write raises for want of peer access).  Each
    source's links come from one :meth:`~Topology.row_specs` read.
    """
    G = topology.n_devices
    out = []
    for dev_id in range(G):
        row = topology.row_specs(dev_id)
        dsts, bws = [], []
        for dst in range(G):
            if dst == dev_id:
                continue
            hop = dst
            if hier is not None and not hier.same_node(dev_id, dst):
                hop = hier.leader_of(hier.node_of(dev_id))
                if dev_id == hop:
                    continue
            link = row[hop]
            if link is None:
                continue  # no peer access either: the first write there raises
            dsts.append(dst)
            bws.append(link.bandwidth)
        shared = bws[0] if bws and all(bw == bws[0] for bw in bws) else None
        out.append((np.array(dsts, dtype=np.intp), bws, shared))
    return out


def first_hop_bandwidth(hops: FirstHops, by_dst: np.ndarray) -> Optional[float]:
    """Traffic-weighted first-hop bandwidth for the drag model.

    Each destination's bytes (``by_dst``, indexed by device) leave the
    kernel over that destination's first hop.  Weighting by them
    (harmonic mean over destinations) replaces the old arbitrary-peer
    sample, which mispriced the drag on heterogeneous multinode fabrics —
    an NVLink neighbour masked the NIC cost or vice versa.  Where every
    first hop shares one bandwidth, that value is returned exactly (no
    floating-point drift); None means no destination gets bytes.
    """
    dsts, bws, shared = hops
    if shared is not None:
        return shared if (by_dst[dsts] > 0).any() else None
    shares = [
        (float(by_dst[dst]), bw) for dst, bw in zip(dsts.tolist(), bws) if by_dst[dst] > 0
    ]
    if not shares:
        return None
    first_bw = shares[0][1]
    if all(bw == first_bw for _, bw in shares):
        return first_bw
    total = sum(nbytes for nbytes, _ in shares)
    return total / sum(nbytes / bw for nbytes, bw in shares)


class _LaunchPlan:
    """One workload's fused launch on one pass's cluster, and its wave hook
    on the flat path.

    ``kspec`` is the kernel with its remote-write drag, ``waves_dst`` the
    read-only ``(n_waves, G)`` bytes each wave sends to each device when
    it retires, and ``others`` the remote destinations in id order.  A
    wave's payload list is read when it retires: held for every wave of
    every device, the lists raised ``scale-g64``'s peak RSS by 3 %.
    Nothing here refers to the workload, which keys the plan weakly.

    Called at a retiring wave's end (a traced launch), the plan puts the
    wave's remote vectors at once.  Any other launch instead hands it every
    wave end (``take_run``), and the launch's puts become one deferred run
    (:meth:`~repro.comm.pgas.PGASContext.put_run`).  ``deferrable`` is
    the one screen of the bytes, made with the plan: a NaN, infinite or
    negative byte count keeps the per-wave puts, whose checks raise at
    the bad wave's end.
    """

    __slots__ = ("kspec", "waves_dst", "others", "pgas", "src", "deferrable")

    def __init__(
        self, kspec: KernelSpec, waves_dst: np.ndarray, others: List[int],
        pgas: PGASContext, src: int,
    ):
        self.kspec = kspec
        self.waves_dst = waves_dst
        self.others = others
        self.pgas = pgas
        self.src = src
        # Plain Python: a plan's matrix is small, and two numpy reductions
        # cost more than the lists below a few hundred elements.  A NaN or
        # an infinity fails the finite sum (an overflow only declines).
        rows = waves_dst.tolist()
        self.deferrable = not rows or (
            sum(map(sum, rows)) < np.inf and min(map(min, rows)) >= 0.0
        )

    def __call__(self, info: WaveInfo) -> None:
        payloads = self.waves_dst[info.index].tolist()
        del payloads[self.src]
        if any(payloads):
            self.pgas.put(self.src, self.others, payloads)

    def take_run(self, ends: List[float], fracs: List[float]) -> bool:
        return self.deferrable and self.pgas.put_run(
            self.src, self.others, ends, self.waves_dst, self.src
        )


class PGASFusedRetrieval(TimedPass):
    """Timed EMB forward using fused one-sided communication.

    With ``aggregate`` set, remote writes route through the §V
    :class:`~repro.core.aggregator.AsyncAggregator` instead of leaving as
    individual small messages — the multi-node variant
    (``aggregator.store(outputs[output_idx], sum, pe)``).

    With ``hier_spec`` set (and active for this device count), *off-node*
    writes instead route through the hierarchical
    :class:`~repro.comm.hier.NodeStagingRouter`: forwarded to the node
    leader over the fast fabric, staged per destination node, and crossed
    over the NIC as one coalesced message stream per node pair.  Same-node
    remote writes keep their direct path (aggregator or plain put).  An
    inactive spec leaves every write on the flat path, event-identical.
    """

    def __init__(
        self,
        cluster: Cluster,
        pgas_spec: Optional[PGASSpec] = None,
        remote_write_drag: float = REMOTE_WRITE_KERNEL_DRAG,
        aggregate: bool = False,
        hier_spec: Optional["HierSpec"] = None,
    ):
        if remote_write_drag < 0:
            raise ValueError("remote_write_drag must be non-negative")
        self.cluster = cluster
        self.pgas = PGASContext(cluster, pgas_spec)
        self.remote_write_drag = remote_write_drag
        self.aggregator = None
        if aggregate:
            from .aggregator import AsyncAggregator

            self.aggregator = AsyncAggregator(self.pgas)
        self.router = None
        if hier_spec is not None:
            hier_spec.validate_for(cluster.n_devices)
            if hier_spec.active(cluster.n_devices):
                from ..comm.hier import NodeStagingRouter

                self.router = NodeStagingRouter(self.pgas, hier_spec)
        #: workload -> its launch plan; an entry dies with its workload
        self._plans: "WeakKeyDictionary[DeviceWorkload, _LaunchPlan]" = WeakKeyDictionary()

    # -- internals -------------------------------------------------------------------

    def _kernel_drag_ns(self, wl: DeviceWorkload, link_bandwidth: float) -> float:
        """In-kernel slowdown from issuing this device's remote writes."""
        if self.remote_write_drag == 0.0 or wl.remote_output_bytes == 0:
            return 0.0
        spec = self.pgas.spec
        wire = wire_bytes(wl.remote_output_bytes, spec.message_bytes, spec.header_bytes)
        return self.remote_write_drag * wire / link_bandwidth

    @cached_property
    def _first_hops(self) -> List[FirstHops]:
        """:func:`first_hop_table` of this pass's fabric and router."""
        hier = self.router.hier if self.router is not None else None
        return first_hop_table(self.cluster.topology, hier)

    def _launch_plan(self, wl: DeviceWorkload, concurrent_blocks: int) -> _LaunchPlan:
        """``wl``'s launch plan on this pass's cluster, derived once per
        workload: its drag and kernel spec, and its per-wave bytes."""
        plan = self._plans.get(wl)
        if plan is None:
            G = self.cluster.n_devices
            # Traffic-weighted first-hop bandwidth; used only for the drag
            # model (zero-traffic devices pay no drag).
            link_bw = (
                first_hop_bandwidth(self._first_hops[wl.device_id], wl.output_bytes_by_dst)
                if G > 1 else None
            )
            drag = self._kernel_drag_ns(wl, link_bw) if link_bw is not None else 0.0
            plan = self._plans[wl] = _LaunchPlan(
                wl.kernel_spec("pgas_fused_emb", stretch_ns=drag),
                wl.wave_dst_bytes(concurrent_blocks),
                [d for d in range(G) if d != wl.device_id],
                self.pgas,
                wl.device_id,
            )
        return plan

    def _start(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        stream_suffix: str = "",
    ) -> Event:
        """One batch's host program — composable into larger host
        programs (e.g. the full-pipeline simulation overlaps this with the
        dense MLP, as in the paper's Fig. 4).  ``timing`` is filled in at
        completion.  ``stream_suffix`` selects a per-batch stream set so
        concurrent batches don't serialise on one FIFO queue."""
        engine = cluster.engine

        # Where a remote write goes: one-sided small messages (Listing 2's
        # sum.store(..., pe)), one put per retiring wave or one deferred run
        # per booked launch; or, one write at a time, the aggregator in the
        # multi-node variant or the staging router for off-node writes.
        send = None
        if self.router is not None:
            put = self.pgas.put
            router_put, same_node = self.router.put, self.router.hier.same_node

            def send(src: int, dst: int, payload: float) -> None:
                if same_node(src, dst):
                    put(src, dst, payload)
                else:
                    router_put(src, dst, payload)

        elif self.aggregator is not None:
            send = self.aggregator.store

        def flush() -> None:
            # Multi-node variant: push any residual aggregation/staging
            # buffers out before quiescing (the kernel-end flush of ref [7]).
            if self.router is not None:
                self.router.flush_all()
            if self.aggregator is not None:
                self.aggregator.flush_all()

        ops = []
        for dev, wl in zip(cluster.devices, workloads):
            plan = self._launch_plan(wl, dev.spec.concurrent_blocks)
            if send is None:
                on_wave = plan
            else:

                def on_wave(
                    info: WaveInfo, dev_id: int = dev.id, wdst: np.ndarray = plan.waves_dst
                ) -> None:
                    for dst, payload in enumerate(wdst[info.index].tolist()):
                        if dst != dev_id and payload > 0:
                            send(dev_id, dst, payload)

            stream = dev.stream("default" + stream_suffix)
            stream.submit_delay(dev.spec.kernel_launch_overhead_ns, name="launch")
            ops.append(stream.launch(dev, plan.kspec, on_wave))
        return self._fused_end(
            cluster, self.pgas, join(engine, ops), timing, flush, span="pgas_fused"
        )

