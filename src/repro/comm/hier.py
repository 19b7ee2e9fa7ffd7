"""Topology-aware hierarchical communication: two-level routing over nodes.

The §V multi-node setting is bounded by the inter-node NIC, whose
:class:`~repro.simgpu.interconnect.LinkSpec` charges a per-message
descriptor cost — yet flat routing moves every device→device payload
point-to-point, so ``N`` nodes × ``P`` GPUs pay ``(N·P)²`` NIC message
streams where ``N²`` coalesced ones would do.  This module implements the
standard remedy (NVSHMEM-style hierarchies, fused forwarding along the
fast fabric): stage intra-node over NVLink, cross nodes once per ordered
node pair.

* :class:`HierSpec` — the routing policy: node geometry
  (``devices_per_node``).  Rank 0 of each node is its leader.  A
  coalesced NIC transfer goes as one message with one
  :data:`NIC_HEADER_BYTES` header.  ``devices_per_node == 1`` (or a single
  node) disables routing entirely: the flat path is recovered exactly,
  event for event.
* :class:`TwoLevelAllToAll` — the baseline's collective, hierarchically:
  intra-node gather of per-destination-node payloads to a node leader
  (plain chunked peer copies over NVLink — no collective-algorithm
  derate, staging bypasses NCCL), one coalesced NIC transfer per ordered
  node pair, then an intra-node scatter on the far side.  Same
  :class:`~repro.comm.collective.WorkHandle` contract as the flat
  collective, so :class:`~repro.core.baseline.BaselineRetrieval` swaps it
  in without touching phase accounting.
* :class:`NodeStagingRouter` — hierarchical PGAS: remote writes destined
  off-node land in a per-(source-node, destination-node) staging buffer
  (the :class:`~repro.core.aggregator.AsyncAggregator` flush policy —
  :data:`STAGE_FLUSH_BYTES` size trigger or :data:`STAGE_MAX_WAIT_NS`
  timer), forwarding non-leader payloads to the
  node leader over NVLink first; each flush crosses the NIC as one
  aggregated leader→leader message stream and scatters to the final
  destinations on arrival.  Every put registers a completion-chain event
  with the PGAS outstanding set, so ``quiet`` retains its NVSHMEM
  drain-everything semantics through the staging hops.

Routing changes *timing only*: payload bytes, destinations, and the
functional outputs are untouched, which is what the ``tests/hier``
bit-identity suite pins.

Counters (``hier.fwd_bytes`` / ``hier.nic_bytes`` / ``hier.scatter_bytes``
/ ``hier.stores`` / ``hier.flushes`` / ``hier.nic_transfers``) and the
``"hier"``-category leader/staging spans feed the
:class:`~repro.telemetry.RunReport` ``hier`` section (schema v6) and
Chrome traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..checks import checked_count
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.interconnect import Interconnect
from ..simgpu.stream import join
from ..simgpu.units import KiB, us
from .collective import LAUNCH_OVERHEAD_NS, CollectiveSpec, WorkHandle, chunk_waves
from .pgas import PGASContext

__all__ = [
    "FWD_COUNTER",
    "HierSpec",
    "NIC_COUNTER",
    "NodeStagingRouter",
    "SCATTER_COUNTER",
    "TwoLevelAllToAll",
    "inter_node_message_count",
    "inter_node_wire_bytes",
]

#: payload bytes forwarded intra-node to the source-side leader
FWD_COUNTER = "hier.fwd_bytes"
#: payload bytes crossing the NIC as coalesced leader→leader transfers
NIC_COUNTER = "hier.nic_bytes"
#: payload bytes scattered intra-node from the destination-side leader
SCATTER_COUNTER = "hier.scatter_bytes"

#: Wire framing of a coalesced leader→leader NIC transfer: ``0`` carries it
#: as a single message (the maximal coalescing that pins the message-count
#: invariant), with one header of ``NIC_HEADER_BYTES``
NIC_MESSAGE_BYTES = 0
NIC_HEADER_BYTES = 64

#: PGAS staging size trigger: a (source-node, destination-node) buffer
#: flushes once it holds this much payload
STAGE_FLUSH_BYTES = 64 * KiB
#: PGAS staging time trigger: a buffer holding data flushes at most this
#: long after its oldest pending byte arrived
STAGE_MAX_WAIT_NS = 50 * us


@dataclass(frozen=True)
class HierSpec:
    """Routing policy of the hierarchical communication layer.

    Attributes
    ----------
    devices_per_node:
        Node geometry: devices ``[k*P, (k+1)*P)`` form node ``k``.  Must
        divide the device count.  ``1`` means every device is its own
        node — hierarchical routing is a no-op and the flat path runs
        unchanged (the degenerate-identity invariant).
    """

    devices_per_node: int = 4

    def __post_init__(self) -> None:
        checked_count("HierSpec", "devices_per_node", self.devices_per_node)

    # -- node geometry --------------------------------------------------------

    def node_of(self, device_id: int) -> int:
        """The node a device belongs to."""
        return device_id // self.devices_per_node

    def leader_of(self, node: int) -> int:
        """The device id of a node's leader, its rank 0."""
        return node * self.devices_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when both devices share a node (fast-fabric reachable)."""
        return self.node_of(a) == self.node_of(b)

    def n_nodes(self, n_devices: int) -> int:
        """Node count for a device count (validate first)."""
        return n_devices // self.devices_per_node

    def validate_for(self, n_devices: int) -> None:
        """Raise unless the node geometry tiles ``n_devices`` exactly."""
        if n_devices % self.devices_per_node != 0:
            raise ValueError(
                f"devices_per_node={self.devices_per_node} does not divide "
                f"n_devices={n_devices}"
            )

    def active(self, n_devices: int) -> bool:
        """Whether hierarchical routing changes anything for this size.

        False for ``devices_per_node == 1`` (all-singleton nodes) and for
        a single node (no inter-node traffic exists) — the callers bypass
        the hierarchy entirely then, keeping the flat path event-identical.
        """
        return 1 < self.devices_per_node < n_devices


# -- fabric accounting -------------------------------------------------------


def inter_node_message_count(interconnect: Interconnect, devices_per_node: int) -> int:
    """Messages carried so far on links that cross a node boundary."""
    if devices_per_node <= 0:
        raise ValueError("devices_per_node must be positive")
    return sum(
        lk.messages_sent
        for lk in interconnect.links()
        if lk.src // devices_per_node != lk.dst // devices_per_node
    )


def inter_node_wire_bytes(interconnect: Interconnect, devices_per_node: int) -> float:
    """Wire bytes (incl. headers) carried so far on inter-node links."""
    if devices_per_node <= 0:
        raise ValueError("devices_per_node must be positive")
    return sum(
        lk.bytes_carried
        for lk in interconnect.links()
        if lk.src // devices_per_node != lk.dst // devices_per_node
    )


# -- baseline: two-level all-to-all ------------------------------------------


class TwoLevelAllToAll:
    """Hierarchical ``all_to_all_single`` for the collective baseline.

    Same-node pairs transfer exactly as the flat collective does (chunked,
    with the NCCL algorithm derate).  For each ordered node pair the
    cross-node traffic runs a three-hop chain: gather the senders'
    per-destination-node payloads to the source leader over NVLink, cross
    the NIC once as a coalesced transfer, scatter from the destination
    leader.  The staging hops are plain chunked peer copies at full fabric
    rate — they bypass the collective algorithm, like the PGAS path.
    """

    def __init__(
        self,
        cluster: Cluster,
        spec: Optional[CollectiveSpec] = None,
        hier: Optional[HierSpec] = None,
    ):
        self.cluster = cluster
        self.spec = spec or CollectiveSpec()
        self.hier = hier or HierSpec()
        self.hier.validate_for(cluster.n_devices)

    # -- internals ------------------------------------------------------------

    def _chunked(
        self, pairs: List[Tuple[int, int, float]], *, derate: bool, counter: Optional[str]
    ) -> List[Event]:
        """Chunked ``(src, dst, nbytes)`` transfers, each pair's chunks booked
        as one wave; returns one event per moving pair, at its latest
        delivery.  Flat-collective math when ``derate``."""
        if not pairs:
            return []
        srcs, dsts, nbytes = zip(*pairs)
        interconnect = self.cluster.interconnect
        engine = self.cluster.engine
        counter = counter or interconnect.COUNTER
        events = []
        for src, wave_dsts, sizes, headers in chunk_waves(
            self.spec, srcs, np.array(dsts)[:, None], np.array(nbytes)[:, None], derate=derate
        ):
            done = interconnect.book_wave(src, wave_dsts, sizes, 0, headers, counter)
            ev = Event(engine, "xfer")
            engine.call_at(max(done), ev.succeed)
            events.append(ev)
        return events

    def _node_pair_chain(self, src_node: int, dst_node: int, split: np.ndarray) -> Event:
        """Gather → coalesced NIC hop → scatter for one ordered node pair;
        returns the chain's end event."""
        hier = self.hier
        P = hier.devices_per_node
        engine = self.cluster.engine
        prof = self.cluster.profiler
        s_lo, d_lo = src_node * P, dst_node * P
        s_leader, d_leader = hier.leader_of(src_node), hier.leader_of(dst_node)
        t0 = engine.now

        def gather() -> Optional[Event]:
            chunks = self._chunked(
                [
                    (s, s_leader, float(split[s, d_lo:d_lo + P].sum()))
                    for s in range(s_lo, s_lo + P)
                    if s != s_leader
                ],
                derate=False, counter=FWD_COUNTER,
            )
            return join(engine, chunks) if chunks else None

        def nic_hop() -> Event:
            total = float(split[s_lo:s_lo + P, d_lo:d_lo + P].sum())
            nic = self.cluster.interconnect.transfer(
                s_leader, d_leader, total,
                message_bytes=NIC_MESSAGE_BYTES,
                header_bytes=NIC_HEADER_BYTES,
                counter=NIC_COUNTER,
            )
            prof.add_count("hier.nic_transfers", engine.now, 1.0)
            return nic

        def scatter() -> Optional[Event]:
            chunks = self._chunked(
                [
                    (d_leader, d, float(split[s_lo:s_lo + P, d].sum()))
                    for d in range(d_lo, d_lo + P)
                    if d != d_leader
                ],
                derate=False, counter=SCATTER_COUNTER,
            )
            return join(engine, chunks) if chunks else None

        def finish() -> None:
            prof.record_span(
                f"hier.pair.n{src_node}->n{dst_node}", "hier", s_leader, t0, engine.now
            )

        return self.cluster.chain(gather, nic_hop, scatter, finish)

    # -- the collective --------------------------------------------------------

    def all_to_all_single(self, split_bytes: np.ndarray) -> WorkHandle:
        """Two-level all-to-all with byte matrix ``split_bytes[src, dst]``.

        Control path (launch overhead, ``wait()`` sync) is charged exactly
        as the flat collective charges it, so phase accounting in
        :class:`~repro.core.baseline.BaselineRetrieval` is unchanged.
        """
        split = np.asarray(split_bytes, dtype=np.float64)
        G = self.cluster.n_devices
        if split.shape != (G, G):
            raise ValueError(f"split_bytes must be ({G}, {G}), got {split.shape}")
        if np.any(split < 0):
            raise ValueError("split_bytes must be non-negative")
        hier = self.hier
        engine = self.cluster.engine
        done = engine.event("two_level_all_to_all")

        def control() -> None:
            # Same-node pairs: flat chunked transfers, unchanged math.
            waitables = self._chunked(
                [
                    (src, dst, float(split[src, dst]))
                    for src in range(G)
                    for dst in range(G)
                    if src != dst and hier.same_node(src, dst)
                ],
                derate=True, counter=None,
            )
            # Cross-node traffic: one gather/NIC/scatter chain per ordered
            # node pair with any payload.
            N = hier.n_nodes(G)
            P = hier.devices_per_node
            for sn in range(N):
                for dn in range(N):
                    if sn == dn:
                        continue
                    block = split[sn * P:(sn + 1) * P, dn * P:(dn + 1) * P]
                    if not block.any():
                        continue
                    waitables.append(self._node_pair_chain(sn, dn, split))
            if waitables:
                join(engine, waitables).add_callback(done.succeed)
            else:
                done.succeed()

        engine.call_in(LAUNCH_OVERHEAD_NS, control)
        return WorkHandle(self.cluster, done, "two_level_all_to_all")


# -- PGAS: node-leader staging ------------------------------------------------


@dataclass
class _StageBuffer:
    """One (source-node, destination-node) staging buffer's pending state."""

    first_at: float
    payload: float = 0.0
    by_dst: Dict[int, float] = field(default_factory=dict)
    hop1: List[Event] = field(default_factory=list)
    chains: List[Event] = field(default_factory=list)


class NodeStagingRouter:
    """Per-node staging for off-node one-sided writes.

    The hierarchical PGAS variant: ``put`` forwards a non-leader source's
    payload to its node leader over the fast fabric and accumulates it in
    the (source-node, destination-node) staging buffer; the buffer flushes
    (size threshold or max-wait timer, the
    :class:`~repro.core.aggregator.AsyncAggregator` policy) as **one**
    coalesced leader→leader NIC transfer followed by an intra-node scatter
    to the final destinations.  Each put's completion-chain event is
    registered with the PGAS outstanding set at issue time, so ``quiet``
    drains the full forward → NIC → scatter chain.
    """

    def __init__(self, pgas: PGASContext, spec: Optional[HierSpec] = None):
        self.pgas = pgas
        self.hier = spec or HierSpec()
        self.cluster = pgas.cluster
        self.hier.validate_for(self.cluster.n_devices)
        self._pending: Dict[Tuple[int, int], _StageBuffer] = {}
        self._timers: Dict[Tuple[int, int], object] = {}
        self.stores = 0
        self.flushes = 0

    # -- the Listing-2 replacement call ---------------------------------------

    def put(self, src: int, dst: int, payload_bytes: float) -> None:
        """Stage an off-node one-sided write (same-node writes stay direct).

        Raises the typed errors of :meth:`PGASContext.put
        <repro.comm.pgas.PGASContext.put>`, through its validator.
        """
        hier = self.hier
        self.pgas.check_put("put", src, dst, payload_bytes)
        if hier.same_node(src, dst):
            raise ValueError(
                f"devices {src} and {dst} share a node; use a direct put"
            )
        if payload_bytes == 0:
            return
        engine = self.cluster.engine
        prof = self.cluster.profiler
        key = (hier.node_of(src), hier.node_of(dst))
        leader = hier.leader_of(key[0])
        # The chain event completes when this payload has fully landed at
        # its final destination (after the scatter hop); registering it per
        # put preserves NVSHMEM quiet semantics across the staging hops.
        chain = engine.event(f"hier_put{src}->n{key[1]}")
        self.pgas.register_outstanding(src, chain)
        hop1 = None
        if src != leader:
            hop1 = self.cluster.interconnect.transfer(
                src, leader, payload_bytes,
                message_bytes=self.pgas.spec.message_bytes,
                header_bytes=self.pgas.spec.header_bytes,
                counter=FWD_COUNTER,
            )
        buf = self._pending.get(key)
        if buf is None:
            buf = _StageBuffer(first_at=engine.now)
            self._pending[key] = buf
            self._arm_timer(key)
        buf.payload += payload_bytes
        buf.by_dst[dst] = buf.by_dst.get(dst, 0.0) + payload_bytes
        if hop1 is not None:
            buf.hop1.append(hop1)
        buf.chains.append(chain)
        self.stores += 1
        prof.add_count("hier.stores", engine.now, 1.0)
        if buf.payload >= STAGE_FLUSH_BYTES:
            self.flush(key)

    # -- flushing --------------------------------------------------------------

    def flush(self, key: Tuple[int, int]) -> Optional[Event]:
        """Start the gather-wait → NIC → scatter chain for one buffer now.

        Returns the chain's end event, or None when the buffer was empty.
        """
        buf = self._pending.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            self.cluster.engine.cancel(timer)
        if buf is None or buf.payload <= 0:
            return None
        self.flushes += 1
        return self._flush_chain(key, buf)

    def flush_all(self) -> List[Event]:
        """Flush every staging buffer (kernel-end residue push)."""
        chains = []
        for key in list(self._pending):
            chain = self.flush(key)
            if chain is not None:
                chains.append(chain)
        return chains

    # -- internals --------------------------------------------------------------

    def _flush_chain(self, key: Tuple[int, int], buf: _StageBuffer) -> Event:
        """Gather-wait → NIC → scatter for one flushed buffer, then its
        puts' chain events; returns the chain's end event.

        Staging is fabric work, not the host program of whoever flushes:
        the chain runs on plain engine callbacks, from one entry later, so
        it carries no trace ref.
        """
        hier = self.hier
        src_node, dst_node = key
        s_leader, d_leader = hier.leader_of(src_node), hier.leader_of(dst_node)
        engine = self.cluster.engine
        prof = self.cluster.profiler
        interconnect = self.cluster.interconnect
        done = engine.event(f"hier_flush_n{src_node}->n{dst_node}")
        t0 = engine.now

        def after(events: List[Event], fn) -> None:
            if events:
                join(engine, events).add_callback(fn)
            else:
                fn()

        def nic_hop() -> None:
            nic = interconnect.transfer(
                s_leader, d_leader, buf.payload,
                message_bytes=NIC_MESSAGE_BYTES,
                header_bytes=NIC_HEADER_BYTES,
                counter=NIC_COUNTER,
            )
            prof.add_count("hier.flushes", engine.now, 1.0)
            prof.add_count("hier.nic_transfers", engine.now, 1.0)
            nic.add_callback(scatter)

        def scatter() -> None:
            transfers = [
                interconnect.transfer(
                    d_leader, dst, nbytes,
                    message_bytes=self.pgas.spec.message_bytes,
                    header_bytes=self.pgas.spec.header_bytes,
                    counter=SCATTER_COUNTER,
                )
                for dst, nbytes in buf.by_dst.items()
                if dst != d_leader
            ]
            after(transfers, finish)

        def finish() -> None:
            prof.record_span(
                f"hier.stage.n{src_node}->n{dst_node}", "hier", s_leader, t0, engine.now
            )
            for chain in buf.chains:
                chain.succeed()
            done.succeed()

        engine.call_at(t0, lambda: after(buf.hop1, nic_hop))
        return done

    def _arm_timer(self, key: Tuple[int, int]) -> None:
        """Schedule the max-wait flush for a freshly non-empty buffer."""
        engine = self.cluster.engine

        def on_timer(k: Tuple[int, int] = key) -> None:
            if k in self._pending:
                self.flush(k)

        self._timers[key] = engine.call_in(STAGE_MAX_WAIT_NS, on_timer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NodeStagingRouter pending_pairs={len(self._pending)} "
            f"stores={self.stores} flushes={self.flushes}>"
        )
