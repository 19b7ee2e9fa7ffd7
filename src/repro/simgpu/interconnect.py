"""Interconnect model: links, topologies, and message transfers.

Every ordered device pair gets a :class:`Link` — a FIFO store-and-forward
server with an alpha-beta cost (latency + bytes/bandwidth) and strict
serialisation: concurrent transfers on the same link queue behind each
other, which is how bursts (the baseline's all-to-all) congest while
spread-out traffic (PGAS per-wave writes) does not.

Topology presets mirror the paper's testbed (DGX-1 with four V100s, NVLink)
plus PCIe and multi-node NIC variants for the §V extension studies.  On the
DGX-1, each GPU pair in the 4-GPU clique is joined by NVLink2 lanes; we use
an effective 48 GB/s per direction per pair (two links of 25 GB/s minus
protocol overhead) with sub-microsecond latency.

Small-message inefficiency — central to the paper's PGAS cost analysis —
is modelled explicitly: a transfer of ``nbytes`` carried as messages of
``message_bytes`` each pays ``header_bytes`` per message on the wire
(§IV-A2d: "the message header takes a good portion of bandwidth").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checks import check_bytes
from .engine import Engine, Event
from .profiler import Profiler
from .units import gbps

__all__ = [
    "LinkSpec",
    "Link",
    "Interconnect",
    "Topology",
    "nvlink_dgx1",
    "pcie_topology",
    "multinode_topology",
    "wire_bytes",
    "NVLINK_PAIR_SPEC",
    "PCIE_SPEC",
    "NIC_SPEC",
]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one directed link.

    ``per_message_ns`` is the injection/processing cost of each message on
    the wire — effectively a message-rate ceiling.  NVLink stores coalesce
    in hardware (≈0); a NIC posts work-queue entries and pays descriptor
    handling per message, which is exactly why the paper's §V multi-node
    plan needs the aggregator.
    """

    bandwidth: float  #: bytes per nanosecond (== GB/s)
    latency_ns: float  #: propagation + first-word latency
    per_message_ns: float = 0.0  #: injection cost per message (rate limit)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency_ns < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_ns}")
        if self.per_message_ns < 0:
            raise ValueError(f"per_message_ns must be non-negative, got {self.per_message_ns}")


#: Effective per-direction bandwidth between one V100 pair on a 4-GPU DGX-1
#: clique (2 NVLink2 lanes x 25 GB/s, ~96% protocol efficiency).
NVLINK_PAIR_SPEC = LinkSpec(bandwidth=gbps(48), latency_ns=700.0)

#: PCIe 3.0 x16 host-routed peer path (TLP handling per packet).
PCIE_SPEC = LinkSpec(bandwidth=gbps(12), latency_ns=1800.0, per_message_ns=20.0)

#: 100 Gb/s InfiniBand-class NIC between nodes (~10 M messages/s).
NIC_SPEC = LinkSpec(bandwidth=gbps(11), latency_ns=2500.0, per_message_ns=100.0)


def wire_bytes(payload_bytes: float, message_bytes: int, header_bytes: int) -> float:
    """Bytes actually occupying the wire for ``payload_bytes`` of payload.

    Payload carried in messages of at most ``message_bytes`` each, with
    ``header_bytes`` of framing per message.  ``message_bytes <= 0`` means a
    single message (one header).
    """
    if payload_bytes < 0:
        raise ValueError(f"negative payload: {payload_bytes}")
    if payload_bytes == 0:
        return 0.0
    if message_bytes <= 0:
        return payload_bytes + header_bytes
    n_messages = math.ceil(payload_bytes / message_bytes)
    return payload_bytes + n_messages * header_bytes


def _reserve(
    now: float,
    links: Sequence["Link"],
    payloads: Sequence[float],
    message_bytes: int,
    header_bytes,
) -> Tuple[List[float], List[float]]:
    """Book ``payloads[i]`` on ``links[i]`` in order; returns ``(starts, dones)``.

    The one copy of the reservation arithmetic.  Each payload occupies
    its link from ``start`` (no earlier than ``now``, the link's previous
    reservation or the end of a down window) and has landed at ``done``.
    ``header_bytes`` is one header size for every payload or a sequence
    of one per payload.  Schedules nothing; the caller checked the
    payloads.
    """
    headers = header_bytes if isinstance(header_bytes, (list, tuple)) else repeat(header_bytes)
    ceil = math.ceil
    starts: List[float] = []
    dones: List[float] = []
    for lk, payload, header in zip(links, payloads, headers):
        if message_bytes > 0:
            n_messages = ceil(payload / message_bytes)
        else:
            n_messages = 1 if payload else 0
        wire = payload + n_messages * header
        spec = lk.spec
        # max(now, _free_at, down_until), without the call: a downed link
        # queues traffic until it comes back up.
        start = lk._free_at
        if start < now:
            start = now
        if start < lk.down_until:
            start = lk.down_until
        # Link.effective_bandwidth, inlined: this runs once per write.
        busy = wire / (spec.bandwidth * lk.bandwidth_scale) + n_messages * spec.per_message_ns
        lk._free_at = free = start + busy
        lk.busy_time += busy
        lk.bytes_carried += wire
        lk.transfer_count += 1
        lk.messages_sent += n_messages
        starts.append(start)
        dones.append(free + spec.latency_ns + lk.extra_latency_ns)
    return starts, dones


class Link:
    """A directed FIFO link between two devices.

    Transfers serialise: each reservation starts no earlier than the link's
    previous reservation finished.  Completion = start + wire/bandwidth +
    latency (latency is pipelined, charged once per transfer).  The
    fabric (:class:`Interconnect`) books links through :func:`_reserve`.

    Fault state (driven by :class:`repro.faults.FaultInjector`) composes
    multiplicatively/additively on top of the static :class:`LinkSpec`:
    ``bandwidth_scale`` derates throughput, ``extra_latency_ns`` adds
    propagation delay, and a downed link holds all traffic until
    ``down_until``.  At the defaults (1.0 / 0.0 / -inf) the arithmetic is
    bit-identical to the healthy model.
    """

    def __init__(self, src: int, dst: int, spec: LinkSpec):
        self.src = src
        self.dst = dst
        self.spec = spec
        self._free_at = 0.0
        self.busy_time = 0.0
        self.bytes_carried = 0.0
        self.transfer_count = 0
        self.messages_sent = 0
        self.bandwidth_scale = 1.0
        self.extra_latency_ns = 0.0
        self.down_until = float("-inf")

    # -- fault state -------------------------------------------------------------

    def degrade(self, bandwidth_scale: float = 1.0, extra_latency_ns: float = 0.0) -> None:
        """Apply a multiplicative bandwidth derate / additive latency spike."""
        if bandwidth_scale <= 0:
            raise ValueError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
        if extra_latency_ns < 0:
            raise ValueError(f"extra_latency_ns must be non-negative, got {extra_latency_ns}")
        self.bandwidth_scale *= bandwidth_scale
        self.extra_latency_ns += extra_latency_ns

    def restore(self, bandwidth_scale: float = 1.0, extra_latency_ns: float = 0.0) -> None:
        """Undo a matching :meth:`degrade` (fault window end)."""
        if bandwidth_scale <= 0:
            raise ValueError(f"bandwidth_scale must be positive, got {bandwidth_scale}")
        self.bandwidth_scale /= bandwidth_scale
        self.extra_latency_ns = max(self.extra_latency_ns - extra_latency_ns, 0.0)

    def set_down_until(self, t: float) -> None:
        """Down the link until absolute time ``t`` (extends, never shortens)."""
        self.down_until = max(self.down_until, t)

    def is_down(self, t: float) -> bool:
        """True while the link is inside a down window at time ``t``."""
        return t < self.down_until

    @property
    def effective_bandwidth(self) -> float:
        """Bandwidth after the current fault derate."""
        return self.spec.bandwidth * self.bandwidth_scale

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.src}->{self.dst} {self.spec.bandwidth:.0f}GB/s>"


class Topology:
    """Maps ordered device pairs to :class:`LinkSpec`.

    ``spec_fn(src, dst)`` returns the link spec for that pair; ``None``
    means the pair is unreachable.
    """

    def __init__(
        self,
        n_devices: int,
        spec_fn: Callable[[int, int], Optional[LinkSpec]],
        name: str = "custom",
    ):
        if n_devices <= 0:
            raise ValueError("topology needs at least one device")
        self.n_devices = n_devices
        self.name = name
        self._spec_fn = spec_fn

    def link_spec(self, src: int, dst: int) -> Optional[LinkSpec]:
        """Spec for the directed pair, or None if unconnected."""
        if src == dst:
            return None
        if not (0 <= src < self.n_devices and 0 <= dst < self.n_devices):
            raise ValueError(f"device pair ({src}, {dst}) out of range")
        return self._spec_fn(src, dst)

    def connected(self, src: int, dst: int) -> bool:
        """True if ``src`` can reach ``dst`` directly."""
        return src != dst and self.link_spec(src, dst) is not None


def nvlink_dgx1(n_devices: int, pair_spec: LinkSpec = NVLINK_PAIR_SPEC) -> Topology:
    """All-pairs NVLink clique, as on the paper's 4-GPU DGX-1 testbed."""
    return Topology(n_devices, lambda s, d: pair_spec, name=f"nvlink-dgx1-{n_devices}")


def pcie_topology(n_devices: int, spec: LinkSpec = PCIE_SPEC) -> Topology:
    """Host-routed PCIe peer access (shared-ish; modelled as per-pair links)."""
    return Topology(n_devices, lambda s, d: spec, name=f"pcie-{n_devices}")


def multinode_topology(
    n_devices: int,
    devices_per_node: int,
    intra_spec: LinkSpec = NVLINK_PAIR_SPEC,
    inter_spec: LinkSpec = NIC_SPEC,
) -> Topology:
    """NVLink within a node, NIC across nodes — the §V multi-node setting."""
    if devices_per_node <= 0:
        raise ValueError("devices_per_node must be positive")

    def spec_fn(s: int, d: int) -> LinkSpec:
        return intra_spec if s // devices_per_node == d // devices_per_node else inter_spec

    return Topology(n_devices, spec_fn, name=f"multinode-{n_devices}x{devices_per_node}")


class Interconnect:
    """The fabric: lazily-built links over a topology, plus comm accounting."""

    #: profiler counter receiving every delivered payload byte
    COUNTER = "comm_bytes"

    def __init__(self, engine: Engine, topology: Topology, profiler: Optional[Profiler] = None):
        self.engine = engine
        self.topology = topology
        self.profiler = profiler
        self._links: Dict[Tuple[int, int], Link] = {}
        # src -> {dst: Link}, filled as destinations first appear, so a
        # wave resolves each link with one dict lookup.
        self._routes: Dict[int, Dict[int, Link]] = {}

    def link(self, src: int, dst: int) -> Link:
        """The directed link for ``(src, dst)``; raises if unreachable."""
        key = (src, dst)
        lk = self._links.get(key)
        if lk is None:
            spec = self.topology.link_spec(src, dst)
            if spec is None:
                raise ValueError(
                    f"devices {src} and {dst} are not connected in {self.topology.name}"
                )
            lk = Link(src, dst, spec)
            self._links[key] = lk
        return lk

    def peek_link(self, src: int, dst: int) -> Optional[Link]:
        """The ``(src, dst)`` link if it has been instantiated, else None.

        Unlike :meth:`link` this never creates the link — fault-state
        queries use it so that merely *checking* a pair's health does not
        materialise its Link object (which would perturb bookkeeping).
        """
        return self._links.get((src, dst))

    def _book(
        self,
        src: int,
        dsts: Sequence[int],
        payloads: Sequence[float],
        message_bytes: int,
        header_bytes,
        counter: str,
    ) -> List[float]:
        """Book every element now and stamp its delivery; returns the instants.

        The one booking path behind :meth:`book_wave` and :meth:`transfer`.
        """
        routes = self._routes.get(src)
        if routes is None:
            routes = self._routes[src] = {}
        links = [routes.get(dst) or routes.setdefault(dst, self.link(src, dst)) for dst in dsts]
        starts, done = _reserve(self.engine.now, links, payloads, message_bytes, header_bytes)
        prof = self.profiler
        if prof is not None and prof.enabled:
            if prof.active_trace is not None:
                # Traced bookings also record a link-occupancy span so the
                # critical-path analyser sees individual wire time.  Guarded
                # on an active trace: untraced runs record no extra spans.
                for dst, start, done_at in zip(dsts, starts, done):
                    prof.record_span(f"xfer.dev{src}->dev{dst}", "link", src, start, done_at)
            prof.add_wave(counter, src, dsts, done, payloads)
        return done

    def book_wave(
        self,
        src: int,
        dsts: Sequence[int],
        payloads: Sequence[float],
        message_bytes: int,
        header_bytes,
        counter: str,
    ) -> List[float]:
        """Move a wave of payloads out of ``src`` and schedule nothing.

        Element ``i`` moves ``payloads[i]`` bytes to ``dsts[i]``;
        ``header_bytes`` is one header size for the whole wave or a
        sequence of one per element.  The wave is booked in order, exactly
        as the same payloads issued one at a time at the current instant; a
        zero payload books nothing.  Returns the delivery instants of the
        booked elements, in order.  Each element's whole job is done now,
        at issue: its link is reserved, a traced run records the ``xfer``
        span, and ``counter`` and its per-pair columns are stamped with the
        *payload* bytes at the delivery instant — the paper's instrument
        counts RDMA-write payload in 256-byte units.
        Counters read back in time order, so once the clock has passed an
        instant its sample reads as if it had been stamped on arrival.
        Nothing waits on an individual element: a one-sided put's ``quiet``
        and a collective's completion only need the latest instant.

        The caller validates the wave.
        """
        if not all(payloads):
            keep = [i for i, payload in enumerate(payloads) if payload]
            dsts = [dsts[i] for i in keep]
            payloads = [payloads[i] for i in keep]
            if isinstance(header_bytes, (list, tuple)):
                header_bytes = [header_bytes[i] for i in keep]
        if not payloads:
            return []
        return self._book(src, dsts, payloads, message_bytes, header_bytes, counter)

    def transfer(
        self,
        src: int,
        dst: int,
        payload_bytes: float,
        *,
        message_bytes: int = 0,
        header_bytes: int = 0,
        counter: Optional[str] = None,
    ) -> Event:
        """Move payload from ``src`` to ``dst``; returns an event firing at delivery.

        Booked and stamped at issue like a one-element :meth:`book_wave`
        (``counter`` defaults to :data:`COUNTER`), except that a zero
        payload still reserves the link.  It schedules one callback, at
        the delivery instant, which succeeds the returned event.  A
        payload that is negative, NaN or infinite raises ``ValueError``
        before any link changes.
        """
        check_bytes(f"transfer {src}->{dst}: payload", payload_bytes)
        (done_at,) = self._book(
            src, (dst,), (payload_bytes,), message_bytes, header_bytes, counter or self.COUNTER
        )
        ev = Event(self.engine, "xfer")
        self.engine.call_at(done_at, ev.succeed)
        return ev

    def paced_copy(
        self, src: int, dst: int, nbytes: float, *, chunk_bytes: float, share: float,
        counter: str, on_done: Callable[[], None],
    ) -> None:
        """Stream ``nbytes`` from ``src`` to ``dst`` as a background copy.

        Chunks of ``chunk_bytes`` go one at a time through :meth:`transfer`;
        after one that occupied the link for ``dt`` the copy idles
        ``dt * (1 / share - 1)``, so it averages ``share`` of the bandwidth.
        ``on_done()`` runs where the last chunk (or its pause) ends, or now
        for zero bytes.
        """
        remaining = float(nbytes)
        if remaining <= 0:
            return on_done()
        size = min(float(chunk_bytes), remaining)
        t0 = self.engine.now
        rest = partial(
            self.paced_copy, src, dst, remaining - size,
            chunk_bytes=chunk_bytes, share=share, counter=counter, on_done=on_done,
        )

        def pace() -> None:
            pause = (self.engine.now - t0) * (1.0 / share - 1.0) if share < 1.0 else 0.0
            if pause > 0:
                self.engine.call_in(pause, rest)
            else:
                rest()

        self.transfer(src, dst, size, counter=counter).add_callback(pace)

    # -- statistics -------------------------------------------------------------

    def total_wire_bytes(self) -> float:
        """Bytes (incl. headers) carried over all links so far."""
        return sum(lk.bytes_carried for lk in self._links.values())

    def links(self) -> List[Link]:
        """All links instantiated so far."""
        return list(self._links.values())
