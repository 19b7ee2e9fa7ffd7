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
from typing import Callable, Dict, List, Optional, Tuple

from .engine import Engine, Event
from .profiler import Profiler
from .units import gbps, us

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


class Link:
    """A directed FIFO link between two devices.

    Transfers serialise: each reservation starts no earlier than the link's
    previous reservation finished.  Completion = start + wire/bandwidth +
    latency (latency is pipelined, charged once per transfer).

    Fault state (driven by :class:`repro.faults.FaultInjector`) composes
    multiplicatively/additively on top of the static :class:`LinkSpec`:
    ``bandwidth_scale`` derates throughput, ``extra_latency_ns`` adds
    propagation delay, and a downed link holds all traffic until
    ``down_until``.  At the defaults (1.0 / 0.0 / -inf) the arithmetic is
    bit-identical to the healthy model.
    """

    def __init__(self, engine: Engine, src: int, dst: int, spec: LinkSpec):
        self.engine = engine
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

    def reserve(
        self, payload_bytes: float, message_bytes: int, header_bytes: int
    ) -> Tuple[float, float]:
        """Book the link for a payload; returns ``(start, done_at)``.

        Pure bookkeeping: advances the link's FIFO horizon and statistics
        but schedules nothing.  The payload occupies the wire from
        ``start`` and has landed at ``done_at``.
        """
        wire = wire_bytes(payload_bytes, message_bytes, header_bytes)
        if payload_bytes <= 0:
            n_messages = 0
        elif message_bytes <= 0:
            n_messages = 1
        else:
            n_messages = math.ceil(payload_bytes / message_bytes)
        # A downed link queues traffic until it comes back up.
        start = max(self.engine.now, self._free_at, self.down_until)
        busy = wire / self.effective_bandwidth + n_messages * self.spec.per_message_ns
        done_at = start + busy + self.spec.latency_ns + self.extra_latency_ns
        self._free_at = start + busy
        self.busy_time += busy
        self.bytes_carried += wire
        self.transfer_count += 1
        self.messages_sent += n_messages
        return start, done_at

    def transfer(
        self,
        payload_bytes: float,
        *,
        message_bytes: int = 0,
        header_bytes: int = 0,
        on_complete: Optional[Callable[[float], None]] = None,
        on_schedule: Optional[Callable[[float, float], None]] = None,
    ) -> Event:
        """Reserve the link for a payload; returns an event firing at delivery.

        ``on_complete(t_delivered)`` runs at the delivery instant (before
        waiters), which the profiler uses to stamp comm counters.
        ``on_schedule(start, done_at)`` runs synchronously at reservation
        time with the computed occupancy window — the observability layer
        records traced link spans from it without perturbing the schedule.
        """
        engine = self.engine
        start, done_at = self.reserve(payload_bytes, message_bytes, header_bytes)
        if on_schedule is not None:
            on_schedule(start, done_at)
        ev = Event(engine, "xfer")

        def fire() -> None:
            if on_complete is not None:
                on_complete(engine.now)
            ev.succeed(engine.now)

        engine.call_at(done_at, fire)
        return ev

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` this link spent busy."""
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        return min(self.busy_time / horizon_ns, 1.0)

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
        # (counter, src, dst) -> per-pair sub-counter name, formatted once.
        self._pair_counters: Dict[Tuple[str, int, int], str] = {}

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
            lk = Link(self.engine, src, dst, spec)
            self._links[key] = lk
        return lk

    def peek_link(self, src: int, dst: int) -> Optional[Link]:
        """The ``(src, dst)`` link if it has been instantiated, else None.

        Unlike :meth:`link` this never creates the link — fault-state
        queries use it so that merely *checking* a pair's health does not
        materialise its Link object (which would perturb bookkeeping).
        """
        return self._links.get((src, dst))

    def send(
        self,
        src: int,
        dst: int,
        payload_bytes: float,
        *,
        message_bytes: int,
        header_bytes: int,
        counter: str,
        on_delivered: Optional[Callable[[float], None]] = None,
    ) -> float:
        """Move payload from ``src`` to ``dst``; returns the delivery instant.

        Books the link and schedules exactly one callback at delivery, which
        credits ``counter`` (and its ``.devS->devD`` per-pair sub-counter)
        with the *payload* bytes — matching the paper's instrument, which
        counts RDMA-write payload in 256-byte units — and then calls
        ``on_delivered(t)``.  No :class:`Event` is created: one-sided puts
        track completion themselves, :meth:`transfer` wraps this in one.
        """
        start, done_at = self.link(src, dst).reserve(payload_bytes, message_bytes, header_bytes)
        prof = self.profiler
        if prof is not None and prof.active_trace is not None:
            # Traced transfers additionally record a link-occupancy span so
            # the critical-path analyser sees individual wire time.  Guarded
            # on an active trace: untraced runs stay span-for-span identical.
            prof.record_span(f"xfer.dev{src}->dev{dst}", "link", src, start, done_at)
        key = (counter, src, dst)
        pair = self._pair_counters.get(key)
        if pair is None:
            pair = self._pair_counters[key] = f"{counter}.dev{src}->dev{dst}"

        def deliver() -> None:
            if prof is not None:
                prof.add_count(counter, done_at, payload_bytes)
                prof.add_count(pair, done_at, payload_bytes)
            if on_delivered is not None:
                on_delivered(done_at)

        self.engine.call_at(done_at, deliver)
        return done_at

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
        """:meth:`send` with an :class:`Event` that succeeds at delivery.

        The counter defaults to :data:`COUNTER`; the event's value is the
        delivery instant.
        """
        ev = Event(self.engine, "xfer")
        self.send(
            src,
            dst,
            payload_bytes,
            message_bytes=message_bytes,
            header_bytes=header_bytes,
            counter=counter or self.COUNTER,
            on_delivered=ev.succeed,
        )
        return ev

    # -- statistics -------------------------------------------------------------

    def total_wire_bytes(self) -> float:
        """Bytes (incl. headers) carried over all links so far."""
        return sum(lk.bytes_carried for lk in self._links.values())

    def links(self) -> List[Link]:
        """All links instantiated so far."""
        return list(self._links.values())
