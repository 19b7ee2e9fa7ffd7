"""Interconnect model: links, topologies, and message transfers.

Every ordered device pair is a link — a FIFO store-and-forward server
with an alpha-beta cost (latency + bytes/bandwidth) and strict
serialisation: concurrent transfers on the same link queue behind each
other, which is how bursts (the baseline's all-to-all) congest while
spread-out traffic (PGAS per-wave writes) does not.  The fabric keeps a
source's links as one row of columns indexed by destination (static
spec, fault state, accumulators) and books a whole wave on the row in
one loop; a :class:`Link` is a view of one row entry, for fault
injection and statistics.  A fused kernel's one-sided writes wait on
their source's row as one deferred run of data (its payload matrix and
issue instants, :meth:`Interconnect.defer_run`), booked with the same
arithmetic when the row is next touched.  A settle of many rows books
all their retired waves as one array pass over rows × waves ×
destinations (:meth:`Interconnect.settle`, :meth:`Interconnect.book_runs`),
bit for bit the loop's.  Device ids are integers: a float or a ``bool``
equal to one is rejected before any pair is touched.

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
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, repeat
from operator import attrgetter, lt
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..checks import check_bytes, check_finite
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
        check_finite("LinkSpec", "bandwidth", self.bandwidth)
        check_finite("LinkSpec", "latency_ns", self.latency_ns, zero_ok=True)
        check_finite("LinkSpec", "per_message_ns", self.per_message_ns, zero_ok=True)


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


#: What a device id may be.  A float equal to an id finds it in every set
#: and dict keyed by ids, so only the type tells it apart; a ``bool`` is an
#: ``int`` too, and is refused by :func:`_is_id`.
_ID = (int, np.integer)

_INT = frozenset((int,))

#: A settle whose one-run rows retire at least this many writes (waves ×
#: destinations) between them stacks them into one array pass
#: (:meth:`Interconnect.settle`); fewer are booked row by row as lists.
#: Measured per settle on one core of a 2-vCPU Xeon VM: lists cost about
#: 1 µs per write plus 12 µs per row, a stack about 190 µs plus 0.1 µs per
#: write.  8 one-wave rows of 7 writes (serve-prod-g8) take 105 µs as
#: lists and 190 µs stacked, 4 rows of 26 × 3 (paper, G=4) 340 against
#: 240 µs alone but the same within a paper round, where stacking them
#: also raised peak RSS 0.3 MB; 8 rows of 7 × 7 (scale-g64's smoke shape)
#: take 660 against 370 µs, and 64 rows of 7 × 63 (scale-g64) about 20
#: against 4 ms.
STACK_MIN_WRITES = 384


def _is_id(value) -> bool:
    """True when ``value`` is a device id: a Python or numpy integer, not a
    ``bool``."""
    return isinstance(value, _ID) and type(value) is not bool


def _are_ids(src, dsts: Iterable) -> bool:
    """True when ``src`` and every destination are integer device ids
    (Python or numpy); plain ints take one pass over the types."""
    return (
        isinstance(src, _ID) and type(src) is not bool
        and (_INT.issuperset(map(type, dsts)) or all(map(_is_id, dsts)))
    )


def _check_ids(src, dsts: Sequence) -> None:
    """Raise ``ValueError`` unless ``src`` and every destination are
    integer device ids."""
    if not _are_ids(src, dsts):
        for value in (src, *dsts):
            if not _is_id(value):
                raise ValueError(f"a device id must be an integer, got {value!r}")


def _reserve(
    now: float | List[float],
    row: "_Row",
    dsts: Sequence[int],
    payloads: Sequence[float],
    message_bytes: int,
    header_bytes,
    starts: Optional[List[float]] = None,
) -> List[float]:
    """Book ``payloads[i]`` from ``row``'s source to ``dsts[i]`` in order;
    returns the delivery instants.

    The one copy of the reservation arithmetic.  Each payload occupies
    its link from ``start`` (no earlier than its issue instant, the
    link's previous reservation or the end of a down window) and has
    landed at ``done``.  ``now`` is one issue instant for every payload
    or a list of one per payload (a deferred run's wave ends), and
    ``header_bytes`` one header size for every payload or a sequence of
    one per payload.  Each ``start`` is appended to ``starts`` when one
    is given.  Schedules nothing; the caller checked the payloads and
    that every pair is connected.
    """
    headers = header_bytes if isinstance(header_bytes, (list, tuple)) else repeat(header_bytes)
    nows = now if type(now) is list else repeat(now)
    ceil = math.ceil
    free_at = row.free_at
    down_until = row.down_until
    bandwidth = row.bandwidth
    scale = row.bandwidth_scale
    per_message_ns = row.per_message_ns
    latency_ns = row.latency_ns
    extra_latency_ns = row.extra_latency_ns
    busy_time = row.busy_time
    carried = row.bytes_carried
    transfers = row.transfer_count
    messages = row.messages_sent
    dones: List[float] = []
    for dst, payload, header, now in zip(dsts, payloads, headers, nows):
        if message_bytes > 0:
            n_messages = ceil(payload / message_bytes)
        else:
            n_messages = 1 if payload else 0
        wire = payload + n_messages * header
        # max(now, free_at, down_until), without the call: a downed link
        # queues traffic until it comes back up.
        start = free_at[dst]
        if start < now:
            start = now
        if start < down_until[dst]:
            start = down_until[dst]
        # Link.effective_bandwidth, inlined: this runs once per write.
        busy = wire / (bandwidth[dst] * scale[dst]) + n_messages * per_message_ns[dst]
        free_at[dst] = free = start + busy
        busy_time[dst] += busy
        carried[dst] += wire
        transfers[dst] += 1
        messages[dst] += n_messages
        if starts is not None:
            starts.append(start)
        dones.append(free + latency_ns[dst] + extra_latency_ns[dst])
    return dones


def _gather(rows: List["_Row"], dtype, *names: str) -> np.ndarray:
    """Columns ``names`` (two or more) of every row, as one ``(rows,
    len(names), G)`` array, read in one pass over the lists."""
    width = len(rows[0].free_at)
    values = chain.from_iterable(chain.from_iterable(map(attrgetter(*names), rows)))
    return np.fromiter(values, dtype, len(rows) * len(names) * width).reshape(
        len(rows), len(names), width
    )


def _reserve_runs(
    at: np.ndarray, rows: List["_Row"], payloads: np.ndarray, booked: np.ndarray,
    message_bytes: int, header_bytes,
) -> Optional[np.ndarray]:
    """:func:`_reserve` of a settle's retired prefixes, stacked, as one
    array pass; returns the ``(rows, waves, G)`` delivery instants (read
    them where ``booked``), or None, changing nothing, when a write would
    queue behind an earlier one of its own run.

    ``payloads[r, w, d]`` goes from ``rows[r]``'s source to device ``d``,
    issued at ``at[r, w]``, and ``booked`` is ``payloads != 0``: a zero
    books nothing, so shorter prefixes are padded with zero waves.  Rows
    share no link state, and each row's result is :func:`_reserve` over
    its nonzero payloads in (wave, destination) order, bit for bit: each
    element's arithmetic is the loop's, in the loop's order, and nothing
    else on the row changes within the pass.  A write starts at
    ``max(free_at, issue instant, down_until)`` taken from the row as it
    was before the pass, which is the loop's start unless the write
    queues behind an earlier one of its own column; a pass where one does
    is left to :func:`_reserve`.  The accumulators add one wave at a time,
    as the loop does.  The caller checked the payloads (finite,
    non-negative, summing below 2**53) and that every booked pair is
    connected, and keeps the rows' columns finite.
    """
    if message_bytes > 0:
        n_messages = payloads / message_bytes
        np.ceil(n_messages, out=n_messages)
    else:
        n_messages = booked.astype(np.float64)
    messages = n_messages.sum(axis=1)  # zero where not booked
    wire = n_messages * header_bytes
    wire += payloads  # zero where nothing is booked
    link = _gather(rows, np.float64, "bandwidth", "bandwidth_scale", "per_message_ns",
                   "latency_ns", "extra_latency_ns", "down_until")
    state = _gather(rows, np.float64, "free_at", "busy_time", "bytes_carried")
    # The source's own column and unreachable ones are NaN: never booked.
    busy = np.divide(wire, (link[:, 0] * link[:, 1])[:, None])
    busy += np.multiply(n_messages, link[:, None, 2], out=n_messages)
    start = np.maximum(state[:, None, 0], at[:, :, None], out=n_messages)
    np.maximum(start, link[:, None, 5], out=start)
    idle = ~booked
    np.copyto(busy, 0.0, where=idle)
    end = start + busy
    np.copyto(end, -np.inf, where=idle)
    # A write queues behind its own run only when it starts before the
    # latest earlier booked end of its column (0 of scale-g64's 28,224
    # writes, 6 of paper's 7,570).  Such a pass goes back to the loop.
    latest = np.maximum.accumulate(end, axis=1)
    behind = start[:, 1:] < latest[:, :-1]
    behind &= booked[:, 1:]
    if behind.any():
        return None
    busy_time, carried = state[:, 1], state[:, 2]
    for w in range(payloads.shape[1]):  # wave by wave, as the loop adds
        busy_time += busy[:, w]
        carried += wire[:, w]
    counts = _gather(rows, np.int64, "transfer_count", "messages_sent")
    counts[:, 0] += booked.sum(axis=1)
    counts[:, 1] += messages.astype(np.int64)
    free_at = np.maximum(state[:, 0], latest[:, -1])
    for row, free, busy_row, carried_row, (transfers, sent) in zip(
        rows, free_at.tolist(), busy_time.tolist(), carried.tolist(), counts.tolist()
    ):
        row.free_at[:] = free
        row.busy_time[:] = busy_row
        row.bytes_carried[:] = carried_row
        row.transfer_count[:] = transfers
        row.messages_sent[:] = sent
    end += link[:, None, 3]
    end += link[:, None, 4]
    return end


class _Row:
    """Every link out of one source, as columns indexed by destination.

    Static columns come from the topology (``spec`` is None for the
    source itself and for unreachable destinations); fault state and the
    accumulators start at the healthy, idle values.  ``reachable`` holds
    the destinations with a spec, ``touched`` those booked or faulted so
    far.  ``pending`` lists the source's deferred runs in registration
    order, and ``fabric`` refers weakly to the :class:`Interconnect` that
    books them.
    """

    __slots__ = (
        "spec", "bandwidth", "per_message_ns", "latency_ns",
        "bandwidth_scale", "extra_latency_ns", "down_until",
        "free_at", "busy_time", "bytes_carried", "transfer_count", "messages_sent",
        "reachable", "touched", "src", "fabric", "pending",
    )

    def __init__(self, specs: List[Optional[LinkSpec]], src: int, fabric: weakref.ref):
        n = len(specs)
        self.spec = specs
        self.bandwidth = [s.bandwidth if s is not None else math.nan for s in specs]
        self.per_message_ns = [s.per_message_ns if s is not None else math.nan for s in specs]
        self.latency_ns = [s.latency_ns if s is not None else math.nan for s in specs]
        self.bandwidth_scale = [1.0] * n
        self.extra_latency_ns = [0.0] * n
        self.down_until = [float("-inf")] * n
        self.free_at = [0.0] * n
        self.busy_time = [0.0] * n
        self.bytes_carried = [0.0] * n
        self.transfer_count = [0] * n
        self.messages_sent = [0] * n
        self.reachable = frozenset(dst for dst, spec in enumerate(specs) if spec is not None)
        self.touched: Set[int] = set()
        self.src = src
        self.fabric = fabric
        self.pending: List[_Run] = []

    def settled(self) -> "_Row":
        """This row with every deferred write retired by now booked."""
        if self.pending:
            fabric = self.fabric()
            if fabric is not None:
                fabric._settle_row(self)
        return self


class _Run:
    """One launch's deferred writes out of one source, as data.

    Wave ``w`` is issued at ``times[w]`` (non-decreasing) and writes row
    ``w`` of the 2-D ``payloads``, column ``skip`` left out when it is not
    None, to ``dsts``.  ``op`` names the entry point of ``owner`` (a weak
    reference to a :class:`~repro.comm.pgas.PGASContext`) that books the
    waves: ``"put"`` for float bytes, ``"atomic_add"`` for integer counts.
    ``w`` is the first wave not booked yet.  ``seq`` and ``exits`` are the
    engine's ``_seq`` and ``_exits`` at registration (the waves' own
    entries would have taken the next sequence numbers), and ``order`` the
    registration's fabric-wide rank.
    """

    __slots__ = ("times", "payloads", "dsts", "skip", "owner", "op", "w", "seq", "exits",
                 "order")

    def __init__(self, times: List[float], payloads: np.ndarray, dsts: List[int],
                 skip: Optional[int], owner: weakref.ref, op: str, seq: int, exits: int,
                 order: int):
        self.times, self.payloads, self.dsts, self.skip = times, payloads, dsts, skip
        self.owner, self.op, self.w = owner, op, 0
        self.seq, self.exits, self.order = seq, exits, order

    def key(self):
        """What the run may be stacked with: its owner, entry point and
        payload type; None for a run booked only as lists, one whose
        destinations do not rise or whose matrix does not match them."""
        payloads, dsts = self.payloads, self.dsts
        if (
            payloads.ndim == 2 and payloads.shape[1] == len(dsts) + (self.skip is not None)
            and payloads.dtype.kind in "fiu" and all(map(lt, dsts, dsts[1:]))
        ):
            return self.owner, self.op, payloads.dtype
        return None

    def gather(self, out: np.ndarray, src: int, start: int, stop: int) -> None:
        """Copy waves ``start`` up to ``stop`` into ``out``, one row per wave
        whose column ``d`` goes to device ``d``; a run whose matrix spans
        the devices with ``src``'s own column skipped is copied whole (the
        caller zeroes that column)."""
        waves = self.payloads[start:stop]
        if self.skip == src and waves.shape[1] == out.shape[1]:
            out[:] = waves
        else:
            if self.skip is not None:
                waves = np.delete(waves, self.skip, axis=1)
            out[:, self.dsts] = waves


def _next_key(run: _Run) -> Tuple[float, int]:
    """Where ``run``'s next wave falls among its row's deferred waves."""
    return run.times[run.w], run.order


def _check_fault(bandwidth_scale: float, extra_latency_ns: float) -> None:
    """Raise ``ValueError`` naming the argument unless ``bandwidth_scale``
    is finite and positive and ``extra_latency_ns`` finite and
    non-negative: a NaN or an infinity would reach the engine as an
    instant, and the array booking (:func:`_reserve_runs`) needs finite
    columns."""
    if not 0 < bandwidth_scale < math.inf:
        raise ValueError(f"bandwidth_scale must be positive and finite, got {bandwidth_scale}")
    if not 0 <= extra_latency_ns < math.inf:
        raise ValueError(
            f"extra_latency_ns must be non-negative and finite, got {extra_latency_ns}"
        )


def _column(name: str, doc: str) -> property:
    """A read-only :class:`Link` attribute: this link's entry of a row column."""
    return property(lambda lk: getattr(lk._row, name)[lk.dst], doc=doc)


def _booked(name: str, doc: str) -> property:
    """A :class:`_column` that bookings change: read once the row's
    deferred writes retired by now are booked."""
    return property(lambda lk: getattr(lk._row.settled(), name)[lk.dst], doc=doc)


class Link:
    """A directed FIFO link between two devices: a view of one row entry.

    Transfers serialise: each reservation starts no earlier than the link's
    previous reservation finished.  Completion = start + wire/bandwidth +
    latency (latency is pipelined, charged once per transfer).  The
    fabric (:class:`Interconnect`) keeps each source's links as columns
    and books them through :func:`_reserve`; a view reads and faults its
    pair's entries.

    Fault state (driven by :class:`repro.faults.FaultInjector`) composes
    multiplicatively/additively on top of the static :class:`LinkSpec`:
    ``bandwidth_scale`` derates throughput, ``extra_latency_ns`` adds
    propagation delay, and a downed link holds all traffic until
    ``down_until``.  At the defaults (1.0 / 0.0 / -inf) the arithmetic is
    bit-identical to the healthy model.  A read of an accumulator and a
    fault edge first book the source's deferred writes retired by now,
    so a view always shows the state of the current instant.
    """

    __slots__ = ("src", "dst", "_row")

    def __init__(self, src: int, dst: int, row: _Row):
        self.src = src
        self.dst = dst
        self._row = row

    spec = _column("spec", "The pair's static :class:`LinkSpec`.")
    _free_at = _booked("free_at", "When the link's last reservation ends.")
    busy_time = _booked("busy_time", "Nanoseconds of wire occupancy booked so far.")
    bytes_carried = _booked("bytes_carried", "Wire bytes (payload + headers) booked so far.")
    transfer_count = _booked("transfer_count", "Reservations booked so far.")
    messages_sent = _booked("messages_sent", "Messages booked so far.")
    bandwidth_scale = _column("bandwidth_scale", "Current multiplicative bandwidth derate.")
    extra_latency_ns = _column("extra_latency_ns", "Current additive latency spike.")
    down_until = _column("down_until", "End of the current down window (-inf: up).")

    # -- fault state -------------------------------------------------------------

    def degrade(self, bandwidth_scale: float = 1.0, extra_latency_ns: float = 0.0) -> None:
        """Apply a multiplicative bandwidth derate / additive latency spike.

        Both must be finite, the derate positive and the spike
        non-negative; a bad one raises ``ValueError`` before anything
        changes.
        """
        _check_fault(bandwidth_scale, extra_latency_ns)
        row, dst = self._row.settled(), self.dst
        row.bandwidth_scale[dst] *= bandwidth_scale
        row.extra_latency_ns[dst] += extra_latency_ns

    def restore(self, bandwidth_scale: float = 1.0, extra_latency_ns: float = 0.0) -> None:
        """Undo a matching :meth:`degrade` (fault window end); takes the
        values :meth:`degrade` takes."""
        _check_fault(bandwidth_scale, extra_latency_ns)
        row, dst = self._row.settled(), self.dst
        row.bandwidth_scale[dst] /= bandwidth_scale
        row.extra_latency_ns[dst] = max(row.extra_latency_ns[dst] - extra_latency_ns, 0.0)

    def set_down_until(self, t: float) -> None:
        """Down the link until absolute time ``t`` (extends, never shortens);
        a NaN or infinite ``t`` raises ``ValueError``."""
        if not math.isfinite(t):
            raise ValueError(f"set_down_until: t must be finite, got {t!r}")
        row = self._row.settled()
        row.down_until[self.dst] = max(row.down_until[self.dst], t)

    def is_down(self, t: float) -> bool:
        """True while the link is inside a down window at time ``t``."""
        return t < self.down_until

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

    def row_specs(self, src: int) -> List[Optional[LinkSpec]]:
        """:meth:`link_spec` of every pair out of ``src``, indexed by destination."""
        if not 0 <= src < self.n_devices:
            raise ValueError(f"source device {src} out of range")
        spec_fn = self._spec_fn
        return [None if dst == src else spec_fn(src, dst) for dst in range(self.n_devices)]

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
    """The fabric: per-source link rows over a topology, plus comm accounting.

    A source's row (:class:`_Row`) is built in one step the first time
    the source books, defers a run or is faulted.  A pair is *touched*
    when it is first booked or asked for with :meth:`link`; :meth:`links`
    lists the touched pairs in that order.
    """

    #: profiler counter receiving every delivered payload byte
    COUNTER = "comm_bytes"

    def __init__(self, engine: Engine, topology: Topology, profiler: Optional[Profiler] = None):
        self.engine = engine
        self.topology = topology
        self.profiler = profiler
        self._rows: Dict[int, _Row] = {}
        # Touched pairs in first-touch order, and the views handed out.
        self._touched: List[Tuple[int, int]] = []
        self._views: Dict[Tuple[int, int], Link] = {}
        # Source -> its row, while the row has deferred runs.  Rows and the
        # profiler refer to the fabric weakly: nothing here is a cycle.
        self._pending: Dict[int, _Row] = {}
        self._registered = 0  # runs deferred so far: each run's order
        self._ref = weakref.ref(self)
        if profiler is not None:
            profiler.before_read.fn = partial(_settle_weakly, self._ref)

    def _row(self, src: int) -> Optional[_Row]:
        """``src``'s row, built on first use; None for a source out of range."""
        row = self._rows.get(src)
        if row is None and 0 <= src < self.topology.n_devices:
            row = self._rows[src] = _Row(self.topology.row_specs(src), src, self._ref)
        return row

    def _touch(self, src: int, dsts: Sequence[int]) -> _Row:
        """``src``'s row with every ``(src, dst)`` pair touched, in order.

        Raises at the first unreachable pair, as :meth:`Topology.link_spec`
        or as unconnected; the pairs before it stay touched.  A device id
        that is not an integer raises ``ValueError`` before any pair is
        touched.
        """
        _check_ids(src, dsts)
        row = self._row(src)
        topology = self.topology
        if row is not None and row.reachable.issuperset(dsts):
            touched = row.touched
            new = dict.fromkeys(dsts)
            if touched:
                new = [dst for dst in new if dst not in touched]
            touched.update(new)
            self._touched.extend(zip(repeat(src), new))
            return row
        for dst in dsts:
            if row is None or dst not in row.reachable:
                topology.link_spec(src, dst)  # raises for a pair out of range
                raise ValueError(f"devices {src} and {dst} are not connected in {topology.name}")
            if dst not in row.touched:
                row.touched.add(dst)
                self._touched.append((src, dst))
        return row

    def link(self, src: int, dst: int) -> Link:
        """The directed link for ``(src, dst)``; raises if unreachable.

        The same view every time for the same pair.  Device ids are
        integers: a float or a ``bool``, which equals an id as a key,
        raises ``ValueError`` before anything is settled or touched.
        """
        key = (src, dst)
        lk = self._views.get(key)
        if lk is not None and type(src) is int and type(dst) is int:
            return lk
        _check_ids(src, (dst,))
        if lk is None:
            row = self._rows.get(src)
            if row is not None:
                row.settled()  # the pairs its due writes touch come first
            lk = self._views[key] = Link(src, dst, self._touch(src, (dst,)))
        return lk

    def peek_link(self, src: int, dst: int) -> Optional[Link]:
        """The ``(src, dst)`` link if it has been touched, else None.

        Unlike :meth:`link` this never touches the pair — fault-state
        queries use it so that merely *checking* a pair's health does not
        add it to :meth:`links` (which would perturb bookkeeping).
        """
        row = self._rows.get(src)
        if row is None or dst not in row.settled().touched:
            return None
        return self.link(src, dst)

    def _book(
        self,
        src: int,
        dsts: Sequence[int],
        payloads: Sequence[float],
        message_bytes: int,
        header_bytes,
        counter: str,
        at: Optional[List[float]] = None,
    ) -> List[float]:
        """Book every element now and stamp its delivery; returns the instants.

        The one booking path behind :meth:`book_wave` and :meth:`transfer`.
        The row's deferred writes retired by now are booked first, unless
        ``at`` gives the issue instants (a deferred run's own booking).
        """
        row = self._rows.get(src)
        if at is None:
            if row is not None and row.pending:
                self._settle_row(row)
            at = self.engine.now
        if row is None or not row.touched.issuperset(dsts):
            row = self._touch(src, dsts)
        prof = self.profiler
        enabled = prof is not None and prof.enabled
        # Traced bookings also record a link-occupancy span so the
        # critical-path analyser sees individual wire time.  Guarded on an
        # active trace: untraced runs collect no starts and record no spans.
        starts = [] if enabled and prof.active_trace is not None else None
        done = _reserve(at, row, dsts, payloads, message_bytes, header_bytes, starts)
        if enabled:
            if starts is not None:
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
        at: Optional[List[float]] = None,
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

        ``at`` books a deferred run's retired waves (:meth:`defer_run`):
        a list of one issue instant per element, in issue order, none
        later than now, and no zero payload.  The row's other deferred
        writes are then not booked first: the booking is part of their
        settle.

        The caller validates the wave.
        """
        if at is None and not all(payloads):
            keep = [i for i, payload in enumerate(payloads) if payload]
            dsts = [dsts[i] for i in keep]
            payloads = [payloads[i] for i in keep]
            if isinstance(header_bytes, (list, tuple)):
                header_bytes = [header_bytes[i] for i in keep]
        if not payloads:
            return []
        return self._book(src, dsts, payloads, message_bytes, header_bytes, counter, at)

    def book_runs(
        self,
        srcs: List[int],
        payloads: np.ndarray,
        message_bytes: int,
        header_bytes,
        counter: str,
        at: np.ndarray,
    ) -> Optional[np.ndarray]:
        """:meth:`book_wave` with ``at`` for a settle's retired prefixes,
        stacked, as one array pass.

        ``payloads[r, w, d]`` (float, ``(len(srcs), waves, G)``) moves from
        ``srcs[r]`` to device ``d`` at ``at[r, w]``; a zero books nothing.
        Row ``r`` books what one :meth:`book_wave` of its nonzero elements
        in (wave, destination) order books, bit for bit
        (:func:`_reserve_runs`), the rows in order: pairs are first touched
        by row, then by each column's first booked wave, then by column,
        and ``counter`` and its per-pair columns are stamped in row-major
        order with one :meth:`Profiler.add_columns`.  Returns each row's
        latest delivery instant (``-inf`` for a row that books nothing), or
        None, booking nothing, when a write would queue behind an earlier
        one of its own run.  Records no ``xfer`` span: :meth:`settle` does
        not stack under an active trace.

        The caller validates the prefixes, with a payload sum below 2**53;
        every source deferred a run here, so it has a row, and reaches each
        destination it books.
        """
        booked = payloads != 0
        if not booked.any():
            return np.full(len(srcs), -np.inf)
        rows = [self._rows[src] for src in srcs]
        done = _reserve_runs(at, rows, payloads, booked, message_bytes, header_bytes)
        if done is None:
            return None
        fresh = [i for i, row in enumerate(rows) if len(row.touched) < len(row.reachable)]
        if fresh:
            # First touch in booking order: by each column's first booked
            # wave, then by column.  Every booked pair is reachable (the
            # runs were screened when deferred), so this is _touch's fast
            # path without its checks.
            hit = booked.any(axis=1)
            first = booked.argmax(axis=1) * payloads.shape[2] + np.arange(payloads.shape[2])
            order = np.argsort(np.where(hit, first, booked[0].size), axis=1).tolist()
            n_hit = hit.sum(axis=1).tolist()
            for i in fresh:
                touched, new = rows[i].touched, order[i][:n_hit[i]]
                if touched:
                    new = [dst for dst in new if dst not in touched]
                touched.update(new)
                self._touched.extend(zip(repeat(srcs[i]), new))
        prof = self.profiler
        if prof is not None and prof.enabled:
            shape = payloads.shape
            src_of = np.broadcast_to(np.array(srcs, dtype=np.int64)[:, None, None], shape)
            dst_of = np.broadcast_to(np.arange(shape[2], dtype=np.int64), shape)
            prof.add_columns(
                counter, src_of[booked], dst_of[booked], done[booked], payloads[booked]
            )
        return np.max(done, axis=(1, 2), where=booked, initial=-np.inf)

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
        before any link changes, and so does a device id that is not an
        integer.
        """
        _check_ids(src, (dst,))
        check_bytes(f"transfer {src}->{dst}: payload", payload_bytes)
        (done_at,) = self._book(
            src, [dst], [payload_bytes], message_bytes, header_bytes, counter or self.COUNTER
        )
        ev = Event(self.engine, "xfer")
        self.engine.call_at(done_at, ev.succeed)
        return ev

    def defer_run(
        self, src: int, times: List[float], payloads: np.ndarray, dsts: List[int],
        skip: Optional[int], owner: weakref.ref, op: str,
    ) -> None:
        """Defer a launch's writes out of ``src`` as one run of waves.

        Wave ``w`` is issued at ``times[w]`` (non-decreasing, none before
        now) and writes row ``w`` of the 2-D ``payloads`` (column ``skip``
        left out, when not None) to ``dsts``, each a device ``src``
        reaches, other than ``src`` (the caller checked).  Nothing is booked
        or scheduled now.  Once the waves have retired they are booked
        through ``owner``'s entry point ``op`` (:class:`_Run`), right before
        whatever comes next on ``src``'s row: a booking, a fault edge on
        one of its links, a read of a link accumulator or of profiler
        state, or :meth:`settle`.  A run whose owner is gone books nothing.

        The run stands for one engine entry per wave end, all scheduled
        now (as a launch with a per-wave hook schedules them), so a wave
        has *retired* once its entry would have run: at an earlier
        instant, or at this instant before the running entry (one
        scheduled after the registration) or, between run loops, in a
        loop that has returned since the registration
        (``Engine._passed``).  Several runs on one row are booked
        in the order those entries would run: by instant, a tie to the
        earlier registration.
        """
        row = self._rows.get(src) or self._row(src)
        engine = self.engine
        self._registered += 1
        row.pending.append(_Run(times, payloads, dsts, skip, owner, op, engine._seq,
                                engine._exits, self._registered))
        self._pending[src] = row

    def settle(self, srcs: Optional[Iterable[int]] = None) -> None:
        """Book the deferred writes retired by now out of ``srcs``, or of
        every source.

        The rows go in order (``srcs`` order, or the order they first
        deferred a run).  When the rows with one run retire at least
        :data:`STACK_MIN_WRITES` writes between them, consecutive ones
        whose runs share a :meth:`_Run.key` are stacked: their prefixes go
        to the owner's entry point as one ``(rows, waves, G)`` array,
        booked in one pass (:meth:`book_runs`).  Fewer writes, a row with
        several runs (:meth:`_settle_row` merges them), a run without a
        key, an active trace (its ``xfer`` spans come from the lists) and
        a stack in which a write queues behind its own run are booked row
        by row, as lists.

        Reads of link or profiler state settle every source first (the
        profiler through a weak reference to the fabric), so they see
        what the waves retired by now have written.
        """
        pending = self._pending
        if not pending:
            return
        if srcs is None:
            rows = list(pending.values())
        else:
            rows = [pending[src] for src in srcs if src in pending]
        prof = self.profiler
        if prof is not None and prof.enabled and prof.active_trace is not None:
            for row in rows:
                self._settle_row(row)
            return
        engine = self.engine
        now = engine._now
        items = []  # (row, run, start, stop); run None: a row with several runs
        writes = 0
        for row in rows:
            runs = row.pending
            if len(runs) != 1:
                items.append((row, None, 0, 0))
                continue
            # _retired and _take, inlined: this runs once per row per settle.
            run = runs[0]
            times, start = run.times, run.w
            stop = bisect_left(times, now, start)
            if stop < len(times) and times[stop] == now and engine._passed(run.seq, run.exits):
                stop = bisect_right(times, now, stop)
            if stop > start:
                run.w = stop
                if stop == len(times):
                    runs.clear()
                    del pending[row.src]
                items.append((row, run, start, stop))
                writes += (stop - start) * len(run.dsts)
        if writes < STACK_MIN_WRITES:
            groups = [(None, items)]
        else:
            groups = groupby(items, key=lambda item: item[1] and item[1].key())
        for key, group in groups:
            group = list(group)
            if key is not None and self._book_stacked(group):
                continue
            for row, run, start, stop in group:
                if run is None:
                    self._settle_row(row)
                else:
                    self._book_prefix(row, run, start, stop)

    def _retired(self, run: _Run, now: float) -> int:
        """The end of ``run``'s waves that have retired by ``now`` (:meth:`defer_run`)."""
        times = run.times
        stop = bisect_left(times, now, run.w)
        if stop < len(times) and times[stop] == now and self.engine._passed(run.seq, run.exits):
            stop = bisect_right(times, now, stop)
        return stop

    def _take(self, row: _Row, run: _Run, stop: int) -> None:
        """Mark ``run``'s waves up to ``stop`` booked, dropping a finished
        run from its row and a row left without runs from the pending ones."""
        run.w = stop
        if stop == len(run.times):
            row.pending.remove(run)
            if not row.pending:
                del self._pending[row.src]

    def _book_prefix(self, row: _Row, run: _Run, start: int, stop: int) -> None:
        """Book waves ``start`` up to ``stop`` of ``run`` as one list per
        wave, through one call of its owner's entry point with ``at``."""
        owner = run.owner()
        if owner is not None:
            waves = run.payloads[start:stop].tolist()
            if run.skip is not None:
                for wave in waves:
                    del wave[run.skip]
            getattr(owner, run.op)(row.src, run.dsts, waves, at=run.times[start:stop])

    def _book_stacked(self, group: list) -> bool:
        """Book ``group``'s prefixes (:meth:`settle` items of one key) as one
        zero-padded ``(rows, waves, G)`` array, through one call of their
        owner's entry point; False, booking nothing, when it declines."""
        first = group[0][1]
        owner = first.owner()
        if owner is None:
            return True  # a run whose owner is gone books nothing
        n_waves = max(stop - start for _, _, start, stop in group)
        payloads = np.zeros(
            (len(group), n_waves, self.topology.n_devices), dtype=first.payloads.dtype
        )
        at = np.zeros((len(group), n_waves))
        srcs = []
        for i, (row, run, start, stop) in enumerate(group):
            run.gather(payloads[i, :stop - start], row.src, start, stop)
            at[i, :stop - start] = run.times[start:stop]
            srcs.append(row.src)
        payloads[np.arange(len(srcs)), :, srcs] = 0  # the sources' own bytes
        return getattr(owner, first.op)(srcs, None, payloads, at=at) is not False

    def _settle_row(self, row: _Row) -> None:
        """Book ``row``'s deferred waves that retired by now (:meth:`defer_run`),
        as lists.

        One run books its retired prefix in one call.  Several go by
        :func:`_next_key`: the first run books up to the next wave of any
        other run, then the first run is chosen again.
        """
        now = self.engine._now
        runs = row.pending
        while runs:
            run = runs[0] if len(runs) == 1 else min(runs, key=_next_key)
            start, stop = run.w, self._retired(run, now)
            for other in runs:
                if other is not run and stop > start:
                    t = other.times[other.w]
                    if run.order < other.order:
                        stop = bisect_right(run.times, t, start, stop)
                    else:
                        stop = bisect_left(run.times, t, start, stop)
            if stop == start:
                break  # the first wave of all has not retired: none has
            self._take(row, run, stop)
            self._book_prefix(row, run, start, stop)

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
        self.settle()
        rows = self._rows
        return sum(rows[src].bytes_carried[dst] for src, dst in self._touched)

    def links(self) -> List[Link]:
        """A view of every touched link, in first-touch order.

        A deferred run touches its pairs when it is booked, so a pair it
        touches first can follow one another source touched later.
        """
        self.settle()
        return [self.link(src, dst) for src, dst in self._touched]


def _settle_weakly(ref: weakref.ref) -> None:
    """Have the fabric behind ``ref``, if alive, book its deferred writes
    retired by now: the profiler's callback before every read."""
    fabric = ref()
    if fabric is not None and fabric._pending:
        fabric.settle()
