"""PGAS one-sided GPU communication (NVSHMEM-style), the paper's scheme.

The programming model of Listing 2: a CUDA thread that has finished pooling
an embedding vector writes it *directly* to the output array — locally if
the sample belongs to the local mini-batch, remotely via a one-sided RDMA
write otherwise.  No collective call, no packing, no staging buffer.

This module models that with two pieces:

* :meth:`PGASContext.put` — non-blocking one-sided write of a payload that
  is carried as many small messages (default 256 B — one d=64 fp32
  embedding vector per message, the paper's counter unit) each paying a
  header; injected into the interconnect *at the simulated instant the
  kernel wave retires*, which is what produces the fine-grained overlap.
  A retiring wave writes to every peer at once, and ``put`` takes it that
  way: parallel ``dst`` and ``payload_bytes`` lists are exactly the
  same writes issued one at a time, in order, at one instant.  A scalar
  call is a wave of one.  The whole wave is validated before anything is
  booked, with one screen over the wave and element-by-element checks
  only when it fails, so a bad element raises its typed error by
  position and books nothing.  A device id is a Python or numpy integer:
  a float that equals one (``1.0``) is rejected like an out-of-range id.
* :meth:`PGASContext.quiet` — NVSHMEM completion semantics for a set of
  PEs: one event that fires once every put they issued has landed.  A put
  is *booked* at issue, not scheduled:
  :meth:`~repro.simgpu.interconnect.Interconnect.book_wave` reserves each
  write's link and stamps the byte counters at its delivery instant, and
  the PE keeps only its latest delivery instant, which is all ``quiet``
  needs.  A put takes no engine entry: nothing waits on one write, and
  ``quiet`` schedules its own wake-up at that instant, so ``Engine.run()``
  with nothing else queued may return before the last put has landed.
  A fused launch booked at its start does not even take one entry per
  wave: :meth:`PGASContext.put_run` (and :meth:`PGASContext.atomic_run`)
  hands the fabric every wave's payloads as one run of data on the
  source's links (:meth:`~repro.simgpu.interconnect.Interconnect.defer_run`).
  Its retired waves are booked through ``put`` (``atomic_add``) with their
  issue instants (``at``) when the source's links are next touched or
  read, and by ``quiet`` over the source.  A settle of many sources books
  them all in one ``put`` call, as one ``(sources, waves, devices)`` array
  booked in one pass
  (:meth:`~repro.simgpu.interconnect.Interconnect.book_runs`); the fabric
  alone chooses that or one list per wave, per source.

Every booked write is one sample of the profiler's :attr:`PGASContext.COUNTER`
(``pgas_bytes``, the paper's RDMA-write payload counter; atomics book there
too), so that counter's sample count and ``total`` are the writes and the
payload bytes issued: the context keeps no count of its own.

The aggregator and the hierarchical staging router carry one-sided writes
their own way, but validate each through :meth:`PGASContext.check_put`, so
they raise the same typed errors as ``put``.

``atomic_add`` models the backward-pass extension (§V): gradient
contributions scatter-added into remote tables without rounds of
collectives.
"""

from __future__ import annotations

import numbers
import operator
import weakref
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..checks import check_bytes, checked_count
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.interconnect import _ID, _are_ids, _is_id
from ..simgpu.stream import join
from ..simgpu.units import us

__all__ = ["PGASSpec", "PGASContext", "ATOMIC_PAYLOAD_BYTES", "QUIET_OVERHEAD_NS"]

#: cost of the memory-fence/quiet operation at kernel end
QUIET_OVERHEAD_NS = 2 * us
#: payload of one remote atomic (gradient adds)
ATOMIC_PAYLOAD_BYTES = 8

_INF = float("inf")

#: Payload sums below this keep a stack's message counts exact in int64
#: and its atomic bytes exact as float64 (:meth:`PGASContext._book_stack`).
_EXACT = 2.0 ** 53

#: What makes a ``dst`` argument a wave rather than one device id.
_WAVE = (list, tuple)


def _check_payload(name: str, value) -> None:
    try:
        check_bytes(name, value)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}") from None


def _check_count(name: str, value) -> None:
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class PGASSpec:
    """Tunables of the one-sided messaging layer.

    Attributes
    ----------
    message_bytes:
        Payload per one-sided write.  256 B = one 64-float embedding vector,
        matching the paper's communication-counter unit.
    header_bytes:
        Wire framing per message — the "message header takes a good portion
        of bandwidth" inefficiency of §IV-A2d.  32 B/256 B ⇒ 12.5% overhead.
    """

    message_bytes: int = 256
    header_bytes: int = 32

    def __post_init__(self) -> None:
        checked_count("PGASSpec", "message_bytes", self.message_bytes)
        checked_count("PGASSpec", "header_bytes", self.header_bytes, minimum=0)


class PGASContext:
    """One-sided communication endpoint set over a cluster."""

    #: profiler counter for one-sided payload bytes (paper's RDMA counter)
    COUNTER = "pgas_bytes"

    def __init__(self, cluster: Cluster, spec: Optional[PGASSpec] = None):
        self.cluster = cluster
        self.spec = spec or PGASSpec()
        ids = [d.id for d in cluster.devices]
        # PE -> its device's can_access_peers: one lookup checks a source,
        # one call screens a wave's destinations.
        self._reach = {d.id: d.can_access_peers for d in cluster.devices}
        self._fabric = cluster.interconnect
        # Bound once: every put call uses it.
        self._book_wave = cluster.interconnect.book_wave
        # Completion state per PE.  A put is booked, not scheduled: quiet
        # only needs "every earlier put has landed", i.e. the latest
        # delivery instant booked so far.
        self._last_done: Dict[int, float] = dict.fromkeys(ids, float("-inf"))
        # Externally-created transfers (aggregator flushes, hier chains).
        self._outstanding: Dict[int, List[Event]] = {pe: [] for pe in ids}
        # Deferred runs refer to the context weakly: the fabric holds them.
        self._ref = weakref.ref(self)

    # -- one-sided ops ---------------------------------------------------------

    def put(self, src: int, dst, payload_bytes, *, at=None) -> Optional[bool]:
        """Non-blocking one-sided write of ``payload_bytes`` from src to dst.

        The payload is carried as ``ceil(payload / message_bytes)`` small
        messages injected into the interconnect *now*; :meth:`quiet` waits
        for it.  An empty put is a no-op.

        ``dst`` and ``payload_bytes`` may instead be parallel lists or
        tuples: a *wave*, exactly the same writes issued one at a time, in
        order, at the current instant (a retiring kernel wave's remote
        vectors).  A scalar call is a wave of one.  Every element is
        validated before any is booked.

        ``at`` books several waves issued earlier, as a deferred run
        (:meth:`put_run`) does once they retire: one issue instant per
        wave, none later than now, and ``payload_bytes`` one list per wave,
        each parallel to the list ``dst``, or one ``(waves, len(dst))``
        array.  The same writes as one wave put per wave at its instant,
        booked in one pass; every wave is validated first, each raising as
        its own put would.

        With ``at``, ``src`` may also be a list of sources: a settle's
        retired prefixes, stacked (:meth:`_book_stack`).  ``payload_bytes``
        is then one ``(len(src), waves, G)`` float64 array whose column
        ``d`` goes to device ``d`` (zero where nothing is written, shorter
        prefixes padded with zero waves), ``at`` the ``(len(src), waves)``
        issue instants and ``dst`` None.  It returns False, booking
        nothing, when the stack fails its screen or a write would queue
        behind its own run; the fabric then books each source's lists.

        Requires peer access (NVLink-mapped memory), as on the testbed.
        """
        if at is not None:
            if type(src) is list:
                return self._book_stack(src, payload_bytes, at, self.spec.message_bytes)
            if type(payload_bytes) is np.ndarray:
                payload_bytes = payload_bytes.tolist()
            # One screen of the whole run, as of a wave below, plus one
            # payload per destination in every wave and one instant per wave.
            try:
                totals = list(map(sum, payload_bytes))
                ok = (
                    _are_ids(src, dst)
                    and self._reach[src](dst)
                    and sum(totals) < _INF
                    and min(map(min, payload_bytes)) >= 0
                    and set(map(len, payload_bytes)) == {len(dst)}
                    and len(at) == len(totals)
                )
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                self._check_run("put", src, dst, payload_bytes, at, "payload_bytes",
                                _check_payload)
            self._book_waves(src, dst, payload_bytes, at, self.spec.message_bytes)
            return None
        wave = isinstance(dst, _WAVE)
        if not wave:
            dst, payload_bytes = [dst], [payload_bytes]
        try:
            # One screen of the whole wave: a known source whose every
            # destination is a remote peer, and payloads with a finite sum
            # (a NaN or an infinity fails it; an overflow only costs the
            # element checks) and a non-negative minimum.
            total = sum(payload_bytes)
            ok = (
                _are_ids(src, dst)
                and self._reach[src](dst)
                and total < _INF
                and min(payload_bytes) >= 0
                and (not wave or len(payload_bytes) == len(dst))
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            self._check_wave("put", src, dst, payload_bytes, wave, "payload_bytes", _check_payload)
        self._book(src, dst, payload_bytes, self.spec.message_bytes)
        return None

    def atomic_add(self, src: int, dst, n_elements, *, at=None) -> Optional[bool]:
        """``n_elements`` remote atomic adds (backward-pass gradient scatter).

        Takes a wave like :meth:`put`: parallel ``dst`` and ``n_elements``
        lists or tuples, and with ``at`` several waves issued earlier (a
        deferred :meth:`atomic_run`), one list of counts per wave or one
        integer array, or, as :meth:`put` takes a stack, a list of sources
        and one ``(sources, waves, G)`` integer array of counts.
        """
        size = ATOMIC_PAYLOAD_BYTES
        if at is not None:
            if type(src) is list:
                if n_elements.dtype.kind not in "iu":
                    return False
                return self._book_stack(src, n_elements * float(size), at, size)
            if type(n_elements) is np.ndarray:
                n_elements = n_elements.tolist()
            self._check_run("atomic_add", src, dst, n_elements, at, "n_elements", None)
            waves = [
                [float(n * size) for n in self._checked_counts(src, dst, counts, True)]
                for counts in n_elements
            ]
            self._book_waves(src, dst, waves, at, size)
            return None
        wave = isinstance(dst, _WAVE)
        if not wave:
            dst, n_elements = [dst], [n_elements]
        counts = self._checked_counts(src, dst, n_elements, wave)
        self._book(src, dst, [float(n * size) for n in counts], size)
        return None

    def _checked_counts(self, src: int, dst, n_elements, wave: bool) -> List[int]:
        """One :meth:`atomic_add` wave's counts, once the wave passes its checks."""
        try:
            counts = list(map(operator.index, n_elements))
            if (
                _are_ids(src, dst) and self._reach[src](dst)
                and min(counts) >= 0 and len(counts) == len(dst)
            ):
                return counts
        except (KeyError, TypeError, ValueError):
            pass
        self._check_wave("atomic_add", src, dst, n_elements, wave, "n_elements", _check_count)
        return list(map(operator.index, n_elements))

    def put_run(
        self, src: int, dsts: List[int], ends: List[float], waves: np.ndarray, skip: int
    ) -> bool:
        """Defer a fused launch's puts from ``src`` as one run.

        Wave ``w`` writes row ``w`` of the 2-D ``waves`` (column ``skip``,
        the source's own bytes, left out) to ``dsts``, issued at
        ``ends[w]``: the same writes as one :meth:`put` per wave with
        remote bytes.  Nothing is booked now: the fabric holds the matrix
        (:meth:`~repro.simgpu.interconnect.Interconnect.defer_run`) and,
        once the waves have retired, books them through :meth:`put` with
        ``at`` when ``src``'s links are next touched or read, or by
        :meth:`quiet` over ``src``.

        The caller has checked that every payload is finite and
        non-negative.  Returns False, deferring nothing, unless ``src`` is
        a PE and every destination a remote peer; the caller then puts
        wave by wave, so a bad element raises at its wave's end.
        """
        reach = self._reach.get(src)
        if reach is None or not (_are_ids(src, dsts) and reach(dsts)):
            return False
        self._fabric.defer_run(src, ends, waves, dsts, skip, self._ref, "put")
        return True

    def atomic_run(
        self, src: int, dsts: List[int], ends: List[float], counts: np.ndarray
    ) -> bool:
        """Defer a fused launch's remote atomics from ``src`` as one run.

        Wave ``w`` adds the non-negative integer row ``w`` of ``counts``
        to ``dsts`` at ``ends[w]``: one :meth:`atomic_add` per wave with
        atomics, deferred like :meth:`put_run` and booked through
        :meth:`atomic_add` with ``at``.  Returns False, deferring nothing,
        unless ``src`` is a PE and every destination a remote peer.
        """
        reach = self._reach.get(src)
        if reach is None or not (_are_ids(src, dsts) and reach(dsts)):
            return False
        self._fabric.defer_run(src, ends, counts, dsts, None, self._ref, "atomic_add")
        return True

    def check_put(self, op: str, src: int, dst: int, payload_bytes: float) -> None:
        """Raise unless one write of ``payload_bytes`` from src to dst is valid.

        The typed errors of :meth:`put`, for callers that carry a one-sided
        write some other way (the aggregator's ``store``, the staging
        router's ``put``); ``op`` names the caller in the message.
        """
        self._check_wave(op, src, (dst,), (payload_bytes,), False, "payload_bytes", _check_payload)

    def register_outstanding(self, src: int, ev: Event) -> None:
        """Track an externally-created transfer so :meth:`quiet` drains it.

        Used by the §V aggregator, whose flushes are ordinary transfers but
        must still participate in NVSHMEM completion semantics.
        """
        self._check_pe("register_outstanding", src)
        self._outstanding[src].append(ev)

    def _check_pe(self, op: str, src) -> None:
        """Raise unless ``src`` is one of this context's PEs."""
        if not isinstance(src, _ID) or type(src) is bool or src not in self._reach:
            raise ValueError(f"{op}: src must be a device id in [0, {len(self._reach)}), got {src!r}")

    def _check_run(self, op, src, dsts, waves, at, name, check) -> None:
        """Raise the typed error of a run's first bad wave (:meth:`_check_wave`,
        by position in its wave), or of a missing or extra issue instant.
        Without ``check`` only the instants are checked."""
        if len(at) != len(waves):
            raise ValueError(
                f"{op}: at needs one issue instant per wave, got {len(at)} for {len(waves)}"
            )
        if check is not None:
            for values in waves:
                self._check_wave(op, src, dsts, values, True, name, check)

    def _check_wave(self, op, src, dsts, values, wave, name, check) -> None:
        """Raise the typed error of a wave's first bad argument, if any.

        Checks the source, the shape, then each element in order; a wave's
        elements are named by position (``dst[3]``).
        """
        pes = self._reach
        self._check_pe(op, src)
        if not isinstance(values, _WAVE) or len(values) != len(dsts):
            raise ValueError(f"{op}: a wave needs one {name} per dst")
        can_access_peer = self.cluster.device(src).can_access_peer
        for i, (dst, value) in enumerate(zip(dsts, values)):
            at = f"[{i}]" if wave else ""
            if not _is_id(dst) or dst not in pes:
                raise ValueError(
                    f"{op}: dst{at} must be a device id in [0, {len(pes)}), got {dst!r}"
                )
            if src == dst:
                raise ValueError(f"{op} to self: a local store needs no wire, write it locally")
            if not can_access_peer(dst):
                raise PermissionError(f"device {src} has no peer access to device {dst}")
            check(name + at, value)

    def _book(self, src: int, dsts, payloads, message_bytes: int) -> None:
        """Book a validated wave."""
        done = self._book_wave(
            src, dsts, payloads, message_bytes, self.spec.header_bytes, self.COUNTER
        )
        if done:
            last = max(done)
            if last > self._last_done[src]:
                self._last_done[src] = last

    def _book_waves(self, src: int, dst: List[int], waves: List[List[float]], at: List[float],
                    message_bytes: int) -> None:
        """Book validated waves of payloads, wave ``w`` to ``dst`` at
        ``at[w]``, as one list (what :meth:`_book` does for one wave); a
        zero payload books nothing."""
        to: List[int] = []
        payloads: List[float] = []
        nows: List[float] = []
        for values, t in zip(waves, at):
            if all(values):
                to += dst
                payloads += values
                nows += [t] * len(values)
            else:
                kept = list(compress(values, values))
                if kept:
                    to += compress(dst, values)
                    payloads += kept
                    nows += [t] * len(kept)
        if not payloads:
            return
        last = max(self._book_wave(
            src, to, payloads, message_bytes, self.spec.header_bytes, self.COUNTER, nows
        ))
        if last > self._last_done[src]:
            self._last_done[src] = last

    def _book_stack(self, srcs: List[int], payloads: np.ndarray, at: np.ndarray,
                    message_bytes: int) -> bool:
        """Book a settle's stacked prefixes (:meth:`put` with a list of
        sources) in one array pass
        (:meth:`~repro.simgpu.interconnect.Interconnect.book_runs`): what
        :meth:`_book_waves` does with each source's lists, in order.
        Returns False, booking nothing, when the stack fails
        the one numpy screen (a PE per row, one column per PE, matching
        shapes, a non-negative payload sum below 2**53; each run's
        destinations were checked when it was deferred, :meth:`put_run`)
        or a write would queue behind its own run."""
        try:
            ok = (
                payloads.dtype == np.float64
                and payloads.ndim == 3
                and payloads.shape[2] == len(self._reach)
                and payloads.shape[:2] == at.shape == (len(srcs), payloads.shape[1])
                and all(_is_id(src) and src in self._reach for src in srcs)
            )
            total = payloads.sum() if ok else _INF
            ok = ok and total < _EXACT and payloads.min() >= 0
        except (AttributeError, TypeError, ValueError):
            ok = False
        if not ok:
            return False
        lasts = self._fabric.book_runs(
            srcs, payloads, message_bytes, self.spec.header_bytes, self.COUNTER, at
        )
        if lasts is None:
            return False
        last_done = self._last_done
        for src, last in zip(srcs, lasts.tolist()):
            if last > last_done[src]:
                last_done[src] = last
        return True

    # -- completion --------------------------------------------------------------

    def quiet(self, pes: Union[int, Iterable[int]]) -> Event:
        """One event: every one-sided op issued so far from ``pes`` has landed.

        NVSHMEM ``nvshmem_quiet`` semantics over a set of PEs (one id is a
        set of one).  The event fires :data:`QUIET_OVERHEAD_NS` after the later
        of the PEs' latest booked delivery instant and their still-pending
        registered transfers.  The snapshot is taken here, once the PEs'
        deferred runs have booked their waves retired by now, so ops issued
        after the call are not waited for.  With no registered transfer the
        wake-up is one callback at an absolute instant (``now + (last -
        now)`` could round past it).  Every PE is checked before anything
        is scheduled.
        """
        pes = [pes] if isinstance(pes, numbers.Number) else list(pes)
        for pe in pes:
            self._check_pe("quiet", pe)
        self._fabric.settle(pes)
        engine = self.cluster.engine
        last = engine.now
        waits: List[Event] = []
        for pe in pes:
            self._gc(pe)
            waits.extend(self._outstanding[pe])
            last = max(last, self._last_done[pe])
        done = Event(engine, "quiet")
        overhead = QUIET_OVERHEAD_NS
        if not waits:
            engine.call_at(last + overhead, done.succeed)
            return done

        join(engine, waits).add_callback(
            lambda: engine.call_at(max(last, engine.now) + overhead, done.succeed)
        )
        return done

    def _gc(self, device_id: int) -> None:
        """Drop delivered events from the outstanding list."""
        self._outstanding[device_id] = [
            ev for ev in self._outstanding[device_id] if not ev.triggered
        ]

