"""CUDA-style streams and the join that waits on their ops.

A :class:`Stream` executes submitted operations strictly in order, one at a
time, mirroring CUDA stream semantics.  Submitting returns a
:class:`StreamOp` handle; a host program (a callback chain, see
:mod:`repro.simgpu.engine`) waits on a set of ops with one event,
``join(engine, ops)`` — the analogue of ``cudaStreamSynchronize``
over every stream the ops ran on.  A join also waits on events, so it is
the one way to wait for several things at once.

Every op is booked when it is submitted: its start and end are stamped at
once, from a delay or from the wave model of
:func:`~repro.simgpu.kernel._timeline` (which replays the fault edges
registered on the device), and it takes no engine entry, except one per
wave end for a launch with a per-wave hook that does not take the
launch's wave ends as one run (``take_run``, see
:data:`~repro.simgpu.kernel.WaveCallback`).  An op makes no event of its
own: :func:`join` waits on the ops among its waits with one entry at
their latest end, and fires one event when the last wait ends.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from ..checks import checked_count
from .engine import Engine, Event, SimulationError
from .kernel import KernelSpec, WaveCallback, _book_launch

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["Stream", "StreamOp", "StreamLease", "StreamPool", "join"]


class StreamOp:
    """Handle for one operation enqueued on a stream.

    An op has its ``started_at`` and ``finished_at`` from the moment it is
    submitted; :attr:`completed` turns true when the clock reaches its end.
    """

    __slots__ = ("name", "engine", "enqueued_at", "started_at", "finished_at")

    def __init__(self, name: str, engine: Engine, started_at: float, finished_at: float):
        self.name = name
        self.engine = engine
        self.enqueued_at = engine.now
        self.started_at = started_at
        self.finished_at = finished_at

    @property
    def completed(self) -> bool:
        """True once the operation has run to completion."""
        return self.finished_at <= self.engine.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.completed else "pending"
        return f"<StreamOp {self.name!r} {state}>"


class _Join:
    """Countdown over a join's unfinished waits; fires its event at zero."""

    __slots__ = ("event", "after_ns", "left")

    def __init__(self, event: Event, after_ns: float, left: int):
        self.event, self.after_ns, self.left = event, after_ns, left

    def op_done(self) -> None:
        self.left -= 1
        if self.left == 0:
            self.fire()

    def fire(self) -> None:
        if self.after_ns:
            self.event.engine.call_in(self.after_ns, self.event.succeed)
        else:
            self.event.succeed()


def join(
    engine: Engine, ops: Iterable[Union[StreamOp, Event]], after_ns: float = 0.0
) -> Event:
    """One event that fires ``after_ns`` after the last of ``ops`` finishes.

    ``ops`` mixes stream ops and events.  The ops among them count down
    together, from one engine entry at the latest of their ends; an event
    counts down from its own callbacks.  ``after_ns`` folds a host-side
    cost that follows the wait (a stream sync's ``sync_overhead_ns``) into
    the same event.  Finished ops (ones ending now included) and triggered
    events count as done, so a join over those, or over none, fires
    ``after_ns`` from now.
    """
    if not 0.0 <= after_ns < math.inf:
        raise SimulationError(f"join delay must be finite and >= 0, got {after_ns}")
    now = engine.now
    latest = now
    hooked = []
    for op in ops:
        if type(op) is Event:
            if not op._triggered:
                hooked.append(op)
        elif op.finished_at > latest:
            latest = op.finished_at
    booked = latest > now
    countdown = _Join(Event(engine, "join"), after_ns, len(hooked) + booked)
    if countdown.left == 0:
        countdown.fire()
    elif booked:
        engine.call_at(latest, countdown.op_done)
    for event in hooked:
        event.add_callback(countdown.op_done)
    return countdown.event


class Stream:
    """An in-order execution queue on one device.

    Each op is booked when it is submitted: it starts at the end of the
    stream's last op, or now if that has passed, and its end is computed
    at once.

    A stream keeps its device's id and spec, not the device itself: the
    device owns its streams, and a back-reference would make every
    cluster a reference cycle that only the cyclic GC can free.
    """

    def __init__(self, device: "Device", name: str = "default"):
        self.device_id = device.id
        self.spec = device.spec
        self.name = name
        self.engine: Engine = device.engine
        self._booked_end = -math.inf  # end of the last op

    def _start(self) -> float:
        now = self.engine.now
        return self._booked_end if self._booked_end > now else now

    def submit_delay(self, delay_ns: float, name: str = "delay") -> StreamOp:
        """Enqueue a fixed-duration operation (e.g. a modelled memcpy)."""
        if not 0.0 <= delay_ns < math.inf:
            raise SimulationError(f"stream delay must be finite and >= 0, got {delay_ns}")
        start = self._start()
        self._booked_end = end = start + delay_ns
        return StreamOp(name, self.engine, start, end)

    def launch(
        self, device: "Device", kspec: KernelSpec, on_wave: Optional[WaveCallback] = None
    ) -> StreamOp:
        """Enqueue kernel ``kspec`` on this stream's ``device``."""
        if device.id != self.device_id:
            raise ValueError(f"stream of device {self.device_id} cannot launch on device {device.id}")
        start = self._start()
        self._booked_end = end = _book_launch(device, kspec, on_wave, start)
        return StreamOp(kspec.name, self.engine, start, end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stream dev={self.device_id} {self.name!r}>"


class StreamLease:
    """Exclusive hold on one :class:`StreamPool` slot.

    The ``suffix`` is appended to the base stream names a batch uses
    (``"h2d"``, ``"dense"``, ``"default"``), giving each concurrent batch
    its own disjoint FIFO queues on every device.  Slot 0's suffix is the
    empty string, so single-slot execution uses exactly the pre-pool
    stream names (traces and tests see no difference).
    """

    __slots__ = ("pool", "slot", "_released")

    def __init__(self, pool: "StreamPool", slot: int):
        self.pool = pool
        self.slot = slot
        self._released = False

    @property
    def suffix(self) -> str:
        """Stream-name suffix for this slot (``""`` for slot 0)."""
        return "" if self.slot == 0 else f"#{self.slot}"

    def release(self) -> None:
        """Return the slot to the pool (idempotent)."""
        if not self._released:
            self._released = True
            self.pool._release(self.slot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "released" if self._released else "held"
        return f"<StreamLease slot={self.slot} {state}>"


class StreamPool:
    """A fixed set of per-batch stream-name slots for concurrent contexts.

    The continuous-batching scheduler keeps up to K batches in flight;
    each needs its own set of streams on every device or their kernels
    would serialise on the shared FIFO queues.  A ``StreamPool`` hands out
    ``n_slots`` leases; the holder derives concrete streams via
    ``device.stream(base_name + lease.suffix)``.  Acquisition is
    non-blocking — callers that find the pool empty wait on their own
    scheduling signal (the serving scheduler retries when a batch
    completes).
    """

    def __init__(self, n_slots: int):
        n_slots = checked_count("StreamPool", "n_slots", n_slots)
        self.n_slots = n_slots
        self._free: List[int] = list(range(n_slots))

    def try_acquire(self) -> Optional[StreamLease]:
        """Lease the lowest free slot, or ``None`` when all are in use."""
        if not self._free:
            return None
        return StreamLease(self, self._free.pop(0))

    def acquire(self) -> StreamLease:
        """Lease the lowest free slot; raises when the pool is exhausted."""
        lease = self.try_acquire()
        if lease is None:
            raise RuntimeError(f"all {self.n_slots} stream slots are in use")
        return lease

    def _release(self, slot: int) -> None:
        self._free.append(slot)
        self._free.sort()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StreamPool {self.n_slots - len(self._free)}/{self.n_slots} in use>"
