"""CUDA-style streams and events.

A :class:`Stream` executes submitted operations strictly in order, one at a
time, mirroring CUDA stream semantics.  Operations are process generators
(see :mod:`repro.simgpu.engine`); submitting returns a :class:`StreamOp`
handle whose ``done`` event fires at completion, so host code (itself a
process) can ``yield op.done`` — the analogue of ``cudaStreamSynchronize``
on a single op — or ``yield stream.drained()`` for the whole stream.

:class:`CudaEvent` reproduces ``cudaEventRecord`` / ``cudaStreamWaitEvent``
cross-stream ordering: recording enqueues a marker op; waiting enqueues an
op that blocks the stream until the marker has executed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from .engine import Engine, Event, ProcessGenerator

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["Stream", "StreamOp", "StreamLease", "StreamPool", "CudaEvent"]


class StreamOp:
    """Handle for one operation enqueued on a stream."""

    __slots__ = ("name", "done", "enqueued_at", "started_at", "finished_at")

    def __init__(self, name: str, done: Event, enqueued_at: float):
        self.name = name
        self.done = done
        self.enqueued_at = enqueued_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        """True once the operation has run to completion."""
        return self.done.triggered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.completed else "pending"
        return f"<StreamOp {self.name!r} {state}>"


class Stream:
    """An in-order execution queue on one device.

    A stream keeps its device's id and spec, not the device itself: the
    device owns its streams, and a back-reference would make every
    cluster a reference cycle that only the cyclic GC can free.
    """

    def __init__(self, device: "Device", name: str = "default"):
        self.device_id = device.id
        self.spec = device.spec
        self.name = name
        self.engine: Engine = device.engine
        self._queue: List[tuple] = []  # (op, factory)
        self._busy = False
        self._idle_waiters: List[Event] = []

    # -- submission -------------------------------------------------------------

    def submit(
        self, factory: Callable[[], ProcessGenerator], name: str = "op"
    ) -> StreamOp:
        """Enqueue an operation; it runs after everything already queued.

        ``factory`` is called (lazily, when the op reaches the head of the
        queue) to produce the process generator that performs the work.
        """
        op = StreamOp(name, Event(self.engine, name), self.engine.now)
        self._queue.append((op, factory))
        if not self._busy:
            self._busy = True
            self.engine.process(self._dispatch(), name=self.name)
        return op

    def submit_delay(self, delay_ns: float, name: str = "delay") -> StreamOp:
        """Enqueue a fixed-duration operation (e.g. a modelled memcpy)."""

        def factory() -> ProcessGenerator:
            yield self.engine.timeout(delay_ns)

        return self.submit(factory, name=name)

    # -- synchronisation -----------------------------------------------------------

    def drained(self) -> Event:
        """Event that fires when the stream has no queued or running work."""
        ev = Event(self.engine, "drained")
        if not self._busy and not self._queue:
            ev.succeed()
        else:
            self._idle_waiters.append(ev)
        return ev

    def synchronize(self) -> ProcessGenerator:
        """Process generator: block until drained, charging host sync cost."""
        yield self.drained()
        yield self.engine.timeout(self.spec.sync_overhead_ns)

    # -- events (cudaEvent analogue) -------------------------------------------------

    def record_event(self) -> "CudaEvent":
        """Record a marker after all currently-enqueued ops (cudaEventRecord)."""
        ev = CudaEvent(self.engine)

        def factory() -> ProcessGenerator:
            ev._fire(self.engine.now)
            return
            yield  # pragma: no cover - makes this a generator

        self.submit(factory, name="event_record")
        return ev

    def wait_event(self, ev: "CudaEvent") -> StreamOp:
        """Block this stream until ``ev`` fires (cudaStreamWaitEvent)."""

        def factory() -> ProcessGenerator:
            if not ev.fired:
                yield ev.event

        return self.submit(factory, name="event_wait")

    # -- dispatcher -------------------------------------------------------------

    def _dispatch(self) -> ProcessGenerator:
        while self._queue:
            op, factory = self._queue.pop(0)
            op.started_at = self.engine.now
            gen = factory()
            if gen is not None:
                result = yield self.engine.process(gen, name=op.name)
            else:
                result = None
            op.finished_at = self.engine.now
            op.done.succeed(result)
        self._busy = False
        waiters, self._idle_waiters = self._idle_waiters, []
        for ev in waiters:
            ev.succeed()

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
    scheduling signal (e.g. an :class:`~repro.simgpu.engine.Notifier`
    kicked at batch completion) and retry.
    """

    def __init__(self, n_slots: int):
        if n_slots < 1:
            raise ValueError("a StreamPool needs at least one slot")
        self.n_slots = n_slots
        self._free: List[int] = list(range(n_slots))

    @property
    def n_free(self) -> int:
        """Currently available slots."""
        return len(self._free)

    @property
    def n_in_use(self) -> int:
        """Currently leased slots."""
        return self.n_slots - len(self._free)

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
        return f"<StreamPool {self.n_in_use}/{self.n_slots} in use>"


class CudaEvent:
    """A cross-stream marker (cudaEvent analogue) with a timestamp."""

    __slots__ = ("engine", "event", "timestamp")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.event = engine.event("cuda_event")
        self.timestamp: Optional[float] = None

    @property
    def fired(self) -> bool:
        """True once the marker has been reached in its recording stream."""
        return self.event.triggered

    def _fire(self, when: float) -> None:
        self.timestamp = when
        self.event.succeed(when)

    def elapsed_since(self, earlier: "CudaEvent") -> float:
        """cudaEventElapsedTime analogue, in nanoseconds."""
        if self.timestamp is None or earlier.timestamp is None:
            raise ValueError("both events must have fired")
        return self.timestamp - earlier.timestamp
