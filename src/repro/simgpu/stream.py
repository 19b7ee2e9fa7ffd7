"""CUDA-style streams and events.

A :class:`Stream` executes submitted operations strictly in order, one at a
time, mirroring CUDA stream semantics.  Submitting returns a
:class:`StreamOp` handle whose ``done`` event fires at completion, so host
code (itself a process, see :mod:`repro.simgpu.engine`) can
``yield op.done`` — the analogue of ``cudaStreamSynchronize`` on a single
op — or ``yield stream.drained()`` for the whole stream.

The FIFO runs on engine callbacks; the one that ends an op starts the next.
Only generic :meth:`Stream.submit` ops are processes, and ``done`` is made
on first read, so an op nobody waits on schedules no wake-up.

:class:`CudaEvent` reproduces ``cudaEventRecord`` / ``cudaStreamWaitEvent``
cross-stream ordering: recording enqueues a marker op; waiting enqueues an
op that blocks the stream until the marker has executed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from .engine import Engine, Event, ProcessGenerator, SimulationError
from .kernel import KernelSpec, WaveCallback, _KernelRun

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["Stream", "StreamOp", "StreamLease", "StreamPool", "CudaEvent"]


class StreamOp:
    """Handle for one operation enqueued on a stream."""

    __slots__ = ("name", "enqueued_at", "started_at", "finished_at", "_engine", "_done", "_value")

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.enqueued_at = engine.now
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._engine = engine
        self._done: Optional[Event] = None
        self._value: Any = None

    @property
    def done(self) -> Event:
        """Event firing at completion with the op's result (made on first read)."""
        ev = self._done
        if ev is None:
            ev = self._done = Event(self._engine, self.name)
            if self.finished_at is not None:
                # Triggered in the past: waiters added now run at once.
                ev._triggered = True
                ev._value = self._value
        return ev

    @property
    def completed(self) -> bool:
        """True once the operation has run to completion."""
        return self.finished_at is not None

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
        self._queue: Deque[Tuple[StreamOp, Callable[..., None], tuple]] = deque()
        self._running: Optional[StreamOp] = None
        self._idle_waiters: List[Event] = []

    # -- submission -------------------------------------------------------------

    def submit(
        self, factory: Callable[[], ProcessGenerator], name: str = "op"
    ) -> StreamOp:
        """Enqueue an operation; it runs after everything already queued.

        ``factory`` is called (lazily, when the op reaches the head of the
        queue) to produce the process generator that performs the work.
        """
        return self._enqueue(StreamOp(name, self.engine), self._process, (factory,))

    def submit_delay(self, delay_ns: float, name: str = "delay") -> StreamOp:
        """Enqueue a fixed-duration operation (e.g. a modelled memcpy)."""
        if not 0.0 <= delay_ns < math.inf:
            raise SimulationError(f"stream delay must be finite and >= 0, got {delay_ns}")
        return self._enqueue(StreamOp(name, self.engine), self.engine.call_in, (delay_ns,))

    def launch(
        self, device: "Device", kspec: KernelSpec, on_wave: Optional[WaveCallback] = None
    ) -> StreamOp:
        """Enqueue kernel ``kspec`` on this stream's ``device``; the result is its duration."""
        if device.id != self.device_id:
            raise ValueError(f"stream of device {self.device_id} cannot launch on device {device.id}")
        return self._enqueue(StreamOp(kspec.name, self.engine), _KernelRun, (device, kspec, on_wave))

    # -- synchronisation -----------------------------------------------------------

    def drained(self) -> Event:
        """Event that fires when the stream has no queued or running work."""
        ev = Event(self.engine, "drained")
        if self._running is None:
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

    # -- the FIFO ---------------------------------------------------------------

    def _enqueue(self, op: StreamOp, start: Callable[..., None], args: tuple) -> StreamOp:
        self._queue.append((op, start, args))
        if self._running is None:
            self._next()
        return op

    def _next(self) -> None:
        op, start, args = self._queue.popleft()
        self._running = op
        op.started_at = self.engine.now
        start(*args, self._finish)

    def _process(self, factory: Callable[[], ProcessGenerator], done: Callable[[], None]) -> None:
        gen = factory()
        if gen is None:
            return done()
        self.engine.process(gen, name=self._running.name).add_callback(self._on_process)

    def _on_process(self, proc: Event) -> None:
        self._finish(proc.value)

    def _finish(self, value: Any = None) -> None:
        """Complete the running op, then start the next one at this instant."""
        op = self._running
        op.finished_at = self.engine.now
        op._value = value
        if op._done is not None:
            op._done.succeed(value)
        if self._queue:
            return self._next()
        self._running = None
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
