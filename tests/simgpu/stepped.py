"""Stepped kernel launches: the oracle that booked launches are checked against.

A :class:`SteppedStream` runs its ops as the FIFO of a discrete-event
model that does not know a launch's end in advance: a launch starts when
it reaches the head of the queue and is driven wave by wave by engine
callbacks (:class:`KernelRun`), reading ``device.slowdown`` at each wave
start and holding each wave boundary while ``device.stalled_until`` lies
ahead.  Ops behind a running launch wait in the queue until its finish
callback.  Delays are booked as in :class:`~repro.simgpu.stream.Stream`.

A fault plan's edges change the live device state in their own engine
entries; a stepped launch reads that live state, so it needs no replay.
:func:`step_launches` makes every stream of a cluster a stepped one and
points the library's ``join`` at :func:`join`, which also waits on ops
whose end is not known yet.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Tuple, Union

from repro.simgpu import stream as stream_mod
from repro.simgpu.engine import Engine, Event, SimulationError
from repro.simgpu.kernel import WaveInfo, _body_ns, _epilogue_ns, _wave_fractions
from repro.simgpu.stream import Stream, _Join

__all__ = ["KernelRun", "SteppedOp", "SteppedStream", "join", "step_launches"]


class SteppedOp:
    """A stream op whose stamps are set when its callbacks run."""

    __slots__ = ("name", "engine", "enqueued_at", "started_at", "finished_at", "_hooks")

    def __init__(self, name: str, engine: Engine):
        self.name = name
        self.engine = engine
        self.enqueued_at = engine.now
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Finish hooks of the joins waiting on this op before it was booked
        # or while it is stepped.
        self._hooks: Optional[List[Callable[[], None]]] = None

    @property
    def completed(self) -> bool:
        return self.finished_at is not None and self.finished_at <= self.engine.now

    def _run_hooks(self) -> None:
        hooks, self._hooks = self._hooks, None
        for hook in hooks:
            hook()


def join(engine: Engine, ops: Iterable[Union[SteppedOp, Event]], after_ns: float = 0.0) -> Event:
    """:func:`repro.simgpu.stream.join`, which also waits on stepped ops.

    A booked op counts down from one entry at the latest booked end, a
    stepped op (or one queued behind it) from its finish hooks.
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
        elif op.finished_at is None:
            hooked.append(op)
        elif op.finished_at > latest:
            latest = op.finished_at
    booked = latest > now
    countdown = _Join(Event(engine, "join"), after_ns, len(hooked) + booked)
    if countdown.left == 0:
        countdown.fire()
    elif booked:
        engine.call_at(latest, countdown.op_done)
    for op in hooked:
        if type(op) is Event:
            op.add_callback(countdown.op_done)
        elif op._hooks is None:
            op._hooks = [countdown.op_done]
        else:
            op._hooks.append(countdown.op_done)
    return countdown.event


def _book_delay(delay_ns: float, start: float) -> float:
    return start + delay_ns


class SteppedStream(Stream):
    """A stream that steps its launches (see the module docstring)."""

    def __init__(self, device, name: str = "default"):
        super().__init__(device, name)
        # Ops behind the stepped op in ``_running``: (op, booking function
        # or None for a stepped launch, its arguments).
        self._queue: Deque[Tuple[SteppedOp, Optional[Callable[..., float]], tuple]] = deque()
        self._running: Optional[SteppedOp] = None
        self._stepped: tuple = ()  # the arguments of the stepped op waiting to start

    def submit_delay(self, delay_ns: float, name: str = "delay") -> SteppedOp:
        if not 0.0 <= delay_ns < math.inf:
            raise SimulationError(f"stream delay must be finite and >= 0, got {delay_ns}")
        return self._enqueue(SteppedOp(name, self.engine), _book_delay, (delay_ns,))

    def launch(self, device, kspec, on_wave=None) -> SteppedOp:
        if device.id != self.device_id:
            raise ValueError(f"stream of device {self.device_id} cannot launch on device {device.id}")
        return self._enqueue(SteppedOp(kspec.name, self.engine), None, (device, kspec, on_wave))

    def _enqueue(self, op: SteppedOp, book: Optional[Callable[..., float]], args: tuple) -> SteppedOp:
        if self._running is not None:
            self._queue.append((op, book, args))
        elif book is not None:
            self._book(op, book, args)
        else:
            self._step(op, args)
        return op

    def _book(self, op: SteppedOp, book: Callable[..., float], args: tuple) -> None:
        """Start ``op`` at the booked end (or now) and book its end."""
        now = self.engine.now
        start = self._booked_end if self._booked_end > now else now
        op.started_at = start
        op.finished_at = self._booked_end = book(*args, start)
        if op._hooks is not None:
            # Joined while it waited behind a stepped op.
            self.engine.call_at(op.finished_at, op._run_hooks)

    def _step(self, op: SteppedOp, args: tuple) -> None:
        """Run stepped ``op`` from the booked end, or now if that has passed."""
        self._running, self._stepped = op, args
        if self._booked_end > self.engine.now:
            self.engine.call_at(self._booked_end, self._start_stepped)
        else:
            self._start_stepped()

    def _start_stepped(self) -> None:
        op, args = self._running, self._stepped
        self._stepped = ()
        op.started_at = self.engine.now
        KernelRun(*args, self._finish)

    def _finish(self) -> None:
        """Complete the stepped op, then start what queued behind it."""
        op = self._running
        op.finished_at = self.engine.now
        if op._hooks is not None:
            op._run_hooks()
        self._running = None
        while self._running is None and self._queue:
            op, book, args = self._queue.popleft()
            if book is not None:
                self._book(op, book, args)
            else:
                self._step(op, args)


class KernelRun:
    """One stepped kernel launch, driven by engine callbacks.

    ``device.slowdown`` is sampled at each wave start, ``on_wave`` runs
    at each wave's retirement and a ``device.stalled_until`` window holds
    wave boundaries.  ``done()`` runs once the floor and the tail are
    charged; a launch under a trace records its kernel span there.
    """

    __slots__ = ("device", "kspec", "on_wave", "done", "fracs", "body", "t0", "t_start", "w")

    def __init__(self, device, kspec, on_wave, done: Callable[[], object]):
        self.device, self.kspec, self.on_wave, self.done = device, kspec, on_wave, done
        self.t0 = device.engine.now
        self.fracs = _wave_fractions(kspec, device.spec)
        self.body = _body_ns(kspec, device.spec)
        self.w = 0
        self._boundary()

    def _boundary(self) -> None:
        """Sit out any stall, then run the next wave or the epilogue."""
        engine = self.device.engine
        now = engine.now
        if now < self.device.stalled_until:
            engine.call_at(now + (self.device.stalled_until - now), self._resume)
        else:
            self._resume()

    def _resume(self) -> None:
        engine = self.device.engine
        if self.w == len(self.fracs):
            return self._epilogue(engine.now)
        self.t_start = now = engine.now
        engine.call_at(now + self.body * self.fracs[self.w] * self.device.slowdown, self._wave_end)

    def _wave_end(self) -> None:
        if self.on_wave is not None:
            w, conc = self.w, self.device.spec.concurrent_blocks
            blocks = range(w * conc, min((w + 1) * conc, self.kspec.num_blocks))
            now = self.device.engine.now
            self.on_wave(WaveInfo(w, len(self.fracs), self.t_start, now, self.fracs[w], blocks))
        self.w += 1
        self._boundary()

    def _epilogue(self, t: float) -> None:
        """Charge the floor and the tail after the last wave, which ended at ``t``."""
        remaining = _epilogue_ns(self.device.spec, self.kspec, self.t0, t)
        if remaining > 0:
            t = t + remaining
        elif t == self.device.engine.now:
            return self._finish()
        self.device.engine.call_at(t, self._finish)

    def _finish(self) -> None:
        device = self.device
        now = device.engine.now
        prof = device.profiler
        if prof is not None and prof.active_trace is not None:
            prof.record_span(self.kspec.name, "kernel", device.id, self.t0, now)
        self.done()


def _stepped_stream(device, name: str = "default") -> SteppedStream:
    st = device._streams.get(name)
    if st is None:
        st = device._streams[name] = SteppedStream(device, name)
    return st


def step_launches(cluster, monkeypatch) -> None:
    """Make every stream of ``cluster`` a :class:`SteppedStream`, and every
    ``join`` the library calls this module's :func:`join` (undone with
    ``monkeypatch``).  Call it before any stream is used."""
    for device in cluster.devices:
        assert not device._streams, "step_launches must come before any stream is used"
        device.stream = _stepped_stream.__get__(device)
    library_join = stream_mod.join
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "join", None) is library_join:
            monkeypatch.setattr(module, "join", join)
