"""Discrete-event simulation engine.

The engine is the clock of the whole GPU-system simulator.  Everything that
takes simulated time — kernel waves, NVLink transfers, collective control
paths, stream synchronisation — is expressed as a *process*: a Python
generator that yields :class:`Timeout` or :class:`Event` objects.  The engine
advances a single scalar clock (in nanoseconds) through a binary heap of
scheduled callbacks, exactly in timestamp order, with FIFO tie-breaking so
that runs are fully deterministic.

Design notes
------------
* Time is a ``float`` of nanoseconds.  All cost models in :mod:`repro.simgpu`
  produce nanoseconds; helpers in :mod:`repro.simgpu.units` convert.
* Processes are plain generators.  ``yield Timeout(dt)`` suspends the process
  for ``dt`` simulated nanoseconds; ``yield event`` suspends until the event
  succeeds.  A process may also ``yield AllOf([...])`` / ``yield AnyOf([...])``
  to wait on several events.
* The engine is deliberately single-threaded and allocation-light: heap
  entries are plain ``[time, seq, fn]`` lists that ``heapq`` compares in C
  (a 64-GPU pgas batch schedules about 29k of them), and cancelling one
  only clears its ``fn`` slot.  Code run once per callback builds no
  strings and no closures: events schedule their bound
  ``_run_callbacks``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Notifier",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever object the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot condition that processes may wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once and resumes every waiting process at the current
    simulation time.  Events triggered with :meth:`fail` re-raise their
    exception inside each waiter.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` / exception from :meth:`fail`."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters now."""
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.engine._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.engine._schedule_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self._triggered:
            # Preserve "callbacks fire at trigger time" semantics as closely
            # as possible: fire at the current instant via the queue so that
            # ordering relative to other same-time callbacks stays FIFO.
            self.engine.call_at(self.engine.now, lambda: fn(self))
        else:
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        """Mark triggered and wake every waiter (the engine schedules this)."""
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that succeeds automatically after ``delay`` nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(engine, name="timeout")
        self.delay = delay
        self._value = value
        # _run_callbacks sets _triggered at the firing instant; _ok is
        # already True from Event.__init__.
        engine._schedule(engine.now + delay, self._run_callbacks)


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails (with that child's exception).
    """

    __slots__ = ("_pending",)

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="all_of")
        events = list(events)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(None)


class AnyOf(Event):
    """Succeeds when the first child event succeeds (or fails likewise)."""

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="any_of")
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed(ev.value)
        else:
            self.fail(ev.value)


ProcessGenerator = Generator[Event, Any, Any]


class Notifier:
    """A re-armable broadcast wake-up shared by cooperating processes.

    Plain :class:`Event` objects are one-shot, so loops that repeatedly
    wait for "something changed" (a request arrived, a batch completed)
    have to hand-roll the replace-the-event dance.  A ``Notifier`` owns
    that: :meth:`wait` returns the current pending event (creating a fresh
    one after each firing), and :meth:`notify` triggers it — a no-op when
    nobody re-armed since the last firing, so producers can signal
    unconditionally.
    """

    __slots__ = ("engine", "name", "_event")

    def __init__(self, engine: "Engine", name: str = "notify"):
        self.engine = engine
        self.name = name
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        """The pending wake-up event; yields until the next :meth:`notify`."""
        if self._event is None or self._event.triggered:
            self._event = self.engine.event(self.name)
        return self._event

    def notify(self) -> None:
        """Wake every process currently waiting (no-op when none are)."""
        if self._event is not None and not self._event.triggered:
            self._event.succeed()


class Process(Event):
    """A running generator-based process.

    A ``Process`` is itself an :class:`Event` that succeeds with the
    generator's return value when it finishes, so processes can wait on each
    other (fork/join).
    """

    __slots__ = ("generator", "_waiting_on")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off at the current time, after already-queued same-time work.
        engine._schedule(engine.now, self._start)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            # Detach from the event we were waiting on so a later trigger
            # (e.g. a pending Timeout firing) cannot double-resume us.
            try:
                target.callbacks.remove(self._on_event)
            except ValueError:
                pass
        self._waiting_on = None
        exc = Interrupt(cause)
        self.engine._schedule(self.engine.now, lambda: self._resume(None, exc))

    # -- internal machinery -------------------------------------------------

    def _start(self) -> None:
        self._resume(None, None)

    def _on_event(self, ev: Event) -> None:
        self._waiting_on = None
        if ev.ok:
            self._resume(ev.value, None)
        else:
            self._resume(None, ev.value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return  # interrupted after completion race; nothing to do
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            self.fail(unhandled)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Event objects"
            )
        if target.engine is not self.engine:
            raise SimulationError("cannot wait on an event from another engine")
        self._waiting_on = target
        target.add_callback(self._on_event)


#: A scheduled callback: ``[time, seq, fn]``.  ``heapq`` orders these lists
#: in C by ``(time, seq)``; ``seq`` is unique, so ``fn`` is never compared.
#: :meth:`Engine.cancel` sets ``fn`` to ``None`` and the run loops skip it.
Handle = List[Any]


class Engine:
    """The simulation clock and scheduler.

    Typical use::

        eng = Engine()

        def worker(eng):
            yield eng.timeout(100.0)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        assert eng.now == 100.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: List[Handle] = []
        self._seq = 0
        self._running = False

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- factories -----------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Launch a generator as a :class:`Process` starting now."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds once all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds once any of ``events`` succeeds."""
        return AnyOf(self, events)

    def notifier(self, name: str = "notify") -> Notifier:
        """Create a re-armable :class:`Notifier` bound to this engine."""
        return Notifier(self, name)

    def call_at(self, time: float, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn()`` at absolute simulated ``time``.

        Returns a handle that :meth:`cancel` accepts.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} < now {self._now}")
        return self._schedule(time, fn)

    def call_in(self, delay: float, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn()`` after ``delay`` ns."""
        return self.call_at(self._now + delay, fn)

    def cancel(self, handle: Handle) -> None:
        """Drop a scheduled callback so it never runs.

        The entry stays queued until the run loop pops and skips it, so a
        cancel costs O(1).  Cancelling a callback that already ran (or was
        already cancelled) is a no-op.
        """
        handle[2] = None

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or the clock reaches ``until``.

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        try:
            while queue:
                time, _, fn = queue[0]
                if fn is None:
                    heapq.heappop(queue)
                    continue
                if until is not None and time > until:
                    self._now = until
                    return self._now
                heapq.heappop(queue)
                self._now = time
                fn()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value (raise if it failed).

        ``limit`` caps the simulated time; exceeding it raises
        :class:`SimulationError` (catches accidentally-unbounded models).
        """
        queue = self._queue
        while not event._triggered or self._pending_at_now():
            if not queue:
                if event.triggered:
                    break
                raise SimulationError(
                    f"event queue drained at t={self._now} but {event!r} never triggered"
                )
            time, _, fn = heapq.heappop(queue)
            if fn is None:
                continue
            if limit is not None and time > limit:
                raise SimulationError(f"simulation exceeded limit {limit} ns")
            self._now = time
            fn()
        if not event.ok:
            raise event.value
        return event.value

    def _pending_at_now(self) -> bool:
        """True if there are still queued callbacks at the current instant."""
        q = self._queue
        while q and q[0][2] is None:
            heapq.heappop(q)
        return bool(q) and q[0][0] <= self._now

    # -- internals -----------------------------------------------------------

    def _schedule(self, time: float, fn: Callable[[], None]) -> Handle:
        self._seq += 1
        entry = [time, self._seq, fn]
        heapq.heappush(self._queue, entry)
        return entry

    def _schedule_event(self, event: Event) -> None:
        """Queue an event's callbacks to run at the current instant."""
        self._schedule(self._now, event._run_callbacks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now:.1f}ns queued={len(self._queue)}>"
