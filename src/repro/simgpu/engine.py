"""Discrete-event simulation engine.

The engine is the clock of the whole GPU-system simulator.  Host programs
and a few control paths (collective waits, hier staging, faults, reshard
and replication) are *processes*: Python generators that yield
:class:`Timeout` or :class:`Event` objects.  Stream ops, kernel waves and
the waits on them (a stream ``join``, a PGAS ``quiet``) are plain
callbacks (:meth:`Engine.call_at`) that fire one event each.  The
engine advances a single scalar clock (in nanoseconds) through a binary
heap of scheduled callbacks, exactly in timestamp order, with FIFO
tie-breaking so that runs are fully deterministic.

Design notes
------------
* Time is a ``float`` of nanoseconds.  All cost models in :mod:`repro.simgpu`
  produce nanoseconds; helpers in :mod:`repro.simgpu.units` convert.
* Processes are plain generators.  ``yield Timeout(dt)`` suspends the process
  for ``dt`` simulated nanoseconds; ``yield event`` resumes it when the event
  succeeds, with the event's value.  A process may also ``yield AllOf([...])``
  / ``yield AnyOf([...])`` to wait on several events.
* An event only succeeds: it has no failed outcome.  An exception raised
  in a process body or a callback leaves the run loop as that exception,
  and neither run loop can be re-entered.
* The engine is deliberately single-threaded and allocation-light: heap
  entries are plain ``[time, seq, fn]`` lists that ``heapq`` compares in C,
  and cancelling one only clears its ``fn`` slot.  Work that only decides
  *when* something lands is not scheduled at all: a one-sided put is
  booked at issue and a kernel nothing observes takes one entry, so a
  64-GPU pgas batch schedules about 1.2k entries.  A time that is not
  finite or lies in the past raises :class:`SimulationError` where it is
  made, and so does such a ``run`` horizon or ``run_until_event`` limit.
  Code run once per callback builds no strings and no closures: events
  schedule their bound ``_run_callbacks``.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Notifier",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Event:
    """A one-shot condition that processes may wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it exactly
    once and resumes every waiting process at the current simulation time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_triggered", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed`."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters now."""
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        self._triggered = True
        self._value = value
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

    def __init__(self, engine: "Engine", delay: float):
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        super().__init__(engine, name="timeout")
        self.delay = delay
        # _run_callbacks sets _triggered at the firing instant.
        engine._schedule(engine.now + delay, self._run_callbacks)


class AllOf(Event):
    """Succeeds when every child event has succeeded."""

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
        self._pending -= 1
        if self._pending == 0:
            self.succeed(None)


class AnyOf(Event):
    """Succeeds, with its value, when the first child event succeeds."""

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="any_of")
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if not self._triggered:
            self.succeed(ev.value)


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

    __slots__ = ("generator",)

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Kick off at the current time, after already-queued same-time work.
        engine._schedule(engine.now, self._resume)

    # -- internal machinery -------------------------------------------------

    def _resume(self, ev: Optional[Event] = None) -> None:
        """Send ``ev``'s value (``None`` at the start) into the generator."""
        try:
            target = self.generator.send(None if ev is None else ev.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Event objects"
            )
        if target.engine is not self.engine:
            raise SimulationError("cannot wait on an event from another engine")
        target.add_callback(self._resume)


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

    def timeout(self, delay: float) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` ns from now."""
        return Timeout(self, delay)

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
        if not self._now <= time < math.inf:
            raise SimulationError(f"cannot schedule at {time}: need finite time >= now {self._now}")
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

        Returns the final simulation time.  ``until`` must be a finite
        time no earlier than now, so the clock never runs backwards.
        """
        self._check_horizon("until", until)
        self._enter()
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
        """Run until ``event`` triggers; return its value.

        ``limit`` caps the simulated time; exceeding it raises
        :class:`SimulationError` (catches accidentally-unbounded models).
        Like ``run``'s ``until``, it must be finite and no earlier than now.
        """
        self._check_horizon("limit", limit)
        self._enter()
        queue = self._queue
        try:
            while not event._triggered or self._pending_at_now():
                if not queue:
                    if event.triggered:
                        break
                    raise SimulationError(
                        f"event queue emptied at t={self._now} but {event!r} never triggered"
                    )
                time, _, fn = heapq.heappop(queue)
                if fn is None:
                    continue
                if limit is not None and time > limit:
                    raise SimulationError(f"simulation exceeded limit {limit} ns")
                self._now = time
                fn()
        finally:
            self._running = False
        return event.value

    def _enter(self) -> None:
        """Claim the run loop; raise if a run loop is already on the stack.

        The loop that claims it releases it in a ``finally``.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run loop)")
        self._running = True

    def _check_horizon(self, name: str, time: Optional[float]) -> None:
        """Raise unless ``time`` is ``None`` or a finite instant >= now."""
        if time is not None and not self._now <= time < math.inf:
            raise SimulationError(f"{name} must be a finite time >= now {self._now}, got {time}")

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
