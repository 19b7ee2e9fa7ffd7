"""Discrete-event simulation engine.

The engine is the clock of the whole GPU-system simulator.  Everything
it runs is a callback: stream ops, kernel waves, the waits on them (a
stream ``join``, a PGAS ``quiet``) and the host programs, which are
chains of continuations on events or after delays (built with
:meth:`Cluster.then <repro.simgpu.cluster.Cluster.then>` and
:meth:`Cluster.chain <repro.simgpu.cluster.Cluster.chain>`).  The engine
advances a single scalar clock (in nanoseconds) through a binary heap of
scheduled callbacks, exactly in timestamp order, with FIFO tie-breaking
so that runs are fully deterministic.

Design notes
------------
* Time is a ``float`` of nanoseconds.  All cost models in :mod:`repro.simgpu`
  produce nanoseconds; helpers in :mod:`repro.simgpu.units` convert.
* An :class:`Event` only succeeds, and carries no value.  ``succeed()``
  queues one entry at the current instant that runs the event's
  callbacks, so a continuation registered on an event runs in that
  entry, and a chain that ends with ``done.succeed()`` wakes its waiter
  one entry later.  An exception raised in a callback leaves the run
  loop as that exception, and neither run loop can be re-entered.
* The engine is deliberately single-threaded and allocation-light: heap
  entries are plain ``[time, seq, fn]`` lists that ``heapq`` compares in C,
  and cancelling one only clears its ``fn`` slot.  Work that only decides
  *when* something lands is not scheduled at all: a one-sided put is
  booked at issue, and so is a stream op whose end is closed-form (a
  wait on booked ops takes one entry, at their latest end), so a 64-GPU
  pgas batch schedules about 1.1k entries.  A time that is not
  finite or lies in the past raises :class:`SimulationError` where it is
  made, and so does such a ``run`` horizon or ``run_until_event`` limit.
  Code run once per callback builds no strings and no closures: events
  schedule their bound ``_run_callbacks``.
* ``Engine._current`` is the ``seq`` of the entry now running, and
  ``Engine._exits`` counts the run loops that have returned.  Work that
  stands for entries it did not schedule (a fabric's deferred writes, a
  traced launch's kernel span, DESIGN.md §17) asks ``Engine._passed``
  whether such an entry at the current instant would have run yet.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

__all__ = ["Engine", "Event", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Event:
    """A one-shot condition that callbacks may wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it exactly
    once and runs every registered callback at the current simulation
    time, in registration order.
    """

    __slots__ = ("engine", "callbacks", "_triggered", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: List[Callable[[], None]] = []
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded."""
        return self._triggered

    def succeed(self) -> "Event":
        """Trigger the event, running its callbacks one entry from now."""
        if self._triggered:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        self._triggered = True
        engine = self.engine
        engine._schedule(engine._now, self._run_callbacks)
        return self

    def add_callback(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` when the event triggers (one entry from now if it has)."""
        if self._triggered:
            # Queued at the current instant, so ordering relative to other
            # same-time callbacks stays FIFO.
            self.engine.call_at(self.engine.now, fn)
        else:
            self.callbacks.append(fn)

    def _run_callbacks(self) -> None:
        """Mark triggered and run every callback in this entry.

        ``succeed`` schedules this; a wait that fires at a known later
        instant (a collective's ``wait``) schedules it directly there.
        """
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for fn in callbacks:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"


#: A scheduled callback: ``[time, seq, fn]``.  ``heapq`` orders these lists
#: in C by ``(time, seq)``; ``seq`` is unique, so ``fn`` is never compared.
#: :meth:`Engine.cancel` sets ``fn`` to ``None`` and the run loops skip it.
Handle = List[Any]


class Engine:
    """The simulation clock and scheduler.

    Typical use::

        eng = Engine()
        done = eng.event("done")
        eng.call_in(100.0, done.succeed)
        eng.run_until_event(done)
        assert eng.now == 100.0 and done.triggered
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: List[Handle] = []
        self._seq = 0
        self._current = 0  # seq of the entry now running, inside a loop
        self._exits = 0  # run loops returned so far
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
        """Run callbacks until the queue drains or the clock reaches ``until``.

        Returns the final simulation time.  ``until`` must be a finite
        time no earlier than now, so the clock never runs backwards.
        """
        self._check_horizon("until", until)
        self._enter()
        queue = self._queue
        try:
            while queue:
                time, seq, fn = queue[0]
                if fn is None:
                    heapq.heappop(queue)
                    continue
                if until is not None and time > until:
                    self._now = until
                    return self._now
                heapq.heappop(queue)
                self._now = time
                self._current = seq
                fn()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._exits += 1
            self._running = False
        return self._now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> None:
        """Run until ``event`` triggers and the current instant has drained.

        ``limit`` caps the simulated time; exceeding it raises
        :class:`SimulationError` (catches accidentally-unbounded models).
        Like ``run``'s ``until``, it must be finite and no earlier than now.
        An event of another engine raises at the call.
        """
        if event.engine is not self:
            raise SimulationError("event belongs to another engine")
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
                time, seq, fn = heapq.heappop(queue)
                if fn is None:
                    continue
                if limit is not None and time > limit:
                    raise SimulationError(f"simulation exceeded limit {limit} ns")
                self._now = time
                self._current = seq
                fn()
        finally:
            self._exits += 1
            self._running = False

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

    def _passed(self, seq: int, exits: int) -> bool:
        """True when an entry at the current instant, scheduled when
        ``_seq`` and ``_exits`` read ``seq`` and ``exits``, would have run:
        before the running entry (one scheduled after it) or, outside the
        run loops, in a loop that has returned since."""
        if self._running:
            return seq < self._current
        return exits < self._exits

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now:.1f}ns queued={len(self._queue)}>"
