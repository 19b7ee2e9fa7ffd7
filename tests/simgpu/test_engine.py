"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simgpu.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    SimulationError,
    Timeout,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_run_empty_queue_is_noop(self):
        eng = Engine()
        assert eng.run() == 0.0

    def test_run_until_advances_clock_with_no_events(self):
        eng = Engine()
        eng.run(until=500.0)
        assert eng.now == 500.0

    def test_call_at_executes_in_time_order(self):
        eng = Engine()
        order = []
        eng.call_at(30.0, lambda: order.append("c"))
        eng.call_at(10.0, lambda: order.append("a"))
        eng.call_at(20.0, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]
        assert eng.now == 30.0

    def test_same_time_callbacks_fifo(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.call_at(10.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_in_is_relative(self):
        eng = Engine()
        seen = []
        eng.call_in(5.0, lambda: eng.call_in(7.0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [12.0]

    def test_scheduling_in_the_past_raises(self):
        eng = Engine()
        eng.call_at(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(5.0, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time):
        eng = Engine()
        with pytest.raises(SimulationError, match="finite"):
            eng.call_at(time, lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            eng.call_in(time, lambda: None)
        assert eng._seq == 0

    def test_run_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.call_at(100.0, lambda: fired.append(1))
        eng.run(until=50.0)
        assert fired == [] and eng.now == 50.0
        eng.run()
        assert fired == [1] and eng.now == 100.0


    @pytest.mark.parametrize("until", [-1.0, float("inf"), float("nan")])
    def test_bad_until_rejected(self, until):
        eng = Engine()
        with pytest.raises(SimulationError, match="until"):
            eng.run(until=until)
        assert eng.now == 0.0

    def test_until_before_now_rejected(self):
        eng = Engine()
        eng.run(until=50.0)
        with pytest.raises(SimulationError, match="until must be a finite time >= now 50.0"):
            eng.run(until=49.0)
        assert eng.now == 50.0


class TestCancel:
    def test_cancelled_timer_never_fires(self):
        eng = Engine()
        fired = []
        timer = eng.call_at(10.0, lambda: fired.append("cancelled"))
        eng.call_at(20.0, lambda: fired.append("kept"))
        eng.cancel(timer)
        eng.run()
        assert fired == ["kept"] and eng.now == 20.0

    def test_cancel_from_a_same_time_callback(self):
        eng = Engine()
        fired = []
        later = []
        eng.call_at(5.0, lambda: eng.cancel(later[0]))
        later.append(eng.call_at(5.0, lambda: fired.append(1)))
        eng.run()
        assert fired == []

    def test_only_cancelled_entries_leave_clock_alone(self):
        eng = Engine()
        eng.cancel(eng.call_at(40.0, lambda: None))
        assert eng.run() == 0.0

    def test_not_counted_as_pending_now(self):
        eng = Engine()
        eng.cancel(eng.call_at(0.0, lambda: None))
        assert not eng._pending_at_now()
        eng.call_at(0.0, lambda: None)
        assert eng._pending_at_now()

    def test_does_not_stall_run_until_event(self):
        eng = Engine()
        ev = eng.event()
        eng.call_at(10.0, lambda: ev.succeed("done"))
        same_instant = eng.call_at(10.0, lambda: pytest.fail("cancelled timer fired"))
        far_future = eng.call_at(1e9, lambda: pytest.fail("cancelled timer fired"))
        eng.cancel(same_instant)
        eng.cancel(far_future)
        assert eng.run_until_event(ev, limit=100.0) == "done"
        assert eng.now == 10.0

    def test_does_not_stall_run_until(self):
        eng = Engine()
        fired = []
        eng.cancel(eng.call_at(30.0, lambda: fired.append("early")))
        eng.cancel(eng.call_at(80.0, lambda: fired.append("late")))
        assert eng.run(until=50.0) == 50.0
        assert eng.run(until=100.0) == 100.0
        assert fired == []

    def test_cancel_after_firing_is_a_noop(self):
        eng = Engine()
        fired = []
        timer = eng.call_at(1.0, lambda: fired.append(1))
        eng.run()
        eng.cancel(timer)
        eng.cancel(timer)
        eng.run()
        assert fired == [1]

    def test_cancel_keeps_the_event_count(self):
        eng = Engine()
        timer = eng.call_in(5.0, lambda: None)
        eng.call_in(6.0, lambda: None)
        eng.cancel(timer)
        eng.run()
        assert eng._seq == 2


class TestEvent:
    def test_succeed_delivers_value(self):
        eng = Engine()
        ev = eng.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        eng.run()
        assert got == [42]

    def test_double_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callback_after_trigger_still_fires(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("late")
        eng.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        eng.run()
        assert got == ["late"]

    def test_triggered_and_ok_flags(self):
        eng = Engine()
        ev = eng.event()
        assert not ev.triggered
        ev.succeed()
        assert ev.triggered


class TestTimeout:
    def test_fires_after_delay(self):
        eng = Engine()
        seen = []
        t = eng.timeout(25.0)
        t.add_callback(lambda e: seen.append((eng.now, e.value)))
        eng.run()
        assert seen == [(25.0, None)]

    def test_not_triggered_until_expiry(self):
        eng = Engine()
        t = eng.timeout(25.0)
        assert not t.triggered
        eng.run(until=10.0)
        assert not t.triggered
        eng.run()
        assert t.triggered

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.timeout(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        eng = Engine()
        with pytest.raises(SimulationError, match="finite"):
            eng.timeout(delay)
        assert eng._seq == 0

    def test_zero_delay_fires_now(self):
        eng = Engine()
        t = eng.timeout(0.0)
        eng.run()
        assert t.triggered and eng.now == 0.0


class TestProcess:
    def test_simple_process_advances_time(self):
        eng = Engine()

        def worker():
            yield eng.timeout(10.0)
            yield eng.timeout(5.0)
            return "done"

        proc = eng.process(worker())
        result = eng.run_until_event(proc)
        assert result == "done"
        assert eng.now == 15.0

    def test_process_receives_event_value(self):
        eng = Engine()
        ev = eng.event()

        def worker():
            got = yield ev
            return got * 2

        proc = eng.process(worker())
        eng.call_at(3.0, lambda: ev.succeed(21))
        assert eng.run_until_event(proc) == 42

    def test_processes_wait_on_each_other(self):
        eng = Engine()

        def child():
            yield eng.timeout(7.0)
            return "child-result"

        def parent():
            result = yield eng.process(child())
            return f"got:{result}"

        proc = eng.process(parent())
        assert eng.run_until_event(proc) == "got:child-result"
        assert eng.now == 7.0

    def test_yielding_non_event_raises(self):
        eng = Engine()

        def worker():
            yield 42  # type: ignore[misc]

        eng.process(worker())
        with pytest.raises(SimulationError, match="must yield Event"):
            eng.run()


class TestCombinators:
    def test_all_of_waits_for_every_event(self):
        eng = Engine()

        def worker():
            yield eng.all_of([eng.timeout(10.0), eng.timeout(30.0), eng.timeout(20.0)])
            return eng.now

        proc = eng.process(worker())
        assert eng.run_until_event(proc) == 30.0

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        ev = eng.all_of([])
        assert ev.triggered

    def test_any_of_fires_on_first(self):
        eng = Engine()

        def worker():
            yield eng.any_of([eng.timeout(10.0), eng.timeout(30.0)])
            return eng.now

        proc = eng.process(worker())
        assert eng.run_until_event(proc) == 10.0

    def test_any_of_empty_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.any_of([])


class TestRunUntilEvent:
    def test_drained_queue_without_trigger_raises(self):
        eng = Engine()
        ev = eng.event()  # nobody will ever succeed it
        with pytest.raises(SimulationError, match="never triggered"):
            eng.run_until_event(ev)

    def test_limit_exceeded_raises(self):
        eng = Engine()

        def forever():
            while True:
                yield eng.timeout(100.0)

        proc = eng.process(forever())
        with pytest.raises(SimulationError, match="exceeded limit"):
            eng.run_until_event(proc, limit=1000.0)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), -1.0])
    def test_bad_limit_rejected(self, limit):
        eng = Engine()
        ev = eng.timeout(10.0)
        with pytest.raises(SimulationError, match="limit"):
            eng.run_until_event(ev, limit=limit)
        assert eng.now == 0.0 and not ev.triggered

    def test_run_until_event_inside_run_until_event_raises(self):
        eng = Engine()
        inner, outer = eng.event(), eng.event()
        eng.call_at(30.0, outer.succeed)
        eng.call_at(50.0, inner.succeed)
        eng.call_at(10.0, lambda: eng.run_until_event(inner))
        with pytest.raises(SimulationError, match="already running"):
            eng.run_until_event(outer)
        # The nested call ran nothing: the clock stopped at the callback.
        assert eng.now == 10.0 and not inner.triggered
        assert eng.run_until_event(outer) is None and eng.now == 30.0

    def test_run_inside_run_until_event_raises(self):
        eng = Engine()
        outer = eng.event()
        later = eng.timeout(100.0)
        eng.call_at(10.0, eng.run)
        eng.call_at(30.0, outer.succeed)
        with pytest.raises(SimulationError, match="already running"):
            eng.run_until_event(outer)
        assert eng.now == 10.0 and not later.triggered
        eng.run_until_event(outer)
        assert eng.now == 30.0 and not later.triggered

    def test_run_until_event_inside_run_raises(self):
        eng = Engine()
        ev = eng.timeout(50.0)
        eng.call_at(10.0, lambda: eng.run_until_event(ev))
        with pytest.raises(SimulationError, match="already running"):
            eng.run()
        assert eng.now == 10.0
        eng.run()
        assert eng.now == 50.0 and ev.triggered
