"""Unit tests for the discrete-event engine and the host-program chains
built on it (``Cluster.run``/``then``/``race`` and ``stream.join``)."""

from __future__ import annotations

import pytest

from repro.simgpu.cluster import Cluster
from repro.simgpu.engine import Engine, SimulationError
from repro.simgpu.stream import join


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
        eng.call_at(10.0, ev.succeed)
        same_instant = eng.call_at(10.0, lambda: pytest.fail("cancelled timer fired"))
        far_future = eng.call_at(1e9, lambda: pytest.fail("cancelled timer fired"))
        eng.cancel(same_instant)
        eng.cancel(far_future)
        assert eng.run_until_event(ev, limit=100.0) is None
        assert ev.triggered and eng.now == 10.0

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


def _delay(eng: Engine, delay: float):
    """An event that fires ``delay`` ns from now."""
    ev = eng.event()
    eng.call_in(delay, ev.succeed)
    return ev


class TestEvent:
    def test_double_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callback_after_trigger_still_fires(self):
        eng = Engine()
        ev = eng.event()
        eng.call_at(5.0, ev.succeed)
        eng.run()
        got = []
        ev.add_callback(lambda: got.append(eng.now))
        eng.run()
        assert got == [5.0]

    def test_triggered_and_ok_flags(self):
        eng = Engine()
        ev = eng.event()
        assert not ev.triggered
        ev.succeed()
        assert ev.triggered

    def test_succeed_takes_no_value(self):
        with pytest.raises(TypeError):
            Engine().event().succeed(42)


class TestHops:
    """Where a continuation runs, counted in engine entries (``_seq``)."""

    def test_continuation_runs_in_the_entry_that_fires_its_event(self):
        eng = Engine()
        ev = eng.event()
        order = []
        ev.add_callback(lambda: order.append("first"))
        ev.add_callback(lambda: order.append("second"))
        eng.call_at(0.0, lambda: order.append("queued before"))
        ev.succeed()
        eng.call_at(0.0, lambda: order.append("queued after"))
        eng.run()
        # succeed() queued one entry, and both continuations ran in it, in
        # registration order: three entries in all.
        assert order == ["queued before", "first", "second", "queued after"]
        assert eng._seq == 3

    def test_chain_end_wakes_its_waiter_one_entry_later(self):
        cluster = Cluster(1)
        eng = cluster.engine
        seen = []

        def child():
            done = eng.event()

            def last_step():
                seen.append(("child", eng._seq))
                done.succeed()

            cluster.then(7.0, last_step)
            return done

        cluster.then(child(), lambda: seen.append(("parent", eng._seq)))
        eng.run()
        assert seen == [("child", 1), ("parent", 2)] and eng.now == 7.0

    def test_chain_steps_wait_like_a_generator(self):
        """A step returning None goes on in its entry, a delay costs the one
        ``call_in`` entry, an event the entry that fires it, and the chain's
        end event one entry after the last step."""
        cluster = Cluster(1)
        eng = cluster.engine
        seen = []
        ev = eng.event()
        eng.call_at(12.0, ev.succeed)

        def step(name, wait=None):
            def run():
                seen.append((name, eng.now, eng._seq))
                return wait
            return run

        done = cluster.chain(
            step("a"), step("b", 10.0), step("c", ev), step("d"), step("e"),
        )
        done.add_callback(lambda: seen.append(("end", eng.now, eng._seq)))
        eng.run()
        assert seen == [
            ("a", 0.0, 1), ("b", 0.0, 1),  # one entry queued so far: ev's
            ("c", 10.0, 2),  # the delay's entry
            ("d", 12.0, 3), ("e", 12.0, 3),  # ev.succeed queued entry 3
            ("end", 12.0, 4),
        ]

    def test_join_over_events_of_one_instant_fires_at_that_instant(self):
        eng = Engine()
        events = [eng.event() for _ in range(3)]
        for ev in events:
            eng.call_at(4.0, ev.succeed)
        fired = []
        join(eng, events).add_callback(lambda: fired.append(eng.now))
        eng.run()
        assert fired == [4.0]

    def test_join_counts_triggered_events_as_done(self):
        eng = Engine()
        done, pending = eng.event(), eng.event()
        done.succeed()
        eng.call_at(3.0, pending.succeed)
        fired = []
        join(eng, [done, pending], after_ns=2.0).add_callback(lambda: fired.append(eng.now))
        eng.run()
        assert fired == [5.0]


class TestTimeout:
    """A delay in a host program is one ``call_in`` entry (``then(d, fn)``)."""

    def test_fires_after_delay(self):
        cluster = Cluster(1)
        seen = []
        cluster.then(25.0, lambda: seen.append(cluster.engine.now))
        cluster.engine.run()
        assert seen == [25.0] and cluster.engine._seq == 1

    def test_not_triggered_until_expiry(self):
        cluster = Cluster(1)
        seen = []
        cluster.then(25.0, lambda: seen.append(cluster.engine.now))
        cluster.engine.run(until=10.0)
        assert seen == []
        cluster.engine.run()
        assert seen == [25.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Cluster(1).then(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        cluster = Cluster(1)
        with pytest.raises(SimulationError, match="finite"):
            cluster.then(delay, lambda: None)
        assert cluster.engine._seq == 0

    def test_zero_delay_fires_now(self):
        cluster = Cluster(1)
        seen = []
        cluster.then(0.0, lambda: seen.append(cluster.engine.now))
        cluster.engine.run()
        assert seen == [0.0]


class TestProcess:
    """Host programs: ``Cluster.run`` drives a chain to its end event."""

    def test_simple_process_advances_time(self):
        cluster = Cluster(1)
        eng = cluster.engine

        def program(cl):
            done = eng.event()
            cl.then(10.0, lambda: cl.then(5.0, done.succeed))
            return done

        assert cluster.run(program) == 15.0
        assert eng.now == 15.0

    def test_processes_wait_on_each_other(self):
        cluster = Cluster(1)
        eng = cluster.engine
        result = []

        def child():
            done = eng.event()

            def finish():
                result.append("child-result")
                done.succeed()

            cluster.then(7.0, finish)
            return done

        def parent(cl):
            done = eng.event()

            def after_child():
                result.append(f"got:{result[-1]}")
                done.succeed()

            cl.then(child(), after_child)
            return done

        cluster.run(parent)
        assert result == ["child-result", "got:child-result"] and eng.now == 7.0

    def test_yielding_non_event_raises(self):
        """A host program must return its end event."""
        cluster = Cluster(1)
        with pytest.raises(TypeError, match="NoneType"):
            cluster.run(lambda cl: None)

    def test_starts_after_work_due_now(self):
        cluster = Cluster(1)
        eng = cluster.engine
        order = []
        eng.call_at(0.0, lambda: order.append("due now"))

        def program(cl):
            order.append("program")
            return eng.event().succeed()

        cluster.run(program)
        assert order == ["due now", "program"]


class TestCombinators:
    def test_all_of_waits_for_every_event(self):
        eng = Engine()
        eng.run_until_event(join(eng, [_delay(eng, 10.0), _delay(eng, 30.0), _delay(eng, 20.0)]))
        assert eng.now == 30.0

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        ev = join(eng, [])
        assert ev.triggered

    def test_any_of_fires_on_first(self):
        cluster = Cluster(1)
        eng = cluster.engine
        first, second = _delay(eng, 10.0), _delay(eng, 30.0)
        resolved = []
        cluster.race(
            [first, second], None,
            lambda: resolved.append((eng.now, first.triggered, second.triggered)),
        )
        eng.run()
        assert resolved == [(10.0, True, False)]

    def test_any_of_empty_rejected(self):
        with pytest.raises(SimulationError):
            Cluster(1).race([], 5.0, lambda: None)

    def test_race_timeout_wins_and_a_winning_event_cancels_it(self):
        cluster = Cluster(1)
        eng = cluster.engine
        slow, fast = _delay(eng, 30.0), _delay(eng, 5.0)
        resolved = []
        cluster.race([slow], 20.0, lambda: resolved.append((eng.now, slow.triggered)))
        cluster.race([fast], 20.0, lambda: resolved.append((eng.now, fast.triggered)))
        eng.run()
        assert resolved == [(5.0, True), (20.0, False)]
        # Delays, two timers (one cancelled, still counted) and the two
        # resolving entries, one after each winner.
        assert eng._seq == 8 and eng.now == 30.0


class TestRunUntilEvent:
    def test_drained_queue_without_trigger_raises(self):
        eng = Engine()
        ev = eng.event()  # nobody will ever succeed it
        with pytest.raises(SimulationError, match="never triggered"):
            eng.run_until_event(ev)

    def test_limit_exceeded_raises(self):
        eng = Engine()

        def forever():
            eng.call_in(100.0, forever)

        forever()
        with pytest.raises(SimulationError, match="exceeded limit"):
            eng.run_until_event(eng.event(), limit=1000.0)

    def test_event_of_another_engine_rejected(self):
        eng, other = Engine(), Engine()
        eng.call_at(5.0, lambda: None)
        with pytest.raises(SimulationError, match="belongs to another engine"):
            eng.run_until_event(other.event())
        assert eng.now == 0.0 and eng._queue

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), -1.0])
    def test_bad_limit_rejected(self, limit):
        eng = Engine()
        ev = _delay(eng, 10.0)
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
        later = _delay(eng, 100.0)
        eng.call_at(10.0, eng.run)
        eng.call_at(30.0, outer.succeed)
        with pytest.raises(SimulationError, match="already running"):
            eng.run_until_event(outer)
        assert eng.now == 10.0 and not later.triggered
        eng.run_until_event(outer)
        assert eng.now == 30.0 and not later.triggered

    def test_run_until_event_inside_run_raises(self):
        eng = Engine()
        ev = _delay(eng, 50.0)
        eng.call_at(10.0, lambda: eng.run_until_event(ev))
        with pytest.raises(SimulationError, match="already running"):
            eng.run()
        assert eng.now == 10.0
        eng.run()
        assert eng.now == 50.0 and ev.triggered
