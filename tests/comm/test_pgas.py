"""Tests for the PGAS one-sided communication layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import pgas as pgas_mod
from repro.comm.hier import HierSpec, NodeStagingRouter
from repro.comm.pgas import PGASContext, PGASSpec
from repro.core import aggregator
from repro.core.aggregator import AsyncAggregator
from repro.simgpu import dgx_v100, multinode
from repro.simgpu.profiler import TraceRef
from repro.simgpu.stream import join
from repro.simgpu.units import us


def _fired_at(ev):
    """A list that receives the instant ``ev`` fires."""
    at = []
    ev.add_callback(lambda: at.append(ev.engine.now))
    return at


def _writes(ctx):
    """The writes booked so far and their payload bytes: the samples of
    the ``pgas_bytes`` counter, which atomics book too."""
    counter = ctx.cluster.profiler.counters.get(PGASContext.COUNTER)
    return (0, 0.0) if counter is None else (len(counter.events()), counter.total)


def _steps(cluster, steps):
    """A host program running each ``(delay, fn)`` step after its delay
    (a zero delay runs the step at once); it ends after the last step."""
    done = cluster.engine.event()
    steps = list(steps)

    def advance():
        while steps:
            delay, fn = steps[0]
            if delay:
                steps[0] = (0.0, fn)
                return cluster.then(delay, advance)
            steps.pop(0)
            fn()
        done.succeed()

    advance()
    return done


class TestSpec:
    def test_defaults_match_paper_units(self):
        spec = PGASSpec()
        # 256 B = one d=64 fp32 embedding vector, the paper's counter unit.
        assert spec.message_bytes == 256
        assert spec.header_bytes == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            PGASSpec(message_bytes=0)
        with pytest.raises(ValueError):
            PGASSpec(header_bytes=-1)


class TestPut:
    def test_basic_put_delivers(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        assert ctx.put(0, 1, 1024.0) is None
        (delivered, _), = cl.profiler.counter(PGASContext.COUNTER).events()
        assert ctx._last_done[0] == delivered > 0.0
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(1024.0)
        pairs = cl.profiler.pair_counters(PGASContext.COUNTER)
        assert pairs[f"{PGASContext.COUNTER}.dev0->dev1"].total == 1024.0

    def test_put_takes_no_engine_entry(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seq0 = cl.engine._seq
        ctx.put(0, 1, 1024.0)
        assert cl.engine._seq == seq0

    def test_quiet_waits_for_the_horizon(self, monkeypatch):
        """63 puts at one instant schedule nothing; ``_last_done`` is their
        latest delivery, and one ``quiet`` wakes there in one entry."""
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 0.0)
        cl = dgx_v100(64)
        ctx = PGASContext(cl)
        payloads = [256.0 * (1 + (dst * 7) % 5) for dst in range(1, 64)]
        for dst, payload in zip(range(1, 64), payloads):
            ctx.put(0, dst, payload)
        assert cl.engine._seq == 0
        deliveries = [t for t, _ in cl.profiler.counter(PGASContext.COUNTER).events()]
        assert len(deliveries) == 63
        assert ctx._last_done[0] == max(deliveries)
        assert cl.engine.run() == 0.0  # nothing waits on a put
        q = ctx.quiet([0])
        assert cl.engine._seq == 1
        assert cl.engine.run() == max(deliveries) and q.triggered

    def test_put_wire_includes_headers(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl, PGASSpec(message_bytes=256, header_bytes=32))
        ctx.put(0, 1, 1024.0)  # 4 messages
        cl.engine.run()
        assert cl.interconnect.total_wire_bytes() == pytest.approx(1024 + 4 * 32)

    def test_put_to_self_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match="put to self"):
            ctx.put(1, 1, 100.0)

    def test_put_without_peer_access_rejected(self):
        cl = dgx_v100(2)
        cl.device(0)._peers.clear()
        ctx = PGASContext(cl)
        with pytest.raises(PermissionError):
            ctx.put(0, 1, 100.0)

    def test_empty_put_is_immediate(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seq0 = cl.engine._seq
        ctx.put(0, 1, 0.0)
        assert cl.engine._seq == seq0  # schedules nothing
        assert cl.interconnect.links() == []
        assert ctx._last_done[0] == float("-inf")
        assert _writes(ctx) == (0, 0.0)

    def test_traced_put_records_link_span(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ref = TraceRef(trace_id=1, batch_id=0)
        cl.profiler.active_trace = ref
        ctx.put(0, 1, 1024.0)
        cl.profiler.active_trace = None
        cl.engine.run()
        (span,) = cl.profiler.spans_by_category("link")
        assert span.name == "xfer.dev0->dev1"
        assert span.device_id == 0
        assert span.trace == ref
        assert span.t_start == 0.0
        (delivered, _), = cl.profiler.counter(PGASContext.COUNTER).events()
        assert span.t_end == delivered

    def test_untraced_put_records_no_span(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 1024.0)
        cl.engine.run()
        assert cl.profiler.spans == []

    def test_negative_put_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError):
            ctx.put(0, 1, -5.0)

    @pytest.mark.parametrize(
        "payload, match",
        [(float("nan"), "payload_bytes"), (float("inf"), "payload_bytes")],
        ids=["nan", "inf"],
    )
    def test_non_finite_payload_rejected(self, payload, match):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match=match):
            ctx.put(0, 1, payload)

    def test_non_numeric_payload_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(TypeError, match="payload_bytes"):
            ctx.put(0, 1, "256")

    def test_out_of_range_src_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match="src"):
            ctx.put(5, 1, 100.0)

    def test_out_of_range_dst_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match="dst"):
            ctx.put(0, 5, 100.0)

    def test_rejected_put_books_nothing(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        for args in [(0, 1, float("nan")), (0, 5, 1.0), (-1, 1, 1.0)]:
            with pytest.raises(ValueError):
                ctx.put(*args)
        assert cl.engine._seq == 0
        assert cl.interconnect.links() == []
        assert _writes(ctx) == (0, 0.0)

    def test_put_statistics(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        ctx.put(0, 1, 200.0)
        assert _writes(ctx) == (2, 300.0)


class TestAtomics:
    def test_atomic_add_volume(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.atomic_add(0, 1, 100)
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(800.0)

    def test_atomic_add_is_awaited_by_quiet(self, monkeypatch):
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 0.0)
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        assert ctx.atomic_add(0, 1, 1_000_000) is None
        (delivered, _), = cl.profiler.counter(PGASContext.COUNTER).events()
        assert ctx._last_done[0] == delivered

        def host(cluster):
            return ctx.quiet([0])

        elapsed = cl.run(host)
        assert elapsed == delivered

    def test_zero_atomics_immediate(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seq0 = cl.engine._seq
        assert ctx.atomic_add(0, 1, 0) is None
        assert cl.engine._seq == seq0
        assert ctx._last_done[0] == float("-inf")

    def test_negative_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError):
            ctx.atomic_add(0, 1, -1)

    def test_atomic_to_self_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match="atomic_add to self"):
            ctx.atomic_add(0, 0, 4)

    def test_fractional_count_rejected(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        with pytest.raises(TypeError, match="n_elements"):
            ctx.atomic_add(0, 1, 2.5)
        assert cl.interconnect.links() == []

    def test_numpy_integer_count_accepted(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.atomic_add(0, 1, np.int64(3))
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == 24.0

    def test_out_of_range_devices_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError, match="src"):
            ctx.atomic_add(2, 1, 4)
        with pytest.raises(ValueError, match="dst"):
            ctx.atomic_add(0, 7, 4)

    def test_atomic_without_peer_access_rejected(self):
        cl = dgx_v100(2)
        cl.device(0)._peers.clear()
        ctx = PGASContext(cl)
        with pytest.raises(PermissionError):
            ctx.atomic_add(0, 1, 4)


class TestCompletion:
    def test_quiet_waits_for_outstanding_puts(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        big = 48.0 * 1e6  # 1 ms of wire time at 48 B/ns
        ctx.put(0, 1, big)

        def host(cluster):
            return ctx.quiet([0])

        elapsed = cl.run(host)
        assert elapsed >= big / 48.0  # at least the drain time

    def test_quiet_with_nothing_outstanding_costs_only_overhead(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)

        def host(cluster):
            return ctx.quiet([0])

        assert cl.run(host) == pytest.approx(2 * us)

    def test_quiet_only_covers_own_pe(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(1, 0, 48.0 * 1e6)  # PE 1's traffic

        def host(cluster):  # PE 0 has nothing outstanding
            return ctx.quiet([0])

        assert cl.run(host) < 10 * us

    def test_pending_puts_gc(self, monkeypatch):
        """A registered transfer that has landed is not waited on again: a
        later quiet is one callback, at its overhead from now."""
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 3.0)
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ev = cl.interconnect.transfer(0, 1, 100.0)
        ctx.register_outstanding(0, ev)
        cl.engine.run()
        landed = cl.engine.now
        seq = cl.engine._seq
        q = ctx.quiet([0])
        assert ctx._outstanding[0] == []
        assert cl.engine._seq == seq + 1
        cl.engine.run()
        assert q.triggered and cl.engine.now == landed + 3.0

    def test_barrier_all_drains_everyone(self):
        cl = dgx_v100(3)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 48.0 * 1e6)
        ctx.put(2, 0, 48.0 * 2e6)

        def host(cluster):
            return ctx.quiet(range(cluster.n_devices))

        elapsed = cl.run(host)
        assert elapsed >= 2e6 / 48.0 * 48.0 / 48.0  # at least the slowest drain
        assert elapsed >= max(ctx._last_done.values())

    def test_register_outstanding_external_event(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ev = cl.interconnect.transfer(0, 1, 48.0 * 1e6)
        ctx.register_outstanding(0, ev)
        assert ctx._outstanding[0] == [ev]

        def host(cluster):
            return ctx.quiet([0])

        cl.run(host)
        assert ev.triggered

    def test_pending_puts_counts_in_flight_and_external(self, monkeypatch):
        """Puts, atomics and a registered transfer all count; an already
        triggered registered event does not, and neither does another PE."""
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 0.0)
        cl = dgx_v100(3)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        ctx.put(0, 2, 100.0)
        ctx.atomic_add(0, 1, 4)
        external = cl.interconnect.transfer(0, 2, 1000.0)
        ctx.register_outstanding(0, external)
        delivered = cl.engine.event()
        delivered.succeed()
        ctx.register_outstanding(0, delivered)  # already triggered: not pending
        ctx.put(1, 2, 48.0 * 1e6)  # PE 1's traffic
        landed = _fired_at(external)
        fired = {pe: _fired_at(ctx.quiet([pe])) for pe in (0, 2)}
        cl.engine.run()
        puts = [t for t, _ in cl.profiler.counter(PGASContext.COUNTER).events()]
        assert len(puts) == 4
        assert fired[0] == [max(max(puts[:3]), landed[0])] == landed
        assert fired[2] == [0.0]

    def test_quiet_wakes_at_exactly_the_last_delivery(self, monkeypatch):
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 0.0)
        cl = dgx_v100(3)
        ctx = PGASContext(cl)
        woke = []

        def host(cluster):
            done = cluster.engine.event()

            def first():
                ctx.put(0, 1, 1e4 / 7.0)
                cluster.then(0.1, second)

            def second():
                ctx.put(0, 2, 98e3 / 7.0)
                ctx.put(0, 1, 10.0)
                cluster.then(0.7, enter)

            def enter():
                woke.append(cluster.engine.now)
                cluster.then(ctx.quiet([0]), woke_up)

            def woke_up():
                woke.append(cluster.engine.now)
                done.succeed()

            # Chosen so that ``now + (last - now)`` rounds to a float other
            # than ``last``: a relative timeout would wake at the wrong time.
            cluster.then(1000.0 / 3.0, first)
            return done

        cl.run(host)
        cl.engine.run()
        prof = cl.profiler
        deliveries = [t for t, _ in prof.counter(PGASContext.COUNTER).events()]
        assert len(deliveries) == 3
        entered, last = woke[0], max(deliveries)
        assert entered + (last - entered) != last  # the rounding case
        assert woke[1] == last

    def test_put_issued_after_quiet_starts_is_not_awaited(self, monkeypatch):
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 0.0)
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seen = {}

        def host(cluster):
            engine = cluster.engine
            done = engine.event()
            ctx.put(0, 1, 4800.0)  # ~100 ns of wire
            q = ctx.quiet([0])

            def late_put():  # quiet has taken its snapshot
                ctx.put(0, 1, 48.0 * 1e6)  # ~1 ms, queued behind the first
                cluster.then(q, quiet_done)

            def quiet_done():
                seen["quiet_done"] = engine.now
                seen["pending"] = ctx._last_done[0] > engine.now
                done.succeed()

            cluster.then(1.0, late_put)
            return done

        cl.run(host)
        cl.engine.run()  # deliver the late put too
        first, second = (t for t, _ in cl.profiler.counter(PGASContext.COUNTER).events())
        assert seen["quiet_done"] == first
        assert seen["pending"]  # the late put is still in flight
        assert second > 1e6

    def test_one_quiet_fires_at_the_latest_drain_of_its_pes(self, monkeypatch):
        """One ``quiet`` over a set of PEs fires at the latest of each PE's
        own drain: a direct put (PE 0), an aggregator flush (PE 1), nothing
        (PE 2) and a hier staging chain (PE 3: forward to its leader, the
        NIC hop, the scatter), which lands last.  A put issued after it
        starts is not waited for."""
        cl = multinode(2, 2)
        engine = cl.engine
        monkeypatch.setattr(aggregator, "FLUSH_BYTES", 10**9)
        monkeypatch.setattr(aggregator, "MAX_WAIT_NS", 1e9)
        ctx = PGASContext(cl)
        agg = AsyncAggregator(ctx)
        router = NodeStagingRouter(ctx, HierSpec(devices_per_node=2))
        ctx.put(0, 1, 48.0 * 1e3)
        agg.store(1, 0, 4.8e5)
        agg.flush_all()
        router.put(3, 1, 2e5)
        router.flush_all()
        sets = [(0,), (1,), (2,), (3,), (0, 1, 2, 3)]
        fired = {}

        def host(cluster):
            events = {pes: ctx.quiet(pes) for pes in sets}
            for pes, ev in events.items():
                ev.add_callback(lambda pes=pes: fired.setdefault(pes, engine.now))

            def late_put():
                ctx.put(2, 3, 48.0 * 1e7)  # issued after the quiets started

            cluster.then(1.0, late_put)
            return join(engine, events.values())

        cl.run(host)
        assert fired[(2,)] == 2 * us
        drains = [fired[(pe,)] for pe in range(4)]
        assert len(set(drains)) == 4  # every PE drains at its own instant
        assert fired[(0, 1, 2, 3)] == max(drains) == fired[(3,)]
        assert ctx._last_done[2] > engine.now  # the late put is still in flight
        engine.run()
        late = max(t for t, _ in cl.profiler.counter(PGASContext.COUNTER).events())
        assert late > fired[(0, 1, 2, 3)]

    def test_quiet_over_no_pes_costs_only_overhead(self, monkeypatch):
        monkeypatch.setattr(pgas_mod, "QUIET_OVERHEAD_NS", 3.0)
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 48.0 * 1e6)

        def host(cluster):
            return ctx.quiet([])

        assert cl.run(host) == 3.0


class TestUnknownPE:
    """Every per-PE entry point raises the typed error of ``put``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda ctx: ctx.atomic_add(5, 1, 4),
            lambda ctx: ctx.quiet(5),
            lambda ctx: ctx.quiet([0, 5]),
            lambda ctx: ctx.register_outstanding(5, ctx.cluster.engine.event()),
        ],
        ids=["atomic_add", "quiet", "quiet-set", "register_outstanding"],
    )
    def test_unknown_pe_is_a_value_error(self, call):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        seq = cl.engine._seq
        with pytest.raises(ValueError, match=r"src must be a device id in \[0, 2\), got 5"):
            call(ctx)
        assert cl.engine._seq == seq  # nothing scheduled
        assert _writes(ctx)[0] == 1 and ctx._outstanding == {0: [], 1: []}


class TestFloatIds:
    """A float equal to a device id is not one: it raises the typed error of
    an out-of-range id before anything is touched, booked or scheduled."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda ctx: ctx.put(0, 1.0, 256.0), r"put: dst must be a device id in \[0, 4\), got 1\.0"),
            (lambda ctx: ctx.put(0.0, 1, 256.0), r"put: src must be a device id in \[0, 4\), got 0\.0"),
            (lambda ctx: ctx.put(0, [2, 1.0], [1.0, 2.0]), r"put: dst\[1\] must be a device id"),
            (lambda ctx: ctx.put(0, [1.0], [[256.0]], at=[0.0]), r"put: dst\[0\] must be a device id"),
            (lambda ctx: ctx.atomic_add(0, 1.0, 3), r"atomic_add: dst must be a device id"),
            (lambda ctx: ctx.atomic_add(np.float64(0), [1], [3]), r"atomic_add: src must be"),
            (lambda ctx: ctx.check_put("store", 0, 2.0, 5.0), r"store: dst must be a device id"),
            (lambda ctx: ctx.quiet(1.0), r"quiet: src must be a device id in \[0, 4\), got 1\.0"),
            (lambda ctx: ctx.quiet([0, 1.0]), r"quiet: src must be a device id"),
        ],
        ids=["put-dst", "put-src", "put-wave", "put-at", "atomic_add-dst", "atomic_add-src",
             "check_put", "quiet", "quiet-set"],
    )
    def test_a_float_id_is_a_value_error_and_the_fabric_stays_readable(self, call, match):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        seq = cl.engine._seq
        with pytest.raises(ValueError, match=match):
            call(ctx)
        assert cl.engine._seq == seq and _writes(ctx)[0] == 1
        ctx.put(2, 3, 256.0)
        assert [(link.src, link.dst) for link in cl.interconnect.links()] == [(0, 1), (2, 3)]
        assert cl.interconnect.total_wire_bytes() > 356.0

    def test_a_float_run_is_declined(self):
        ctx = PGASContext(dgx_v100(4))
        waves = np.ones((1, 4))
        assert not ctx.put_run(0, [1.0, 2, 3], [0.0], waves, 0)
        assert not ctx.atomic_run(0, [1, 2.0, 3], [0.0], np.ones((1, 3), dtype=np.int64))

    def test_numpy_integer_ids_keep_working(self):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        ctx.put(np.int64(0), np.int32(1), 256.0)
        ctx.put(0, [np.int64(2), 3], [256.0, 512.0])
        ctx.atomic_add(np.int16(1), 2, 4)
        assert _writes(ctx)[0] == 4 and len(cl.interconnect.links()) == 4  # 3 puts, 1 atomic
        cl.engine.run_until_event(ctx.quiet(np.int64(0)))


class TestBoolIds:
    """A ``bool`` is an ``int`` equal to 0 or 1, but not a device id: each
    entry point refuses it with the typed error a float id raises, before
    anything is touched, booked or scheduled, and a run of one is
    declined.  ``link`` refuses it even for a pair that has a view."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda ctx: ctx.put(0, True, 256.0), r"put: dst must be a device id in \[0, 4\), got True"),
            (lambda ctx: ctx.put(True, [2, 3], [1.0, 2.0]), r"put: src must be a device id in \[0, 4\), got True"),
            (lambda ctx: ctx.put(0, [2, False], [[1.0, 2.0]], at=[0.0]), r"put: dst\[1\] must be a device id"),
            (lambda ctx: ctx.atomic_add(0, True, 3), r"atomic_add: dst must be a device id"),
            (lambda ctx: ctx.check_put("store", 0, True, 5.0), r"store: dst must be a device id"),
            (lambda ctx: ctx.quiet(True), r"quiet: src must be a device id in \[0, 4\), got True"),
            (lambda ctx: ctx.cluster.interconnect.transfer(True, 2, 10.0), r"device id must be an integer, got True"),
            (lambda ctx: ctx.cluster.interconnect.link(False, 1), r"device id must be an integer, got False"),
            (lambda ctx: ctx.put_run(True, [0, 2, 3], [0.0], np.ones((1, 4)), 1), None),
            (lambda ctx: ctx.atomic_run(0, [2, True], [0.0], np.ones((1, 2), np.int64)), None),
        ],
        ids=["put-dst", "put-src", "put-at", "atomic_add", "check_put", "quiet", "transfer",
             "link", "put_run", "atomic_run"],
    )
    def test_a_bool_id_is_refused_as_a_float_id_is(self, call, match):
        cl = dgx_v100(4)
        ic = cl.interconnect
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        ic.links()  # the pair (0, 1) has a view
        seq = cl.engine._seq
        if match is None:
            assert call(ctx) is False
        else:
            with pytest.raises(ValueError, match=match):
                call(ctx)
        assert cl.engine._seq == seq and _writes(ctx)[0] == 1 and not ic._pending
        links = [(lk.src, lk.dst) for lk in ic.links()]
        assert links == [(0, 1)] and all(type(i) is int for pair in links for i in pair)


class TestCounterOrder:
    """Counter samples read back in delivery order, ties in issue order.

    PE 0's put to device 2 and PE 1's later, smaller put land at the same
    instant; PE 1 issues while PE 0's large put to device 1 is still in
    flight, and its put to device 0 lands before every earlier one.  The
    payloads are chosen so that summing in issue order would round
    differently.  The literals were captured when every put stamped its
    counters from a delivery callback.
    """

    TIE = 723.5020833333333
    SAMPLES = np.array([700.0, 710.0, TIE, 724.0, 2000.0])

    def _run(self):
        cl = dgx_v100(3)
        ctx = PGASContext(cl)

        def first():
            ctx.put(0, 1, 48000.3)
            ctx.put(0, 2, 1000.1)

        def second():
            ctx.put(1, 2, 976.1)
            ctx.put(1, 0, 100.7)
            ctx.put(1, 2, 10.1)

        cl.run(lambda cluster: _steps(cluster, [(0.0, first), (0.5, second)]))
        cl.engine.run()
        return cl.profiler

    def test_total_counter(self):
        c = self._run().counter(PGASContext.COUNTER)
        assert c.total == 50087.3  # before any read has sorted the samples
        assert c.events() == [
            (703.2645833333333, 100.7),
            (self.TIE, 1000.1),
            (self.TIE, 976.1),
            (724.3791666666667, 10.1),
            (1825.3395833333334, 48000.3),
        ]
        assert c.values_at(self.SAMPLES).tolist() == [0.0, 100.7, 2076.9, 2076.9, 50087.3]

    def test_pair_counters(self):
        pairs = self._run().pair_counters(PGASContext.COUNTER)
        c02 = pairs[f"{PGASContext.COUNTER}.dev0->dev2"]
        assert c02.events() == [(self.TIE, 1000.1)]
        assert c02.values_at(self.SAMPLES).tolist() == [0.0, 0.0, 1000.1, 1000.1, 1000.1]
        assert c02.total == 1000.1
        c12 = pairs[f"{PGASContext.COUNTER}.dev1->dev2"]
        assert c12.events() == [(self.TIE, 976.1), (724.3791666666667, 10.1)]
        assert c12.values_at(self.SAMPLES).tolist() == [0.0, 0.0, 976.1, 976.1, 986.2]
        assert c12.total == 986.2

    def test_waves_read_back_the_same(self):
        """The same writes issued as two waves read back as the pinned ones."""
        cl = dgx_v100(3)
        ctx = PGASContext(cl)

        cl.run(lambda cluster: _steps(cluster, [
            (0.0, lambda: ctx.put(0, [1, 2], [48000.3, 1000.1])),
            (0.5, lambda: ctx.put(1, [2, 0, 2], [976.1, 100.7, 10.1])),
        ]))
        cl.engine.run()
        pinned = self._run()

        def counters(prof):
            return {**prof.counters, **prof.pair_counters(PGASContext.COUNTER)}

        for name in (
            PGASContext.COUNTER,
            f"{PGASContext.COUNTER}.dev0->dev2",
            f"{PGASContext.COUNTER}.dev1->dev2",
        ):
            got, want = counters(cl.profiler)[name], counters(pinned)[name]
            assert got.total == want.total
            assert got.events() == want.events()
            assert got.values_at(self.SAMPLES).tolist() == want.values_at(self.SAMPLES).tolist()


def _state(cl, ctx):
    """Everything a booked write touches: links, counter samples in
    insertion order, the PE completion state and the engine's entries."""
    links = {
        (lk.src, lk.dst): (
            lk.busy_time, lk.bytes_carried, lk.messages_sent, lk.transfer_count, lk._free_at
        )
        for lk in cl.interconnect.links()
    }
    counters = {
        name: (c._times.tolist(), c._deltas.tolist())
        for name, c in sorted(cl.profiler.counters.items())
    }
    heap = sorted((t, seq) for t, seq, fn in cl.engine._queue if fn is not None)
    return {
        "links": links,
        "counters": counters,
        "spans": list(cl.profiler.spans),
        "last_done": dict(ctx._last_done),
        "seq": cl.engine._seq,
        "heap": heap,
    }


class TestWave:
    """A wave is the same writes issued one at a time, in order, at one instant."""

    #: (delay before, src, dsts, values): duplicate destinations, zero
    #: payloads, ties across PEs and writes queued behind earlier ones.
    WAVES = [
        (0.0, 0, [1, 2, 3], [48000.3, 1000.1, 256.0]),
        (0.0, 0, [2, 2, 1], [10.5, 0.0, 700.25]),
        (0.5, 1, [2, 0, 2, 3], [976.1, 100.7, 10.1, 0.0]),
        (0.0, 3, [0], [4096.0]),
        (0.25, 2, [3, 1, 0, 3], [1e5, 333.3, 1.0, 2e4]),
    ]
    COUNTS = [
        (0.0, 0, [1, 2, 1], [100, 0, 7]),
        (0.5, 2, [0, 3], [1, 50_000]),
        (0.0, 0, [3, 3], [5, 5]),
    ]

    def _run(self, op, waves, as_wave, traced=False):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        write = getattr(ctx, op)
        if traced:
            cl.profiler.active_trace = TraceRef(trace_id=1, batch_id=0)

        def issue(src, dsts, values):
            if as_wave:
                write(src, dsts, values)
            else:
                for dst, value in zip(dsts, values):
                    write(src, dst, value)

        cl.run(lambda cluster: _steps(cluster, [
            (delay, lambda w=wave: issue(*w)) for delay, *wave in waves
        ]))
        issued = _state(cl, ctx)
        cl.engine.run()
        return issued, _state(cl, ctx), ctx

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_put_wave_equals_puts_one_at_a_time(self, traced):
        one_issued, one_done, _ = self._run("put", self.WAVES, False, traced)
        wave_issued, wave_done, _ = self._run("put", self.WAVES, True, traced)
        assert wave_issued == one_issued
        assert wave_done == one_done
        # The zero payloads book nothing.
        assert len(one_issued["counters"][PGASContext.COUNTER][0]) == 13

    def test_atomic_wave_equals_atomics_one_at_a_time(self):
        one_issued, one_done, _ = self._run("atomic_add", self.COUNTS, False)
        wave_issued, wave_done, _ = self._run("atomic_add", self.COUNTS, True)
        assert wave_issued == one_issued
        assert wave_done == one_done
        assert sum(len(ts) for ts, _ in one_issued["counters"].values()) == 6

    def test_one_call_per_wave(self):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        ctx.put(0, [1, 2, 3], [256.0, 0.0, 512.0])
        assert _writes(ctx) == (2, 768.0)

    def test_empty_wave_books_nothing(self):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        ctx.put(0, [], [])
        ctx.atomic_add(0, (), ())
        assert cl.engine._seq == 0
        assert cl.interconnect.links() == []
        assert cl.profiler.counters == {}
        assert ctx._last_done[0] == float("-inf")
        with pytest.raises(ValueError, match="src"):
            ctx.put(9, [], [])

    BAD_PUTS = [
        ("dst", 7, 256.0, ValueError, r"put: dst\[{i}\] must be a device id"),
        ("dst", -1, 256.0, ValueError, r"put: dst\[{i}\] must be a device id"),
        ("self", 0, 256.0, ValueError, "put to self"),
        ("nan", 1, float("nan"), ValueError, r"payload_bytes\[{i}\] must be finite"),
        ("inf", 1, float("inf"), ValueError, r"payload_bytes\[{i}\] must be finite"),
        ("negative", 1, -5.0, ValueError, r"payload_bytes\[{i}\] must be finite"),
        ("non-numeric", 1, "256", TypeError, r"payload_bytes\[{i}\] must be a real"),
    ]

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize(
        "kind, dst, payload, error, match", BAD_PUTS, ids=[b[0] for b in BAD_PUTS]
    )
    def test_bad_put_element_books_nothing(self, position, kind, dst, payload, error, match):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        dsts, payloads = [1, 2, 3], [256.0, 512.0, 768.0]
        dsts[position], payloads[position] = dst, payload
        with pytest.raises(error, match=match.format(i=position)):
            ctx.put(0, dsts, payloads)
        assert cl.engine._seq == 0
        assert cl.interconnect.links() == []
        assert cl.profiler.counters == {}
        assert ctx._last_done[0] == float("-inf")

    @pytest.mark.parametrize("position", [0, 2])
    def test_bad_put_element_without_peer_access_books_nothing(self, position):
        cl = dgx_v100(4)
        cl.device(0)._peers.discard(position + 1)
        ctx = PGASContext(cl)
        with pytest.raises(PermissionError, match=f"to device {position + 1}"):
            ctx.put(0, [1, 2, 3], [256.0, 512.0, 768.0])
        assert cl.interconnect.links() == [] and cl.engine._seq == 0

    BAD_COUNTS = [
        ("fractional", 2.5, TypeError, r"n_elements\[{i}\] must be an integer"),
        ("negative", -1, ValueError, r"n_elements\[{i}\] must be non-negative"),
    ]

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize(
        "kind, count, error, match", BAD_COUNTS, ids=[b[0] for b in BAD_COUNTS]
    )
    def test_bad_atomic_element_books_nothing(self, position, kind, count, error, match):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        counts = [4, 4]
        counts[position] = count
        with pytest.raises(error, match=match.format(i=position)):
            ctx.atomic_add(0, [1, 2], counts)
        assert cl.engine._seq == 0 and cl.interconnect.links() == []

    def test_mismatched_lengths_rejected(self):
        cl = dgx_v100(4)
        ctx = PGASContext(cl)
        with pytest.raises(ValueError, match="one payload_bytes per dst"):
            ctx.put(0, [1, 2], [256.0])
        with pytest.raises(ValueError, match="one n_elements per dst"):
            ctx.atomic_add(0, [1, 2], 4)
        assert cl.engine._seq == 0 and cl.interconnect.links() == []


class TestOverlapSemantics:
    def test_puts_overlap_with_compute(self):
        """A put issued before a compute delay drains during it (free)."""
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        wire_ns = 1e6  # 1 ms

        def host(cluster):
            ctx.put(0, 1, 48.0 * wire_ns)
            done = cluster.engine.event()
            # "compute", then quiet
            cluster.then(5 * wire_ns, lambda: cluster.then(ctx.quiet([0]), done.succeed))
            return done

        elapsed = cl.run(host)
        # total ≈ compute + quiet overhead, NOT compute + wire
        assert elapsed < 5 * wire_ns + 10 * us

    def test_exposed_drain_when_compute_short(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        wire_ns = 1e6

        def host(cluster):
            ctx.put(0, 1, 48.0 * wire_ns)
            done = cluster.engine.event()
            cluster.then(0.1 * wire_ns, lambda: cluster.then(ctx.quiet([0]), done.succeed))
            return done

        elapsed = cl.run(host)
        assert elapsed >= wire_ns  # drain exposed past the short compute
