"""Tests for the PGAS one-sided communication layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.pgas import PGASContext, PGASSpec, SymmetricHeap
from repro.simgpu import dgx_v100
from repro.simgpu.profiler import TraceRef
from repro.simgpu.units import us


class TestSpec:
    def test_defaults_match_paper_units(self):
        spec = PGASSpec()
        # 256 B = one d=64 fp32 embedding vector, the paper's counter unit.
        assert spec.message_bytes == 256
        assert spec.header_bytes == 32

    def test_wire_efficiency(self):
        assert PGASSpec(message_bytes=256, header_bytes=32).wire_efficiency == pytest.approx(
            256 / 288
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PGASSpec(message_bytes=0)
        with pytest.raises(ValueError):
            PGASSpec(header_bytes=-1)


class TestSymmetricHeap:
    def test_same_offsets_across_devices(self):
        cl = dgx_v100(3)
        heap = SymmetricHeap(cl)
        bufs = heap.alloc((100, 4))
        assert len(bufs) == 3
        assert len({b.offset for b in bufs}) == 1
        assert {b.device_id for b in bufs} == {0, 1, 2}

    def test_successive_allocations_stay_symmetric(self):
        cl = dgx_v100(2)
        heap = SymmetricHeap(cl)
        a = heap.alloc((10,))
        b = heap.alloc((20,))
        assert a[0].offset == a[1].offset
        assert b[0].offset == b[1].offset
        assert a[0].offset != b[0].offset

    def test_diverged_heaps_detected_and_rolled_back(self):
        cl = dgx_v100(2)
        heap = SymmetricHeap(cl)
        cl.device(0).memory.alloc((7,))  # asymmetric private allocation
        used_before = [d.memory.used for d in cl.devices]
        with pytest.raises(RuntimeError, match="diverged"):
            heap.alloc((10,))
        assert [d.memory.used for d in cl.devices] == used_before

    def test_free(self):
        cl = dgx_v100(2)
        heap = SymmetricHeap(cl)
        bufs = heap.alloc((10,))
        heap.free(bufs)
        assert all(d.memory.used == 0 for d in cl.devices)
        with pytest.raises(ValueError):
            heap.free(bufs)


class TestPut:
    def test_basic_put_delivers(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        assert ctx.put(0, 1, 1024.0) is None
        assert ctx.pending_puts(0) == 1
        cl.engine.run()
        assert ctx.pending_puts(0) == 0
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(1024.0)
        assert cl.profiler.counter(f"{PGASContext.COUNTER}.dev0->dev1").total == 1024.0

    def test_put_is_one_callback(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seq0 = cl.engine._seq
        ctx.put(0, 1, 1024.0)
        assert cl.engine._seq == seq0 + 1

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
        assert ctx.pending_puts(0) == 0
        assert ctx.puts_issued == 0

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

    def test_put_statistics(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        ctx.put(0, 1, 200.0)
        assert ctx.puts_issued == 2
        assert ctx.payload_bytes_issued == 300.0


class TestAtomics:
    def test_atomic_add_volume(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl, PGASSpec(atomic_payload_bytes=8))
        ctx.atomic_add(0, 1, 100)
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(800.0)

    def test_atomic_add_is_awaited_by_quiet(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl, PGASSpec(atomic_payload_bytes=8, quiet_overhead_ns=0.0))
        assert ctx.atomic_add(0, 1, 1_000_000) is None
        assert ctx.pending_puts(0) == 1

        def host(cluster):
            yield from ctx.quiet(0)

        elapsed = cl.run(host)
        (delivered, _), = cl.profiler.counter(PGASContext.COUNTER).events()
        assert elapsed == delivered
        assert ctx.pending_puts(0) == 0

    def test_zero_atomics_immediate(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        seq0 = cl.engine._seq
        assert ctx.atomic_add(0, 1, 0) is None
        assert cl.engine._seq == seq0
        assert ctx.pending_puts(0) == 0

    def test_negative_rejected(self):
        ctx = PGASContext(dgx_v100(2))
        with pytest.raises(ValueError):
            ctx.atomic_add(0, 1, -1)


class TestCompletion:
    def test_quiet_waits_for_outstanding_puts(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        big = 48.0 * 1e6  # 1 ms of wire time at 48 B/ns
        ctx.put(0, 1, big)

        def host(cluster):
            yield from ctx.quiet(0)

        elapsed = cl.run(host)
        assert elapsed >= big / 48.0  # at least the drain time

    def test_quiet_with_nothing_outstanding_costs_only_overhead(self):
        cl = dgx_v100(2)
        spec = PGASSpec(quiet_overhead_ns=2 * us)
        ctx = PGASContext(cl, spec)

        def host(cluster):
            yield from ctx.quiet(0)

        assert cl.run(host) == pytest.approx(2 * us)

    def test_quiet_only_covers_own_pe(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(1, 0, 48.0 * 1e6)  # PE 1's traffic

        def host(cluster):
            yield from ctx.quiet(0)  # PE 0 has nothing outstanding

        assert cl.run(host) < 10 * us

    def test_pending_puts_gc(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 100.0)
        assert ctx.pending_puts(0) == 1
        cl.engine.run()
        assert ctx.pending_puts(0) == 0

    def test_barrier_all_drains_everyone(self):
        cl = dgx_v100(3)
        ctx = PGASContext(cl)
        ctx.put(0, 1, 48.0 * 1e6)
        ctx.put(2, 0, 48.0 * 2e6)

        def host(cluster):
            yield from ctx.barrier_all()

        elapsed = cl.run(host)
        assert elapsed >= 2e6 / 48.0 * 48.0 / 48.0  # at least the slowest drain
        assert ctx.pending_puts(0) == 0
        assert ctx.pending_puts(2) == 0

    def test_register_outstanding_external_event(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        ev = cl.interconnect.transfer(0, 1, 48.0 * 1e6)
        ctx.register_outstanding(0, ev)
        assert ctx.pending_puts(0) == 1

        def host(cluster):
            yield from ctx.quiet(0)

        cl.run(host)
        assert ev.triggered

    def test_pending_puts_counts_in_flight_and_external(self):
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
        assert ctx.pending_puts(0) == 4
        assert ctx.pending_puts(1) == 0
        cl.engine.run()
        assert ctx.pending_puts(0) == 0

    def test_quiet_wakes_at_exactly_the_last_delivery(self):
        cl = dgx_v100(3)
        ctx = PGASContext(cl, PGASSpec(quiet_overhead_ns=0.0))
        woke = []

        def host(cluster):
            # Chosen so that ``now + (last - now)`` rounds to a float other
            # than ``last``: a relative timeout would wake at the wrong time.
            yield cluster.engine.timeout(1000.0 / 3.0)
            ctx.put(0, 1, 1e4 / 7.0)
            yield cluster.engine.timeout(0.1)
            ctx.put(0, 2, 98e3 / 7.0)
            ctx.put(0, 1, 10.0)
            yield cluster.engine.timeout(0.7)
            woke.append(cluster.engine.now)
            yield from ctx.quiet(0)
            woke.append(cluster.engine.now)

        cl.run(host)
        cl.engine.run()
        prof = cl.profiler
        deliveries = [t for t, _ in prof.counter(PGASContext.COUNTER).events()]
        assert len(deliveries) == 3
        entered, last = woke[0], max(deliveries)
        assert entered + (last - entered) != last  # the rounding case
        assert woke[1] == last

    def test_put_issued_after_quiet_starts_is_not_awaited(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl, PGASSpec(quiet_overhead_ns=0.0))
        seen = {}

        def host(cluster):
            engine = cluster.engine
            ctx.put(0, 1, 4800.0)  # ~100 ns of wire
            q = engine.process(ctx.quiet(0))
            yield engine.timeout(1.0)  # quiet has taken its snapshot
            ctx.put(0, 1, 48.0 * 1e6)  # ~1 ms, queued behind the first
            yield q
            seen["quiet_done"] = engine.now
            seen["pending"] = ctx.pending_puts(0)

        cl.run(host)
        cl.engine.run()  # deliver the late put too
        first, second = (t for t, _ in cl.profiler.counter(PGASContext.COUNTER).events())
        assert seen["quiet_done"] == first
        assert seen["pending"] == 1
        assert second > 1e6


class TestOverlapSemantics:
    def test_puts_overlap_with_compute(self):
        """A put issued before a compute delay drains during it (free)."""
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        wire_ns = 1e6  # 1 ms

        def host(cluster):
            ctx.put(0, 1, 48.0 * wire_ns)
            yield cluster.engine.timeout(5 * wire_ns)  # "compute"
            yield from ctx.quiet(0)

        elapsed = cl.run(host)
        # total ≈ compute + quiet overhead, NOT compute + wire
        assert elapsed < 5 * wire_ns + 10 * us

    def test_exposed_drain_when_compute_short(self):
        cl = dgx_v100(2)
        ctx = PGASContext(cl)
        wire_ns = 1e6

        def host(cluster):
            ctx.put(0, 1, 48.0 * wire_ns)
            yield cluster.engine.timeout(0.1 * wire_ns)
            yield from ctx.quiet(0)

        elapsed = cl.run(host)
        assert elapsed >= wire_ns  # drain exposed past the short compute
