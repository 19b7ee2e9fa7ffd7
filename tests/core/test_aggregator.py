"""Tests for the asynchronous message aggregator (paper §V)."""

from __future__ import annotations

import pytest

from repro.comm.pgas import PGASContext, PGASSpec
from repro.core import aggregator
from repro.core.aggregator import AsyncAggregator
from repro.simgpu import dgx_v100
from repro.simgpu.units import us


@pytest.fixture
def make(monkeypatch):
    """``make(flush_bytes, max_wait_ns, n_devices)``: an aggregator on a
    fresh cluster, with its flush triggers set for the test."""

    def build(flush_bytes=10_000, max_wait_ns=1e6, n_devices=2):
        monkeypatch.setattr(aggregator, "FLUSH_BYTES", flush_bytes)
        monkeypatch.setattr(aggregator, "MAX_WAIT_NS", max_wait_ns)
        cl = dgx_v100(n_devices)
        pgas = PGASContext(cl)
        return cl, pgas, AsyncAggregator(pgas)

    return build


class TestStore:
    def test_accumulates_below_threshold(self, make):
        cl, _, agg = make(flush_bytes=10_000)
        agg.store(0, 1, 3000)
        agg.store(0, 1, 3000)
        assert agg.flushes == 0
        agg.flush_all()
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == 6000

    def test_size_trigger_flushes(self, make):
        cl, _, agg = make(flush_bytes=10_000)
        agg.store(0, 1, 6000)
        agg.store(0, 1, 6000)  # 12000 >= threshold
        assert agg.flushes == 1
        assert agg.flush(0, 1) is None  # nothing left buffered

    def test_per_destination_buffers_independent(self, make):
        cl, _, agg = make(flush_bytes=10_000, n_devices=3)
        agg.store(0, 1, 6000)
        agg.store(0, 2, 6000)
        assert agg.flushes == 0
        agg.store(0, 1, 6000)
        assert agg.flushes == 1
        assert agg.flush(0, 1) is None
        agg.flush(0, 2)
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == 12_000 + 6000

    def test_local_store_rejected(self, make):
        _, _, agg = make()
        with pytest.raises(ValueError, match="local store"):
            agg.store(1, 1, 100)

    def test_zero_store_is_noop(self, make):
        _, _, agg = make()
        agg.store(0, 1, 0)
        assert agg.stores == 0
        assert agg.flush(0, 1) is None

    def test_negative_rejected(self, make):
        _, _, agg = make()
        with pytest.raises(ValueError):
            agg.store(0, 1, -5)

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ((0, 1, float("nan")), ValueError, "payload_bytes"),
            ((0, 1, float("inf")), ValueError, "payload_bytes"),
            ((0, 1, "256"), TypeError, "payload_bytes"),
            ((0, 7, 100.0), ValueError, "dst"),
            ((0, -1, 100.0), ValueError, "dst"),
            ((4, 1, 100.0), ValueError, "src"),
        ],
        ids=["nan", "inf", "non-numeric", "dst-past-end", "dst-negative", "src-past-end"],
    )
    def test_put_typed_errors_store_nothing(self, args, error, match, make):
        """``store`` raises what ``PGASContext.put`` raises, and buffers nothing."""
        cl, _, agg = make(n_devices=4)
        with pytest.raises(error, match=match):
            agg.store(*args)
        assert agg.stores == 0
        assert agg._pending == {} and agg._timers == {}
        assert cl.engine._seq == 0


class TestTimeTrigger:
    def test_max_wait_flushes_stale_buffer(self, make):
        cl, _, agg = make(flush_bytes=1_000_000, max_wait_ns=100 * us)
        agg.store(0, 1, 500)
        assert agg.flushes == 0
        cl.engine.run(until=99 * us)
        assert agg.flushes == 0
        cl.engine.run(until=101 * us)
        assert agg.flushes == 1

    def test_timer_measures_from_oldest_byte(self, make):
        cl, _, agg = make(flush_bytes=1_000_000, max_wait_ns=100 * us)

        def host(cluster):
            done = cluster.engine.event()
            agg.store(0, 1, 500)

            def again():
                agg.store(0, 1, 500)  # does NOT reset the deadline
                cluster.then(41 * us, done.succeed)  # now past 100 µs

            cluster.then(60 * us, again)
            return done

        cl.run(host)
        assert agg.flushes == 1

    def test_size_flush_cancels_timer(self, make):
        cl, _, agg = make(flush_bytes=1000, max_wait_ns=100 * us)
        agg.store(0, 1, 1500)  # immediate size flush
        assert agg.flushes == 1
        cl.engine.run(until=200 * us)
        assert agg.flushes == 1  # stale timer must not double-flush


class TestFlush:
    def test_flush_all_sends_everything(self, make):
        cl, pgas, agg = make(flush_bytes=1_000_000, n_devices=3)
        agg.store(0, 1, 100)
        agg.store(0, 2, 200)
        agg.store(1, 0, 300)
        events = agg.flush_all()
        assert len(events) == 3
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(600)

    def test_flush_all_single_source(self, make):
        cl, _, agg = make(flush_bytes=1_000_000, n_devices=3)
        agg.store(0, 1, 100)
        agg.store(1, 0, 300)
        events = agg.flush_all(src=0)
        assert len(events) == 1
        assert len(agg.flush_all()) == 1  # source 1's buffer was kept
        cl.engine.run()
        assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(400)

    def test_flush_empty_returns_none(self, make):
        _, _, agg = make()
        assert agg.flush(0, 1) is None

    def test_quiet_drains_flushed_transfers(self, make):
        cl, pgas, agg = make(flush_bytes=1_000_000)
        agg.store(0, 1, 48.0 * 1e6)  # 1 ms wire
        agg.flush_all()

        elapsed = cl.run(lambda cluster: pgas.quiet([0]))
        assert elapsed >= 1e6


class TestBandwidthBenefit:
    def test_fewer_headers_than_small_messages(self, monkeypatch):
        """The §V motivation: aggregated flushes amortise framing."""
        payload = 1_000_000.0
        # small messages: 256 B + 32 B header each
        cl1 = dgx_v100(2)
        PGASContext(cl1, PGASSpec(message_bytes=256, header_bytes=32)).put(0, 1, payload)
        cl1.engine.run()
        small_wire = cl1.interconnect.total_wire_bytes()

        # aggregated: one 64 KiB-framed flush
        monkeypatch.setattr(aggregator, "FLUSH_BYTES", 2_000_000)
        cl2 = dgx_v100(2)
        agg = AsyncAggregator(PGASContext(cl2))
        agg.store(0, 1, payload)
        agg.flush_all()
        cl2.engine.run()
        agg_wire = cl2.interconnect.total_wire_bytes()

        assert agg_wire < small_wire
        assert small_wire / payload > 1.1  # 12.5% header overhead
        assert agg_wire / payload < 1.01
