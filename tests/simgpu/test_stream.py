"""Tests for CUDA-style streams and events."""

from __future__ import annotations

import pytest

from repro.simgpu.cluster import Cluster
from repro.simgpu.device import Device, DeviceSpec
from repro.simgpu.engine import Engine, SimulationError
from repro.simgpu.kernel import KernelSpec, kernel_time


def make_device() -> Device:
    return Device(Engine(), 0, DeviceSpec())


class TestStreamOrdering:
    def test_ops_run_in_submission_order(self):
        dev = make_device()
        eng = dev.engine
        order = []

        def op(tag, dt):
            def gen():
                yield eng.timeout(dt)
                order.append((tag, eng.now))

            return gen

        st = dev.default_stream
        st.submit(op("a", 10.0))
        st.submit(op("b", 5.0))
        st.submit(op("c", 1.0))
        eng.run()
        # serialised: a at 10, b at 15, c at 16 — not by own duration
        assert order == [("a", 10.0), ("b", 15.0), ("c", 16.0)]

    def test_different_streams_run_concurrently(self):
        dev = make_device()
        eng = dev.engine
        done = {}
        s1, s2 = dev.stream("s1"), dev.stream("s2")

        def op(tag, dt):
            def gen():
                yield eng.timeout(dt)
                done[tag] = eng.now

            return gen

        s1.submit(op("x", 100.0))
        s2.submit(op("y", 100.0))
        eng.run()
        assert done == {"x": 100.0, "y": 100.0}  # overlapped, not 100/200

    def test_submit_delay(self):
        dev = make_device()
        op = dev.default_stream.submit_delay(42.0)
        dev.engine.run()
        assert op.completed
        assert op.finished_at == 42.0

    def test_op_timestamps(self):
        dev = make_device()
        st = dev.default_stream
        st.submit_delay(10.0)
        op = st.submit_delay(5.0)
        dev.engine.run()
        assert op.enqueued_at == 0.0
        assert op.started_at == 10.0
        assert op.finished_at == 15.0

    def test_op_done_value(self):
        dev = make_device()
        eng = dev.engine

        def gen():
            yield eng.timeout(1.0)
            return "result"

        op = dev.default_stream.submit(lambda: gen())
        eng.run()
        assert op.done.value == "result"

    def test_submit_after_drain_restarts_dispatcher(self):
        dev = make_device()
        eng = dev.engine
        dev.default_stream.submit_delay(10.0)
        eng.run()
        op = dev.default_stream.submit_delay(10.0)
        eng.run()
        assert op.finished_at == 20.0


class TestDrainAndSync:
    def test_drained_on_idle_stream_fires_immediately(self):
        dev = make_device()
        ev = dev.default_stream.drained()
        assert ev.triggered

    def test_drained_waits_for_queue(self):
        dev = make_device()
        eng = dev.engine
        dev.default_stream.submit_delay(30.0)
        dev.default_stream.submit_delay(20.0)
        ev = dev.default_stream.drained()
        assert not ev.triggered
        eng.run()
        assert ev.triggered and eng.now == 50.0

    def test_stream_synchronize_charges_overhead(self):
        dev = make_device()
        eng = dev.engine
        dev.default_stream.submit_delay(10.0)
        proc = eng.process(dev.default_stream.synchronize())
        eng.run_until_event(proc)
        assert eng.now == 10.0 + dev.spec.sync_overhead_ns

    def test_device_synchronize_covers_all_streams(self):
        dev = make_device()
        eng = dev.engine
        dev.stream("a").submit_delay(10.0)
        dev.stream("b").submit_delay(50.0)
        proc = eng.process(dev.synchronize())
        eng.run_until_event(proc)
        assert eng.now == 50.0 + dev.spec.sync_overhead_ns


class TestCudaEvents:
    def test_record_and_elapsed(self):
        dev = make_device()
        eng = dev.engine
        st = dev.default_stream
        st.submit_delay(10.0)
        e1 = st.record_event()
        st.submit_delay(25.0)
        e2 = st.record_event()
        eng.run()
        assert e1.timestamp == 10.0
        assert e2.timestamp == 35.0
        assert e2.elapsed_since(e1) == 25.0

    def test_elapsed_before_fired_raises(self):
        dev = make_device()
        e1 = dev.default_stream.record_event()
        e2 = dev.default_stream.record_event()
        with pytest.raises(ValueError):
            e2.elapsed_since(e1)

    def test_wait_event_orders_across_streams(self):
        dev = make_device()
        eng = dev.engine
        s1, s2 = dev.stream("s1"), dev.stream("s2")
        s1.submit_delay(100.0)
        marker = s1.record_event()
        s2.wait_event(marker)
        op = s2.submit_delay(10.0)
        eng.run()
        assert op.started_at == 100.0
        assert op.finished_at == 110.0

    def test_wait_on_already_fired_event_is_free(self):
        dev = make_device()
        eng = dev.engine
        s1, s2 = dev.stream("s1"), dev.stream("s2")
        marker = s1.record_event()
        eng.run()
        assert marker.fired
        s2.wait_event(marker)
        op = s2.submit_delay(5.0)
        eng.run()
        assert op.finished_at == 5.0


class TestCallbackOps:
    """Delays and kernels run as engine callbacks; ``done`` is made on demand."""

    KSPEC = KernelSpec("k", num_blocks=2000, bytes_read=1e9)

    def test_done_read_before_completion(self):
        dev = make_device()
        op = dev.default_stream.submit_delay(10.0)
        ev = op.done
        assert ev is op.done and not ev.triggered and not op.completed
        dev.engine.run()
        assert ev.triggered and ev.ok and ev.value is None

    def test_done_read_after_completion_holds_the_value(self):
        dev = make_device()
        eng = dev.engine
        op = dev.default_stream.launch(dev, self.KSPEC)
        eng.run()
        seq = eng._seq
        ev = op.done
        assert ev.triggered and ev.value == op.finished_at
        assert ev.value == pytest.approx(kernel_time(self.KSPEC, dev.spec))
        assert eng._seq == seq  # reading it scheduled nothing

        def waiter():
            got = yield op.done
            return got, eng.now

        proc = eng.process(waiter())
        assert eng.run_until_event(proc) == (ev.value, op.finished_at)

    def test_timestamps_and_drained(self):
        dev = make_device()
        eng = dev.engine
        st = dev.default_stream
        eng.run(until=5.0)
        first = st.submit_delay(10.0)
        kernel = st.launch(dev, self.KSPEC)
        drained = st.drained()
        assert (first.enqueued_at, first.started_at) == (5.0, 5.0)
        assert (kernel.enqueued_at, kernel.started_at) == (5.0, None)
        assert not drained.triggered
        eng.run()
        assert first.completed and kernel.completed and drained.triggered
        assert first.finished_at == kernel.started_at == 15.0
        assert kernel.finished_at == 15.0 + kernel.done.value
        assert st.drained().triggered

    def test_exception_in_generator_op_propagates(self):
        dev = make_device()
        eng = dev.engine

        def exploding():
            yield eng.timeout(1.0)
            raise ValueError("op fault")

        dev.default_stream.submit(exploding)
        after = dev.default_stream.submit_delay(1.0)
        with pytest.raises(ValueError, match="op fault"):
            eng.run()
        assert not after.completed and after.started_at is None

    def test_unwaited_ops_schedule_one_event_each(self):
        dev = make_device()
        eng = dev.engine
        st = dev.default_stream
        st.submit_delay(10.0, name="launch")
        st.launch(dev, self.KSPEC)
        eng.run()
        assert eng._seq == 2

    def test_launch_on_another_device_rejected(self):
        dev = make_device()
        other = Device(dev.engine, 1, DeviceSpec())
        with pytest.raises(ValueError, match="device 1"):
            dev.default_stream.launch(other, self.KSPEC)

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_bad_delay_fails_at_submit(self, delay):
        dev = make_device()
        with pytest.raises(SimulationError, match="finite"):
            dev.default_stream.submit_delay(delay)
        assert dev.engine._seq == 0

    def test_nan_cannot_poison_later_ops(self):
        dev = make_device()
        with pytest.raises(ValueError, match="bytes_read"):
            dev.default_stream.launch(dev, KernelSpec("nan", num_blocks=1, bytes_read=float("nan")))
        op = dev.default_stream.submit_delay(5.0)
        dev.engine.run()
        assert op.finished_at == 5.0

    def test_record_and_wait_order_across_streams(self):
        dev = make_device()
        eng = dev.engine
        s1, s2 = dev.stream("s1"), dev.stream("s2")
        s1.submit_delay(30.0)
        k = s1.launch(dev, self.KSPEC)
        marker = s1.record_event()
        s2.submit_delay(10.0)
        s2.wait_event(marker)
        after = s2.submit_delay(5.0)
        eng.run()
        assert marker.timestamp == k.finished_at
        assert after.started_at == k.finished_at
        assert after.finished_at == k.finished_at + 5.0


class TestDeviceBasics:
    def test_named_streams_are_cached(self):
        dev = make_device()
        assert dev.stream("k") is dev.stream("k")
        assert dev.default_stream is dev.stream("default")

    def test_peer_access(self):
        dev = make_device()
        assert dev.can_access_peer(0)  # self
        assert not dev.can_access_peer(1)
        dev.enable_peer_access(1)
        assert dev.can_access_peer(1)
        with pytest.raises(ValueError):
            dev.enable_peer_access(0)

    def test_negative_device_id_rejected(self):
        with pytest.raises(ValueError):
            Device(Engine(), -1)

    def test_cluster_enables_peers(self):
        cl = Cluster(3)
        for a in range(3):
            for b in range(3):
                assert cl.device(a).can_access_peer(b)
