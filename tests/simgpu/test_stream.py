"""Tests for CUDA-style streams and the join that waits on their ops."""

from __future__ import annotations

import builtins

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.cluster import Cluster
from repro.simgpu.device import Device, DeviceSpec
from repro.simgpu.engine import Engine, SimulationError
from repro.simgpu.kernel import KernelSpec, WaveInfo, kernel_time
from repro.simgpu.stream import StreamPool, join


def make_device() -> Device:
    return Device(Engine(), 0, DeviceSpec())


class TestStreamOrdering:
    def test_ops_run_in_submission_order(self):
        dev = make_device()
        stream = dev.default_stream
        ops = [stream.submit_delay(dt, name=tag) for tag, dt in (("a", 10.0), ("b", 5.0), ("c", 1.0))]
        dev.engine.run()
        # serialised: a at 10, b at 15, c at 16 — not by own duration
        assert [(op.name, op.finished_at) for op in ops] == [("a", 10.0), ("b", 15.0), ("c", 16.0)]

    def test_different_streams_run_concurrently(self):
        dev = make_device()
        x = dev.stream("s1").submit_delay(100.0)
        y = dev.stream("s2").submit_delay(100.0)
        dev.engine.run()
        assert (x.finished_at, y.finished_at) == (100.0, 100.0)  # overlapped, not 100/200

    def test_submit_delay(self):
        """A delay is booked at submit: its end is known at once, and it is
        completed once the clock reaches that end."""
        dev = make_device()
        op = dev.default_stream.submit_delay(42.0)
        assert (op.started_at, op.finished_at, op.completed) == (0.0, 42.0, False)
        dev.engine.run(until=42.0)
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

    def test_submit_after_drain_restarts_dispatcher(self):
        dev = make_device()
        eng = dev.engine
        dev.default_stream.submit_delay(10.0)
        eng.run()
        op = dev.default_stream.submit_delay(10.0)
        eng.run()
        assert op.finished_at == 20.0


class TestDrainAndSync:
    def test_stream_synchronize_charges_overhead(self):
        """A stream sync is a join whose ``after_ns`` is the host's sync cost."""
        dev = make_device()
        eng = dev.engine
        op = dev.default_stream.submit_delay(10.0)
        eng.run_until_event(join(eng, [op], dev.spec.sync_overhead_ns))
        assert eng.now == 10.0 + dev.spec.sync_overhead_ns

    def test_device_synchronize_covers_all_streams(self):
        """A device sync is one join over the ops of every stream."""
        dev = make_device()
        eng = dev.engine
        ops = [dev.stream("a").submit_delay(10.0), dev.stream("b").submit_delay(50.0)]
        eng.run_until_event(join(eng, ops, dev.spec.sync_overhead_ns))
        assert eng.now == 50.0 + dev.spec.sync_overhead_ns


class TestCallbackOps:
    """Delays and kernels are booked at submit; a join is one event."""

    KSPEC = KernelSpec("k", num_blocks=2000, bytes_read=1e9)

    def test_done_read_before_completion(self):
        """A join made before its op ends fires at the op's end."""
        dev = make_device()
        op = dev.default_stream.submit_delay(10.0)
        ev = join(dev.engine, [op])
        assert not ev.triggered and not op.completed
        dev.engine.run()
        assert ev.triggered
        assert op.finished_at == 10.0

    def test_done_read_after_completion_holds_the_value(self):
        """A join over a finished op fires now with one engine entry; the
        op keeps the kernel's duration in its timestamps."""
        dev = make_device()
        eng = dev.engine
        op = dev.default_stream.launch(dev, self.KSPEC)
        eng.run(until=op.finished_at)
        assert op.completed
        assert op.finished_at - op.started_at == pytest.approx(kernel_time(self.KSPEC, dev.spec))
        seq = eng._seq
        ev = join(eng, [op])
        assert eng._seq == seq + 1
        eng.run()
        assert ev.triggered and eng.now == op.finished_at

    def test_timestamps_and_drained(self):
        dev = make_device()
        eng = dev.engine
        st = dev.default_stream
        eng.run(until=5.0)
        first = st.submit_delay(10.0)
        kernel = st.launch(dev, self.KSPEC)
        # Both are booked at submit, the kernel behind the delay.
        assert (first.enqueued_at, first.started_at) == (5.0, 5.0)
        assert (kernel.enqueued_at, kernel.started_at) == (5.0, 15.0)
        assert not first.completed and not kernel.completed
        eng.run_until_event(join(eng, [kernel]))
        assert first.completed and kernel.completed
        assert first.finished_at == kernel.started_at == 15.0
        assert kernel.finished_at - kernel.started_at == pytest.approx(kernel_time(self.KSPEC, dev.spec))

    def test_exception_in_on_wave_propagates(self):
        dev = make_device()
        eng = dev.engine

        def exploding(info: WaveInfo) -> None:
            raise ValueError("op fault")

        kernel = dev.default_stream.launch(dev, self.KSPEC, exploding)
        after = dev.default_stream.submit_delay(1.0)
        with pytest.raises(ValueError, match="op fault"):
            eng.run()
        # The run stops at the first wave end; the delay was booked behind
        # the kernel at submit and has not been reached.
        assert eng.now < kernel.finished_at
        assert not kernel.completed and not after.completed
        assert after.started_at == kernel.finished_at

    def test_unwaited_ops_schedule_no_entry(self):
        """Booked ops nobody waits on schedule nothing, and so do not
        advance the clock of a run that has nothing else to do."""
        dev = make_device()
        eng = dev.engine
        st = dev.default_stream
        st.submit_delay(10.0, name="launch")
        kernel = st.launch(dev, self.KSPEC)
        eng.run()
        assert (eng._seq, eng.now) == (0, 0.0)
        assert kernel.started_at == 10.0

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


class TestJoin:
    """``join`` fires once, ``after_ns`` after the last of its ops ends."""

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(0, 2),  # device
                st.integers(0, 1),  # stream on it
                st.floats(0.0, 1e6),  # duration
                st.booleans(),  # a kernel (else a delay)
            ),
            min_size=1,
            max_size=12,
        ),
        after_ns=st.sampled_from([0.0, 1.5, 2e3]),
    )
    def test_fires_at_the_last_finish_plus_after(self, spans, after_ns):
        cl = Cluster(3)
        eng = cl.engine
        ops = []
        for dev_id, stream_no, dt, kernel in spans:
            dev = cl.device(dev_id)
            stream = dev.stream(f"s{stream_no}")
            if kernel:
                kspec = KernelSpec("k", num_blocks=int(dt) % 5000, bytes_read=dt * 1e3)
                ops.append(stream.launch(dev, kspec))
            else:
                ops.append(stream.submit_delay(dt))
        ev = join(eng, ops, after_ns)
        fired = []
        ev.add_callback(lambda: fired.append(eng.now))
        eng.run()
        assert fired == [max(op.finished_at for op in ops) + after_ns]

    @pytest.mark.parametrize("after_ns", [0.0, 7.0])
    def test_finished_or_no_ops_fire_now(self, after_ns):
        dev = make_device()
        eng = dev.engine
        op = dev.default_stream.submit_delay(10.0)
        eng.run(until=10.0)
        for ops in ([op], []):
            ev = join(eng, ops, after_ns)
            start = eng.now
            eng.run_until_event(ev)
            assert eng.now == start + after_ns

    def test_one_op_in_two_joins(self):
        dev = make_device()
        eng = dev.engine
        a = dev.stream("a").submit_delay(10.0)
        b = dev.stream("b").submit_delay(20.0)
        first, both = join(eng, [a]), join(eng, [a, b])
        times = {}
        first.add_callback(lambda: times.setdefault("first", eng.now))
        both.add_callback(lambda: times.setdefault("both", eng.now))
        eng.run()
        assert times == {"first": 10.0, "both": 20.0}

    def test_ops_make_no_event_of_their_own(self):
        dev = make_device()
        eng = dev.engine
        ops = [dev.default_stream.submit_delay(5.0) for _ in range(4)]
        ev = join(eng, ops, 3.0)
        eng.run_until_event(ev)
        # the join's entry at the last end, the after_ns callback and the
        # join's wake-up; the four booked delays take none
        assert eng._seq == 3
        assert eng.now == 23.0

    @pytest.mark.parametrize("after_ns", [-1.0, float("nan"), float("inf")])
    def test_bad_after_rejected(self, after_ns):
        dev = make_device()
        with pytest.raises(SimulationError, match="finite"):
            join(dev.engine, [], after_ns)


class TestStreamPool:
    def test_slots(self):
        pool = StreamPool(2)
        a, b = pool.acquire(), pool.acquire()
        assert (a.suffix, b.suffix, pool.try_acquire()) == ("", "#1", None)
        a.release()
        c = pool.try_acquire()  # the one free slot, then none
        assert (c.suffix, pool.try_acquire()) == ("", None)

    @pytest.mark.parametrize("bad", [True, "2", 1.0])
    def test_non_int_slot_count_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match="StreamPool.n_slots"):
            StreamPool(bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_slot_count_below_one_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="StreamPool.n_slots"):
            StreamPool(bad)


class TestDeviceBasics:
    def test_named_streams_are_cached(self):
        dev = make_device()
        assert dev.stream("k") is dev.stream("k")
        assert dev.default_stream is dev.stream("default")

    def test_getting_a_stream_imports_nothing(self, monkeypatch):
        dev = make_device()
        imported = []
        real = builtins.__import__

        def spy(name, *args, **kwargs):
            imported.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", spy)
        dev.stream("new")
        dev.stream("new")
        dev.default_stream
        assert imported == []

    def test_peer_access(self):
        dev = make_device()
        assert dev.can_access_peer(0)  # self
        assert not dev.can_access_peer(1)
        dev = Device(Engine(), 0, DeviceSpec(), peers=iter([1, 3]))
        assert dev.can_access_peer(1) and dev.can_access_peers([1, 3])
        assert not dev.can_access_peer(2)
        with pytest.raises(ValueError, match="its own peer"):
            Device(Engine(), 0, DeviceSpec(), peers=[1, 0])

    def test_negative_device_id_rejected(self):
        with pytest.raises(ValueError):
            Device(Engine(), -1)

    def test_cluster_enables_peers(self):
        cl = Cluster(3)
        for a in range(3):
            for b in range(3):
                assert cl.device(a).can_access_peer(b)
