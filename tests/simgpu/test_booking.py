"""Booked stream ops equal stepped ones bit for bit, fault plans included.

Every stream op is booked when it is submitted: a delay, or a launch
whose waves :func:`repro.simgpu.kernel._timeline` times at once, through
the slowdown and stall edges a fault plan registered on its device.  The
oracle is the stepped model of ``stepped.py``: each launch driven wave by
wave by engine callbacks that read the live device state, which the
plan's edges change in their own entries.  Through any program and plan
the two must give the same floats: every op's start and end, every
join's firing instant and every ``WaveInfo``.

Grid kernels do no memory traffic, so their body is their stretch and
their waves end on a 250 ns grid, where the plan's edges lie too: edges
tie with wave boundaries, with stall ends and with each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simgpu.cluster import Cluster
from repro.simgpu.device import V100_SPEC
from repro.simgpu.kernel import KernelSpec
from repro.simgpu.profiler import TraceRef
from repro.simgpu.stream import join
from tests.simgpu import stepped

C = V100_SPEC.concurrent_blocks
GRID = 250.0

_device = st.integers(0, 2)
_stream = st.integers(0, 1)
_kernel = st.fixed_dictionaries(
    {
        "waves": st.integers(0, 4),
        "offset": st.integers(-2, 2),
        "weight_seed": st.none() | st.integers(0, 2**32 - 1),
        "bytes_read": st.floats(0.0, 1e9),
        "tail_ns": st.sampled_from([0.0, 2.5e3]),
        "stretch_ns": st.sampled_from([0.0, 7.5e3]),
        "min_waves_for_peak": st.sampled_from([0.0, 6.0]),
        "hook": st.booleans(),
    }
)
#: waves of 1/1, 1/2 or 1/4 of a body on the grid: every end is on the grid
_grid_kernel = st.fixed_dictionaries(
    {
        "waves": st.sampled_from([0, 1, 2, 4]),
        "offset": st.just(0),
        "weight_seed": st.none(),
        "bytes_read": st.just(0.0),
        "tail_ns": st.sampled_from([0.0, GRID]),
        "stretch_ns": st.sampled_from([4 * GRID, 16 * GRID, 32 * GRID]),
        "min_waves_for_peak": st.just(0.0),
        "hook": st.booleans(),
    }
)
_step = st.one_of(
    st.tuples(st.just("delay"), _device, _stream, st.floats(0.0, 2e5)),
    st.tuples(st.just("delay"), _device, _stream, st.integers(0, 40).map(lambda n: n * GRID)),
    st.tuples(st.just("kernel"), _device, _stream, _kernel),
    st.tuples(st.just("kernel"), _device, _stream, _grid_kernel),
    st.tuples(
        st.just("join"),
        st.lists(st.integers(0, 63), max_size=4),
        st.sampled_from([0.0, 1.5, 2e3]),
    ),
    st.tuples(st.just("wait"), st.floats(0.0, 3e5)),
    st.tuples(st.just("wait"), st.integers(0, 40).map(lambda n: n * GRID)),
)
_instant = st.integers(0, 160).map(lambda n: n * GRID)
_window = st.tuples(
    st.sampled_from(["device_slowdown", "device_stall"]),
    _device,
    _instant,
    st.integers(1, 40).map(lambda n: n * GRID),
    st.sampled_from([2.0, 4.0, 2.5, 3.0, 1.5]),
)


def _kspec(k: dict) -> KernelSpec:
    n = max(k["waves"] * C + k["offset"], 0)
    weights = None
    if k["weight_seed"] is not None:
        # Integral weights, as every workload passes (lookup counts).
        weights = np.random.default_rng(k["weight_seed"]).integers(0, 64, n).astype(float)
    return KernelSpec(
        "k", num_blocks=n, bytes_read=k["bytes_read"], block_weights=weights,
        tail_ns=k["tail_ns"], stretch_ns=k["stretch_ns"],
        min_waves_for_peak=k["min_waves_for_peak"],
    )


def _plan(windows, n_devices: int) -> FaultPlan:
    events = []
    for kind, dev, start, length, severity in windows:
        kwargs = {"severity": severity} if kind == "device_slowdown" else {}
        events.append(FaultEvent(kind, start, start + length, device=dev % n_devices, **kwargs))
    return FaultPlan(tuple(events))


def run_program(program, n_devices: int, stepped_run: bool, windows=(), monkeypatch=None):
    """Run ``program`` on a fresh cluster under the fault plan of
    ``windows``; return what it observed.

    ``stepped_run`` runs every launch through the stepped oracle.
    """
    cl = Cluster(n_devices)
    eng = cl.engine
    wait_on = join
    if stepped_run:
        stepped.step_launches(cl, monkeypatch)
        wait_on = stepped.join
    FaultInjector(cl, _plan(windows, n_devices)).install()
    ops, waves, fired = [], [], []
    for step in program:
        kind = step[0]
        if kind == "delay":
            _, dev_id, stream_no, dt = step
            ops.append(cl.device(dev_id % n_devices).stream(f"s{stream_no}").submit_delay(dt))
        elif kind == "kernel":
            _, dev_id, stream_no, k = step
            dev = cl.device(dev_id % n_devices)
            seen = []
            waves.append(seen)
            on_wave = seen.append if k["hook"] else None
            ops.append(dev.stream(f"s{stream_no}").launch(dev, _kspec(k), on_wave))
        elif kind == "join":
            _, picks, after_ns = step
            chosen = [ops[i % len(ops)] for i in picks] if ops else []
            slot = len(fired)
            fired.append(None)
            wait_on(eng, chosen, after_ns).add_callback(
                lambda slot=slot: fired.__setitem__(slot, eng.now)
            )
        else:
            eng.run(until=eng.now + step[1])
    eng.run()
    # A booked op nobody waits on takes no entry, so run to the last end.
    last = max((op.finished_at for op in ops if op.finished_at is not None), default=0.0)
    eng.run(until=max(last, eng.now))
    assert all(op.completed for op in ops)
    assert None not in fired
    return [(op.started_at, op.finished_at) for op in ops], fired, waves


def _compare(program, n_devices, windows=()):
    with pytest.MonkeyPatch.context() as mp:
        oracle = run_program(program, n_devices, True, windows, mp)
    booked = run_program(program, n_devices, False, windows)
    assert booked == oracle
    return booked


#: a kernel on a stalled device and a delay queued behind it, joined
_BEHIND = [
    ("kernel", 0, 0, {"waves": 2, "offset": 0, "weight_seed": None, "bytes_read": 1e8,
                      "tail_ns": 0.0, "stretch_ns": 0.0, "min_waves_for_peak": 0.0,
                      "hook": False}),
    ("delay", 0, 0, 5.0),
    ("join", [1], 1.0),
]


@settings(max_examples=150, deadline=None)
@given(program=st.lists(_step, min_size=1, max_size=14), n_devices=st.integers(2, 3))
def test_booked_equals_stepped(program, n_devices):
    _compare(program, n_devices)


@settings(max_examples=250, deadline=None)
@given(
    program=st.lists(_step, min_size=1, max_size=14),
    n_devices=st.integers(2, 3),
    windows=st.lists(_window, max_size=5),
)
@example(program=_BEHIND, n_devices=2, windows=[("device_stall", 0, GRID, 4 * GRID, 1.0)])
def test_booked_equals_stepped_under_a_fault_plan(program, n_devices, windows):
    _compare(program, n_devices, windows)


def _grid_kernel_step(dev=0, stream=0, waves=4, stretch=16 * GRID, tail=0.0, hook=True):
    return ("kernel", dev, stream, {
        "waves": waves, "offset": 0, "weight_seed": None, "bytes_read": 0.0, "tail_ns": tail,
        "stretch_ns": stretch, "min_waves_for_peak": 0.0, "hook": hook,
    })


class TestFaultPlanCases:
    """Cases the property test reaches only by luck, each against the oracle."""

    def test_overlapping_slowdowns(self):
        # x2 from 500, x2.5 from 1500; the first heals at 2500, the second at 3500.
        windows = [("device_slowdown", 0, 2 * GRID, 8 * GRID, 2.0),
                   ("device_slowdown", 0, 6 * GRID, 8 * GRID, 2.5)]
        (ops, _, waves) = _compare([_grid_kernel_step()], 2, windows)
        assert ops[0][1] > 16 * GRID and len(waves[0]) == 4

    def test_a_stall_that_opens_during_another_stalls_wait(self):
        # The wave boundary at 1000 waits out the stall to 2000; a second
        # stall opening at 1500 is not seen until the next boundary.
        windows = [("device_stall", 0, 4 * GRID, 4 * GRID, 1.0),
                   ("device_stall", 0, 6 * GRID, 12 * GRID, 1.0)]
        (ops, _, waves) = _compare([_grid_kernel_step()], 2, windows)
        starts = [info.t_start for info in waves[0]]
        assert starts[1] == 8 * GRID and starts[2] == 18 * GRID

    def test_a_slowdown_that_opens_while_a_wave_waits_out_a_stall(self):
        # Boundary at 1000 held to 2000; the slowdowns at 1500 and at 2000
        # both apply to the wave that starts there.
        windows = [("device_stall", 0, 4 * GRID, 4 * GRID, 1.0),
                   ("device_slowdown", 0, 6 * GRID, 40 * GRID, 2.0),
                   ("device_slowdown", 0, 8 * GRID, 40 * GRID, 1.5)]
        (ops, _, waves) = _compare([_grid_kernel_step()], 2, windows)
        assert waves[0][1].t_start == 8 * GRID
        assert waves[0][1].t_end == 8 * GRID + 4 * GRID * 3.0

    def test_an_empty_grid_on_a_stalled_device(self):
        windows = [("device_stall", 0, 0.0, 10 * GRID, 1.0)]
        program = [("wait", GRID), _grid_kernel_step(waves=0)]
        (ops, _, _) = _compare(program, 2, windows)
        # The stall holds the launch's one boundary; the floor counts from its start.
        assert ops[0] == (GRID, GRID + V100_SPEC.min_kernel_ns)

    def test_a_launch_queued_behind_a_booked_end(self):
        # The launch starts at 1000, where a stall edge and a slowdown edge
        # lie: both apply before its first wave.
        windows = [("device_stall", 0, 4 * GRID, 2 * GRID, 1.0),
                   ("device_slowdown", 0, 4 * GRID, 40 * GRID, 2.0)]
        program = [("delay", 0, 0, 4 * GRID), _grid_kernel_step(), ("join", [1], 0.0)]
        (ops, fired, waves) = _compare(program, 2, windows)
        assert waves[0][0].t_start == 6 * GRID
        assert ops[1][1] == fired[0] == 6 * GRID + 2 * 16 * GRID

    def test_an_edge_at_the_start_now_is_not_seen_by_the_start(self):
        """Submitted at the instant an edge is due but before its entry
        runs, a launch's first samples see the live state alone."""
        for stepped_run in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                cl = Cluster(1)
                if stepped_run:
                    stepped.step_launches(cl, mp)
                FaultInjector(cl, _plan([("device_slowdown", 0, 0.0, 1e6, 2.0)], 1)).install()
                dev = cl.device(0)
                op = dev.default_stream.launch(dev, _kspec(_grid_kernel_step(waves=2)[3]))
                cl.engine.run()
                # Wave 0 ran at 1x; wave 1 started after the edge at 2x.
                assert op.finished_at == 8 * GRID + 2 * 8 * GRID


def test_a_plan_covers_only_launches_booked_after_install():
    """A launch booked before ``install``, here queued behind a delay and
    so not started yet, keeps its healthy timing; one booked after
    replays the plan."""
    cl = Cluster(1)
    dev, eng = cl.device(0), cl.engine
    kspec = _kspec(_grid_kernel_step(waves=2)[3])
    st_ = dev.default_stream
    st_.submit_delay(4 * GRID)
    before = st_.launch(dev, kspec)
    FaultInjector(cl, _plan([("device_slowdown", 0, GRID, 1e6, 2.0)], 1)).install()
    after = st_.launch(dev, kspec)
    eng.run(until=after.finished_at)
    assert (before.started_at, before.finished_at) == (4 * GRID, 20 * GRID)
    assert (after.started_at, after.finished_at) == (20 * GRID, 52 * GRID)


def test_a_traced_launch_takes_no_entry_and_records_its_span():
    """Under a trace a launch is booked as it is untraced: no engine
    entry, the same end, and a kernel span under the launch's trace ref."""
    ends = []
    for ref in (None, TraceRef(0, 0)):
        cl = Cluster(1)
        dev = cl.device(0)
        cl.profiler.active_trace = ref
        op = dev.default_stream.launch(dev, KernelSpec("k", num_blocks=3 * C, bytes_read=1e8))
        cl.profiler.active_trace = None
        cl.engine.run(until=op.finished_at)
        assert cl.engine._seq == 0
        kernel_spans = [s for s in cl.profiler.spans if s.category == "kernel"]
        if ref is None:
            assert kernel_spans == []
        else:
            assert [(s.name, s.t_start, s.t_end, s.trace) for s in kernel_spans] == [
                ("k", 0.0, op.finished_at, ref)
            ]
        ends.append(op.finished_at)
    assert ends[0] == ends[1]


def test_a_traced_span_waits_for_its_end():
    """A traced launch's span is not in ``spans`` until the clock reaches
    its end, and lands after the spans recorded before then."""
    cl = Cluster(1)
    dev, prof, eng = cl.device(0), cl.profiler, cl.engine
    prof.active_trace = TraceRef(0, 0)
    op = dev.default_stream.launch(dev, KernelSpec("k", num_blocks=C, bytes_read=1e8))
    assert prof.spans == []
    eng.call_at(op.finished_at - 1.0, lambda: prof.record_span("a", "x", 0, 0.0, 1.0))
    eng.call_at(op.finished_at, lambda: prof.record_span("b", "x", 0, 0.0, 1.0))
    eng.run()
    assert [s.name for s in prof.spans] == ["a", "k", "b"]
