"""Booked stream ops equal stepped ones bit for bit.

A stream books an op whose end is closed-form when it reaches the head
of the queue: a delay, or a launch on a fault-free device with no active
trace.  A launch on a device a fault plan targets (``fault_free`` False)
or under a trace is stepped by engine callbacks instead.  Through a
healthy run the two paths must give the same floats: every op's start
and end, every join's firing instant and every ``WaveInfo``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.cluster import Cluster
from repro.simgpu.device import V100_SPEC
from repro.simgpu.kernel import KernelSpec
from repro.simgpu.profiler import TraceRef
from repro.simgpu.stream import join

C = V100_SPEC.concurrent_blocks

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
_step = st.one_of(
    st.tuples(st.just("delay"), _device, _stream, st.floats(0.0, 2e5)),
    st.tuples(st.just("kernel"), _device, _stream, _kernel),
    st.tuples(
        st.just("join"),
        st.lists(st.integers(0, 63), max_size=4),
        st.sampled_from([0.0, 1.5, 2e3]),
    ),
    st.tuples(st.just("wait"), st.floats(0.0, 3e5)),
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


def run_program(program, n_devices: int, stepped: bool):
    """Run ``program`` on a fresh cluster; return what it observed.

    ``stepped`` clears every device's ``fault_free`` flag, as installing a
    fault plan does, so its launches step by callbacks through a run
    with no fault window.
    """
    cl = Cluster(n_devices)
    eng = cl.engine
    for dev in cl.devices:
        dev.fault_free = not stepped
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
            join(eng, chosen, after_ns).add_callback(
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


@settings(max_examples=150, deadline=None)
@given(program=st.lists(_step, min_size=1, max_size=14), n_devices=st.integers(2, 3))
def test_booked_equals_stepped(program, n_devices):
    booked = run_program(program, n_devices, stepped=False)
    stepped = run_program(program, n_devices, stepped=True)
    assert booked == stepped


def test_a_fault_free_launch_takes_no_entry_and_a_traced_one_steps():
    """The path is chosen at submit: untraced on a fault-free device the
    launch is booked and takes no entry; under a trace it steps, takes one
    entry at its end and records its kernel span there."""
    ends = []
    for ref in (None, TraceRef(0, 0)):
        cl = Cluster(1)
        dev = cl.device(0)
        cl.profiler.active_trace = ref
        op = dev.default_stream.launch(dev, KernelSpec("k", num_blocks=3 * C, bytes_read=1e8))
        cl.engine.run()
        assert cl.engine._seq == (ref is not None)
        kernel_spans = [s for s in cl.profiler.spans if s.category == "kernel"]
        assert len(kernel_spans) == (ref is not None)
        ends.append(op.finished_at)
    assert ends[0] == ends[1]


def test_join_on_an_op_queued_behind_a_stepped_launch():
    """A delay queued behind a stepped launch is booked when the launch
    ends; a join made before then fires at the delay's end."""
    cl = Cluster(1)
    dev = cl.device(0)
    dev.fault_free = False
    eng = cl.engine
    kernel = dev.default_stream.launch(dev, KernelSpec("k", num_blocks=2 * C, bytes_read=1e8))
    delay = dev.default_stream.submit_delay(5.0)
    assert (delay.started_at, delay.finished_at) == (None, None)
    eng.run_until_event(join(eng, [delay], 1.0))
    assert delay.started_at == kernel.finished_at
    assert eng.now == delay.finished_at + 1.0 == kernel.finished_at + 5.0 + 1.0
