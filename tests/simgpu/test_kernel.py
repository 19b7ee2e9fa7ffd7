"""Tests for the wave-based kernel cost model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.simgpu.cluster import dgx_v100
from repro.simgpu.device import Device, DeviceSpec, V100_SPEC
from repro.simgpu.engine import Engine
from repro.simgpu.kernel import KernelSpec, kernel_time, roofline_time
from repro.simgpu.stream import join
from tests.simgpu import stepped


def run_kernel(kspec, spec=V100_SPEC, on_wave=None):
    dev = Device(Engine(), 0, spec)
    op = dev.default_stream.launch(dev, kspec, on_wave)
    dev.engine.run_until_event(join(dev.engine, [op]))
    return dev.engine.now


class TestRoofline:
    def test_memory_bound(self):
        # 1 GB at 900*0.57 GB/s ≈ 1.949 ms
        t = roofline_time(1e9, 0.0, V100_SPEC)
        assert t == pytest.approx(1e9 / (900 * 0.57), rel=1e-9)

    def test_compute_bound(self):
        # All flops, no bytes: dominated by flop term.
        t = roofline_time(0.0, 1e9, V100_SPEC)
        assert t == pytest.approx(1e9 / (15700 * 0.38), rel=1e-9)

    def test_max_of_the_two(self):
        mem = roofline_time(1e9, 0.0, V100_SPEC)
        cmp = roofline_time(0.0, 1e12, V100_SPEC)
        both = roofline_time(1e9, 1e12, V100_SPEC)
        assert both == max(mem, cmp)


class TestKernelTime:
    def test_empty_kernel_costs_floor(self):
        k = KernelSpec("empty", num_blocks=0)
        assert kernel_time(k, V100_SPEC) == V100_SPEC.min_kernel_ns

    def test_tiny_kernel_hits_floor(self):
        k = KernelSpec("tiny", num_blocks=1, bytes_read=64.0)
        assert kernel_time(k, V100_SPEC) == V100_SPEC.min_kernel_ns

    def test_large_kernel_above_floor(self):
        k = KernelSpec("big", num_blocks=10_000, bytes_read=1e10)
        expect = roofline_time(1e10, 0.0, V100_SPEC)
        assert kernel_time(k, V100_SPEC) == pytest.approx(expect)

    def test_tail_added(self):
        k = KernelSpec("t", num_blocks=1000, bytes_read=1e9, tail_ns=12345.0)
        base = KernelSpec("b", num_blocks=1000, bytes_read=1e9)
        assert kernel_time(k, V100_SPEC) == kernel_time(base, V100_SPEC) + 12345.0

    def test_stretch_added(self):
        k = KernelSpec("s", num_blocks=1000, bytes_read=1e9, stretch_ns=9999.0)
        base = KernelSpec("b", num_blocks=1000, bytes_read=1e9)
        assert kernel_time(k, V100_SPEC) == kernel_time(base, V100_SPEC) + 9999.0

    def test_execute_matches_kernel_time(self):
        k = KernelSpec("x", num_blocks=3000, bytes_read=2e9, bytes_written=1e8, flops=1e9)
        assert run_kernel(k) == pytest.approx(kernel_time(k, V100_SPEC), rel=1e-9)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("bad", num_blocks=1, bytes_read=-1.0)
        with pytest.raises(ValueError):
            KernelSpec("bad", num_blocks=-1)

    @pytest.mark.parametrize("field", ["bytes_read", "bytes_written", "flops", "tail_ns", "stretch_ns"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_cost_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            KernelSpec("bad", num_blocks=1, **{field: value})

    def test_block_weights_length_checked(self):
        with pytest.raises(ValueError, match="block_weights"):
            KernelSpec("bad", num_blocks=3, block_weights=[1.0, 2.0])


class TestOccupancyDerate:
    def test_few_waves_slower(self):
        conc = V100_SPEC.concurrent_blocks
        small = KernelSpec("s", num_blocks=conc * 4, bytes_read=1e9, min_waves_for_peak=16.0)
        nolimit = KernelSpec("n", num_blocks=conc * 4, bytes_read=1e9)
        t_derated = kernel_time(small, V100_SPEC)
        t_full = kernel_time(nolimit, V100_SPEC)
        assert t_derated == pytest.approx(t_full * 16.0 / 4.0)

    def test_enough_waves_no_penalty(self):
        conc = V100_SPEC.concurrent_blocks
        k = KernelSpec("k", num_blocks=conc * 32, bytes_read=1e9, min_waves_for_peak=16.0)
        base = KernelSpec("b", num_blocks=conc * 32, bytes_read=1e9)
        assert kernel_time(k, V100_SPEC) == kernel_time(base, V100_SPEC)

    def test_latency_limited_flattens_scaling(self):
        """Halving work below the wave threshold does not halve runtime —
        the strong-scaling flattening of paper §IV-B."""
        conc = V100_SPEC.concurrent_blocks
        full = KernelSpec("f", num_blocks=conc * 8, bytes_read=2e9, min_waves_for_peak=24.0)
        half = KernelSpec("h", num_blocks=conc * 4, bytes_read=1e9, min_waves_for_peak=24.0)
        t_full = kernel_time(full, V100_SPEC)
        t_half = kernel_time(half, V100_SPEC)
        assert t_half == pytest.approx(t_full)  # perfectly flat in this regime


class TestWaves:
    def test_wave_count(self):
        conc = V100_SPEC.concurrent_blocks
        waves = []
        k = KernelSpec("w", num_blocks=conc * 3 + 1, bytes_read=1e9)
        run_kernel(k, on_wave=waves.append)
        assert len(waves) == 4
        assert [w.index for w in waves] == [0, 1, 2, 3]
        assert all(w.count == 4 for w in waves)

    def test_wave_blocks_partition_grid(self):
        conc = V100_SPEC.concurrent_blocks
        waves = []
        k = KernelSpec("w", num_blocks=conc * 2 + 5, bytes_read=1e9)
        run_kernel(k, on_wave=waves.append)
        seen = []
        for w in waves:
            seen.extend(w.blocks)
        assert seen == list(range(conc * 2 + 5))

    def test_wave_fractions_sum_to_one(self):
        waves = []
        k = KernelSpec("w", num_blocks=5000, bytes_read=1e9)
        run_kernel(k, on_wave=waves.append)
        assert sum(w.fraction for w in waves) == pytest.approx(1.0)

    def test_weighted_waves_take_proportional_time(self):
        conc = V100_SPEC.concurrent_blocks
        # Two waves: first has all the work.
        weights = [1.0] * conc + [0.0] * conc
        k = KernelSpec("w", num_blocks=2 * conc, bytes_read=1e9, block_weights=weights)
        waves = []
        run_kernel(k, on_wave=waves.append)
        assert waves[0].fraction == pytest.approx(1.0)
        assert waves[1].fraction == pytest.approx(0.0)
        assert waves[0].t_end - waves[0].t_start > 0
        assert waves[1].t_end - waves[1].t_start == pytest.approx(0.0)

    def test_zero_weight_total_falls_back_to_uniform(self):
        conc = V100_SPEC.concurrent_blocks
        k = KernelSpec(
            "w", num_blocks=2 * conc, bytes_read=1e9, block_weights=[0.0] * (2 * conc)
        )
        waves = []
        run_kernel(k, on_wave=waves.append)
        assert [w.fraction for w in waves] == [0.5, 0.5]

    def test_wave_times_monotone(self):
        waves = []
        k = KernelSpec("w", num_blocks=4000, bytes_read=3e9)
        run_kernel(k, on_wave=waves.append)
        ends = [w.t_end for w in waves]
        assert ends == sorted(ends)


@given(
    num_blocks=st.integers(min_value=0, max_value=20_000),
    bytes_read=st.floats(min_value=0, max_value=1e11),
    flops=st.floats(min_value=0, max_value=1e12),
)
def test_kernel_time_positive_and_monotone_in_bytes(num_blocks, bytes_read, flops):
    k = KernelSpec("p", num_blocks=num_blocks, bytes_read=bytes_read, flops=flops)
    t = kernel_time(k, V100_SPEC)
    assert t >= V100_SPEC.min_kernel_ns
    bigger = KernelSpec("p2", num_blocks=num_blocks, bytes_read=bytes_read * 2 + 1, flops=flops)
    assert kernel_time(bigger, V100_SPEC) >= t


def launch_once(kspec, how):
    """Launch ``kspec`` on a fresh device's stream; return the finished op.

    ``how`` is ``"booked"`` (a healthy device), ``"replayed"`` (a plan
    whose only window opens long after the kernel ends, so the launch is
    timed through the device's fault edges) or ``"stepped"`` (the
    wave-by-wave oracle of ``stepped.py``).
    """
    with pytest.MonkeyPatch.context() as mp:
        cl = dgx_v100(1)
        dev = cl.device(0)
        if how == "stepped":
            stepped.step_launches(cl, mp)
        if how != "booked":
            plan = FaultPlan((FaultEvent("device_slowdown", 1e12, 2e12, device=0, severity=2.0),))
            FaultInjector(cl, plan).install()
        assert (dev._edges is None) == (how == "booked")
        op = dev.default_stream.launch(dev, kspec)
        cl.engine.run_until_event(stepped.join(cl.engine, [op]))
    return op


C = V100_SPEC.concurrent_blocks


@settings(max_examples=150, deadline=None)
@given(
    waves=st.integers(min_value=0, max_value=6),
    offset=st.integers(min_value=-2, max_value=2),
    weight_seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
    integral=st.booleans(),
    bytes_read=st.floats(min_value=0, max_value=1e10),
    tail_ns=st.floats(min_value=0, max_value=1e5),
    stretch_ns=st.floats(min_value=0, max_value=1e5),
    min_waves_for_peak=st.floats(min_value=0, max_value=32),
)
def test_closed_form_equals_wave_stepping(
    waves, offset, weight_seed, integral, bytes_read, tail_ns, stretch_ns, min_waves_for_peak
):
    """A launch on a healthy device ends bit-equal to one timed through a
    fault plan's edges and to the stepped oracle, through a healthy run."""
    n = max(waves * C + offset, 0)
    weights = None
    if weight_seed is not None:
        rng = np.random.default_rng(weight_seed)
        weights = rng.integers(0, 64, n).astype(float) if integral else rng.random(n)
    kspec = KernelSpec(
        "k", num_blocks=n, bytes_read=bytes_read, block_weights=weights, tail_ns=tail_ns,
        stretch_ns=stretch_ns, min_waves_for_peak=min_waves_for_peak,
    )
    ops = [launch_once(kspec, how) for how in ("booked", "replayed", "stepped")]
    assert len({op.finished_at for op in ops}) == 1
    assert {op.started_at for op in ops} == {0.0}


class TestFaultWindowMidKernel:
    """Windows opening inside a kernel; the ends were captured from the
    generator-based kernel model, one process per launch."""

    KSPEC = KernelSpec("k", num_blocks=4 * C + 7, bytes_read=3e8, tail_ns=1.5e3)

    def realised_end(self, event):
        cl = dgx_v100(1)
        dev = cl.device(0)
        FaultInjector(cl, FaultPlan((event,))).install()
        op = dev.default_stream.launch(dev, self.KSPEC)
        cl.engine.run()
        assert op.started_at == 0.0
        return op.finished_at

    def test_slowdown_stretches_only_later_waves(self):
        ev = FaultEvent("device_slowdown", 100e3, 1e6, device=0, severity=2.5)
        assert self.realised_end(ev) == 1242396.0330966357

    def test_stall_holds_a_wave_boundary(self):
        ev = FaultEvent("device_stall", 140e3, 200e3, device=0)
        assert self.realised_end(ev) == 640495.1635353805
