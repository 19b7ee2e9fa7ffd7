"""Wave-based kernel execution cost model.

Real GPUs execute a kernel's grid as successive *waves* of thread blocks:
with ``B`` resident blocks per device, a grid of ``G`` blocks runs in
``ceil(G / B)`` waves.  This module times each wave with a roofline model —
``max(bytes / effective_mem_bw, flops / effective_flops)`` — and exposes a
per-wave callback, which is exactly the hook the PGAS fused retrieval needs:
remote writes become visible to the interconnect *as each wave retires*,
not at kernel end.  That progressive availability is the mechanism behind
the paper's fine-grained communication/computation overlap (§III-B) and the
comm-volume-over-time curves of Figs. 7 and 10.

Memory-bound kernels with an empty grid still cost ``min_kernel_ns``: the
latency floor that makes the paper's strong-scaled partitions stop speeding
up beyond 2 GPUs (§IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .device import Device, DeviceSpec
from .engine import ProcessGenerator

__all__ = ["KernelSpec", "WaveInfo", "roofline_time", "kernel_time", "execute_kernel"]

#: Signature of the per-wave hook: called at each wave's retirement time.
WaveCallback = Callable[["WaveInfo"], None]


@dataclass(frozen=True)
class KernelSpec:
    """Workload description of one kernel launch.

    Costs are grid totals; the executor spreads them across waves in
    proportion to the number of blocks per wave (or per-block weights).

    Attributes
    ----------
    name:
        Profiler label.
    num_blocks:
        Grid size in thread blocks.
    bytes_read / bytes_written:
        Total DRAM traffic of the kernel.
    flops:
        Total floating-point work.
    block_weights:
        Optional per-block relative work weights (length ``num_blocks``) for
        jagged workloads — e.g. pooling factors varying per sample.  When
        omitted, blocks are uniform.
    tail_ns:
        Fixed epilogue latency (writeback / teardown).
    stretch_ns:
        Extra body duration distributed across waves in proportion to their
        work — e.g. store-queue backpressure from remote writes in the PGAS
        fused kernel.  Unlike ``tail_ns`` it slows every wave, shifting the
        per-wave message injection times accordingly.
    min_waves_for_peak:
        Occupancy/latency model for gather-heavy kernels: below this many
        waves the kernel cannot keep enough loads in flight to reach its
        roofline throughput, and effective bandwidth scales down as
        ``n_waves / min_waves_for_peak``.  ``0`` disables the derate.
        This is what makes small strong-scaled partitions latency-limited
        (paper §IV-B: "the computation kernel ... is latency-limited beyond
        2 GPUs", ncu showing <60% of both throughputs).
    """

    name: str
    num_blocks: int
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    block_weights: Optional[Sequence[float]] = None
    tail_ns: float = 0.0
    stretch_ns: float = 0.0
    min_waves_for_peak: float = 0.0

    def __post_init__(self) -> None:
        if self.num_blocks < 0:
            raise ValueError(f"num_blocks must be >= 0, got {self.num_blocks}")
        if min(self.bytes_read, self.bytes_written, self.flops, self.tail_ns, self.stretch_ns) < 0:
            raise ValueError("kernel costs must be non-negative")
        if self.block_weights is not None and len(self.block_weights) != self.num_blocks:
            raise ValueError(
                f"block_weights length {len(self.block_weights)} != num_blocks {self.num_blocks}"
            )

    @property
    def total_bytes(self) -> float:
        """Combined DRAM read + write traffic."""
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class WaveInfo:
    """Passed to the per-wave callback at each wave's retirement."""

    index: int  #: wave number, 0-based
    count: int  #: total number of waves in the launch
    t_start: float  #: simulated start time of this wave (ns)
    t_end: float  #: simulated retirement time of this wave (ns)
    fraction: float  #: fraction of the kernel's work done by this wave
    blocks: range  #: grid block indices executed in this wave

    @property
    def is_last(self) -> bool:
        """True for the final wave of the launch."""
        return self.index == self.count - 1


def roofline_time(bytes_total: float, flops: float, spec: DeviceSpec) -> float:
    """Roofline duration of a workload slice on ``spec`` (no floors)."""
    mem_t = bytes_total / spec.effective_mem_bandwidth
    cmp_t = flops / spec.effective_flops
    return max(mem_t, cmp_t)


def _wave_fractions(kspec: KernelSpec, device_spec: DeviceSpec) -> List[float]:
    """Work fraction per wave, honouring per-block weights when present.

    ``reduceat`` sums each wave pairwise rather than left to right; the two
    agree exactly on integer-valued weights (lookup counts), which is what
    every workload passes.
    """
    n = kspec.num_blocks
    if n == 0:
        return []
    wave_starts = np.arange(0, n, device_spec.concurrent_blocks)
    if kspec.block_weights is None:
        # Uniform blocks: each wave does (#blocks in wave) / num_blocks.
        wave_blocks = np.diff(np.append(wave_starts, n))
        return (wave_blocks / n).tolist()
    weights = np.asarray(kspec.block_weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        return [1.0 / len(wave_starts)] * len(wave_starts)
    return (np.add.reduceat(weights, wave_starts) / total).tolist()


def _occupancy_derate(kspec: KernelSpec, device_spec: DeviceSpec) -> float:
    """Throughput fraction achievable at this launch's wave count."""
    if kspec.min_waves_for_peak <= 0 or kspec.num_blocks == 0:
        return 1.0
    n_waves = math.ceil(kspec.num_blocks / device_spec.concurrent_blocks)
    return min(1.0, n_waves / kspec.min_waves_for_peak)


def kernel_time(kspec: KernelSpec, device_spec: DeviceSpec) -> float:
    """Closed-form duration of a kernel (excluding launch overhead).

    Identical to what :func:`execute_kernel` charges; exposed for analytical
    sanity checks in tests and for back-of-envelope calibration.
    """
    body = roofline_time(kspec.total_bytes, kspec.flops, device_spec)
    body /= _occupancy_derate(kspec, device_spec)
    body += kspec.stretch_ns
    return max(device_spec.min_kernel_ns, body + kspec.tail_ns)


def execute_kernel(
    device: Device,
    kspec: KernelSpec,
    on_wave: Optional[WaveCallback] = None,
) -> ProcessGenerator:
    """Process generator executing ``kspec`` on ``device``, wave by wave.

    The kernel's roofline duration is split across waves proportionally to
    per-wave work; ``on_wave`` (if given) runs at each wave's retirement —
    the injection point for PGAS one-sided messages.  The ``min_kernel_ns``
    floor and ``tail_ns`` are charged after the last wave.

    Device fault state stretches the realised schedule: each wave's body
    is scaled by ``device.slowdown`` *sampled at wave start* (a straggler
    window that opens mid-kernel only slows the remaining waves), and a
    ``device.stalled_until`` window freezes progress at wave boundaries.
    :func:`kernel_time` reports the healthy duration, so it diverges from
    the realised time only while a fault is active.
    """
    spec = device.spec
    engine = device.engine
    t0 = engine.now
    fracs = _wave_fractions(kspec, spec)
    body = roofline_time(kspec.total_bytes, kspec.flops, spec)
    body /= _occupancy_derate(kspec, spec)
    body += kspec.stretch_ns
    conc = spec.concurrent_blocks
    n_waves = len(fracs)
    for w, frac in enumerate(fracs):
        if engine.now < device.stalled_until:
            yield engine.timeout(device.stalled_until - engine.now)
        t_start = engine.now
        yield engine.timeout(body * frac * device.slowdown)
        if on_wave is not None:
            lo = w * conc
            hi = min(lo + conc, kspec.num_blocks)
            on_wave(
                WaveInfo(
                    index=w,
                    count=n_waves,
                    t_start=t_start,
                    t_end=engine.now,
                    fraction=frac,
                    blocks=range(lo, hi),
                )
            )
    # Epilogue: tail latency plus whatever is needed to respect the floor.
    if engine.now < device.stalled_until:
        yield engine.timeout(device.stalled_until - engine.now)
    elapsed = engine.now - t0
    remaining = max(spec.min_kernel_ns - elapsed, 0.0) + kspec.tail_ns
    if remaining > 0:
        yield engine.timeout(remaining)
    prof = getattr(device, "profiler", None)
    if prof is not None and prof.active_trace is not None:
        # Traced launches record a per-kernel span for critical-path detail.
        # Guarded on an active trace so untraced runs stay span-identical.
        prof.record_span(kspec.name, "kernel", device.id, t0, engine.now)
    return engine.now - t0
