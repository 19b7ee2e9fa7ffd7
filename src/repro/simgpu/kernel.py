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

:func:`_timeline` is the one wave model.  A launch on a fault-free device
with no active trace is booked at its start (:func:`_book_launch`): it
takes no engine entry, or one per wave end with a per-wave hook, unless
the hook takes every wave end at once as a *run* (``take_run``, see
:data:`WaveCallback`).  Any other launch is stepped by engine callbacks
(:class:`_KernelRun`), which call the hook at each wave end.

Memory-bound kernels with an empty grid still cost ``min_kernel_ns``: the
latency floor that makes the paper's strong-scaled partitions stop speeding
up beyond 2 GPUs (§IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # device.py imports this module (through stream.py) at load
    from .device import Device, DeviceSpec

__all__ = ["KernelSpec", "WaveInfo", "roofline_time", "kernel_time"]

#: Signature of the per-wave hook: called at each wave's retirement time.
#: A hook object may also define ``take_run(ends, fracs)``: a booked launch
#: hands it every wave's end and work fraction at its start, and when it
#: returns True the launch schedules no wave ends (the PGAS fused kernels
#: defer their writes this way); when it returns False, or in a stepped
#: launch, the hook is called per wave.
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
        for name in ("bytes_read", "bytes_written", "flops", "tail_ns", "stretch_ns"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"kernel {name} must be finite and >= 0, got {getattr(self, name)}")
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
    if n <= device_spec.concurrent_blocks:
        return [1.0]  # exact: n / n and w.sum() / w.sum() are both 1.0
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

    What a launch charges on a healthy device, up to float rounding;
    exposed for analytical sanity checks and back-of-envelope calibration.
    """
    body = roofline_time(kspec.total_bytes, kspec.flops, device_spec)
    body /= _occupancy_derate(kspec, device_spec)
    body += kspec.stretch_ns
    return max(device_spec.min_kernel_ns, body + kspec.tail_ns)


def _timeline(
    device: Device, kspec: KernelSpec, t0: float
) -> Tuple[List[float], float, List[float], float]:
    """The one wave model: a launch on ``device`` that starts at ``t0``.

    Returns ``(fracs, body, ends, end)``: each wave's work fraction, the
    kernel body, each wave's end (``t = t + body*frac*slowdown``, in wave
    order, at the device's current slowdown) and the launch's end after
    the floor and the tail.  A booked launch uses all of it.  A stepped
    one (:class:`_KernelRun`) that takes one callback ends at ``ends[-1]``
    plus its epilogue; otherwise it takes each wave from ``fracs`` and
    ``body`` at the wave's own start, at the slowdown of that moment.
    """
    spec = device.spec
    fracs = _wave_fractions(kspec, spec)  # module lookup: the perf tracer patches it
    body = roofline_time(kspec.total_bytes, kspec.flops, spec)
    body /= _occupancy_derate(kspec, spec)
    body += kspec.stretch_ns
    slowdown = device.slowdown
    ends = []
    t = t0
    for frac in fracs:
        t = t + body * frac * slowdown
        ends.append(t)
    remaining = _epilogue_ns(spec, kspec, t0, t)
    return fracs, body, ends, t + remaining if remaining > 0 else t


def _epilogue_ns(spec: DeviceSpec, kspec: KernelSpec, t0: float, t: float) -> float:
    """The floor and the tail of a launch that started at ``t0`` and whose
    last wave ended at ``t``."""
    return max(spec.min_kernel_ns - (t - t0), 0.0) + kspec.tail_ns


def _book_launch(
    device: Device, kspec: KernelSpec, on_wave: Optional[WaveCallback], t0: float
) -> float:
    """Book a launch that starts at ``t0``; return its end.

    Without ``on_wave``, or when its ``take_run`` takes the wave ends and
    fractions, this schedules nothing.  Otherwise each wave end is one
    engine entry that runs ``on_wave``, all scheduled here in wave order:
    a write a wave issues then falls before or after another entry at
    the same instant by that entry's ``seq`` alone, which is what lets a
    deferred run (``take_run``) order its writes without entries.
    """
    fracs, _, ends, end = _timeline(device, kspec, t0)
    if on_wave is not None and fracs:
        take_run = getattr(on_wave, "take_run", None)
        if take_run is None or not take_run(ends, fracs):
            _Waves(device, kspec, on_wave, fracs, ends, t0).schedule()
    return end


class _Waves:
    """The wave ends of a booked launch with a per-wave hook."""

    __slots__ = ("engine", "kspec", "conc", "on_wave", "fracs", "ends", "t_start", "w")

    def __init__(self, device: Device, kspec: KernelSpec, on_wave: WaveCallback,
                 fracs: List[float], ends: List[float], t0: float):
        self.engine, self.kspec, self.conc = device.engine, kspec, device.spec.concurrent_blocks
        self.on_wave, self.fracs, self.ends, self.t_start, self.w = on_wave, fracs, ends, t0, 0

    def schedule(self) -> None:
        call_at, wave_end = self.engine.call_at, self._wave_end
        for t in self.ends:
            call_at(t, wave_end)

    def _wave_end(self) -> None:
        # The entries run in wave order: the ends never decrease, and a tie
        # goes by seq, which grows along the loop in schedule().
        w, conc, t_end = self.w, self.conc, self.ends[self.w]
        blocks = range(w * conc, min((w + 1) * conc, self.kspec.num_blocks))
        self.on_wave(WaveInfo(w, len(self.fracs), self.t_start, t_end, self.fracs[w], blocks))
        self.t_start, self.w = t_end, w + 1


class _KernelRun:
    """One stepped kernel launch, driven by engine callbacks (DESIGN.md §17).

    A stream steps a launch instead of booking it on a device a fault plan
    targets, and while a trace is active.  With ``on_wave``, or on a
    targeted device, it steps wave by wave: ``device.slowdown`` is sampled
    at each wave start, ``on_wave`` runs at each wave's retirement and a
    ``device.stalled_until`` window holds wave boundaries.  Otherwise it
    takes one callback, at the end :func:`_timeline` computes.  ``done()``
    runs once the floor and the tail are charged.
    """

    __slots__ = ("device", "kspec", "on_wave", "done", "fracs", "body", "t0", "t_start", "w")

    def __init__(self, device: Device, kspec: KernelSpec, on_wave: Optional[WaveCallback],
                 done: Callable[[], object]):
        self.device, self.kspec, self.on_wave, self.done = device, kspec, on_wave, done
        self.t0 = t0 = device.engine.now
        self.fracs, self.body, ends, _ = _timeline(device, kspec, t0)
        self.w = 0
        if on_wave is None and device.fault_free:
            self._epilogue(ends[-1] if ends else t0)
        else:
            self._boundary()

    def _boundary(self) -> None:
        """Sit out any stall, then run the next wave or the epilogue."""
        engine = self.device.engine
        now = engine.now
        if now < self.device.stalled_until:
            engine.call_at(now + (self.device.stalled_until - now), self._resume)
        else:
            self._resume()

    def _resume(self) -> None:
        engine = self.device.engine
        if self.w == len(self.fracs):
            return self._epilogue(engine.now)
        self.t_start = now = engine.now
        engine.call_at(now + self.body * self.fracs[self.w] * self.device.slowdown, self._wave_end)

    def _wave_end(self) -> None:
        if self.on_wave is not None:
            w, conc = self.w, self.device.spec.concurrent_blocks
            blocks = range(w * conc, min((w + 1) * conc, self.kspec.num_blocks))
            now = self.device.engine.now
            self.on_wave(WaveInfo(w, len(self.fracs), self.t_start, now, self.fracs[w], blocks))
        self.w += 1
        self._boundary()

    def _epilogue(self, t: float) -> None:
        """Charge the floor and the tail after the last wave, which ended at ``t``."""
        remaining = _epilogue_ns(self.device.spec, self.kspec, self.t0, t)
        if remaining > 0:
            t = t + remaining
        elif t == self.device.engine.now:
            return self._finish()
        self.device.engine.call_at(t, self._finish)

    def _finish(self) -> None:
        device = self.device
        now = device.engine.now
        prof = device.profiler
        if prof is not None and prof.active_trace is not None:
            # Traced launches record a per-kernel span for critical-path detail.
            # Guarded on an active trace so untraced runs stay span-identical.
            prof.record_span(self.kspec.name, "kernel", device.id, self.t0, now)
        self.done()
