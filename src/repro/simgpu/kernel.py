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

:func:`_timeline` is the one wave model, and every launch is booked at
its start (:func:`_book_launch`): it takes no engine entry, or one per
wave end with a per-wave hook, unless the hook takes every wave end at
once as a *run* (``take_run``, see :data:`WaveCallback`).  On a device a
fault plan targets, :func:`_replay` times the waves through the slowdown
and stall edges the plan registered on the device, sampling the device
where a wave-by-wave run would: a stall check at each wave boundary and
the slowdown at each wave's start.

Memory-bound kernels with an empty grid still cost ``min_kernel_ns``: the
latency floor that makes the paper's strong-scaled partitions stop speeding
up beyond 2 GPUs (§IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .profiler import Span

if TYPE_CHECKING:  # device.py imports this module (through stream.py) at load
    from .device import Device, DeviceSpec, Edge

__all__ = ["KernelSpec", "WaveInfo", "roofline_time", "kernel_time"]

#: Signature of the per-wave hook: called at each wave's retirement time.
#: A hook object may also define ``take_run(ends, fracs)``: a launch hands
#: it every wave's end and work fraction at its start, and when it returns
#: True the launch schedules no wave ends (the PGAS fused kernels defer
#: their writes this way); when it returns False, or when the launch is
#: traced, the hook is called per wave.
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


def _body_ns(kspec: KernelSpec, spec: DeviceSpec) -> float:
    """The kernel body: roofline time, occupancy derate, then the stretch."""
    body = roofline_time(kspec.total_bytes, kspec.flops, spec)
    body /= _occupancy_derate(kspec, spec)
    return body + kspec.stretch_ns


def kernel_time(kspec: KernelSpec, device_spec: DeviceSpec) -> float:
    """Closed-form duration of a kernel (excluding launch overhead).

    What a launch charges on a healthy device, up to float rounding;
    exposed for analytical sanity checks and back-of-envelope calibration.
    """
    return max(device_spec.min_kernel_ns, _body_ns(kspec, device_spec) + kspec.tail_ns)


def _timeline(
    device: Device, kspec: KernelSpec, t0: float
) -> Tuple[List[float], Optional[List[float]], List[float], float]:
    """The one wave model: a launch on ``device`` that starts at ``t0``.

    Returns ``(fracs, starts, ends, end)``: each wave's work fraction,
    where each wave starts and, last, where the epilogue starts (None
    when each starts where the last ended, the first at ``t0``), each
    wave's end (``t = t + body*frac*slowdown``, in wave order) and the
    launch's end after the floor and the tail.  On a device with no fault
    edges the slowdown is the device's current one; otherwise
    :func:`_replay` walks the edges.
    """
    spec = device.spec
    fracs = _wave_fractions(kspec, spec)  # module lookup: the perf tracer patches it
    body = _body_ns(kspec, spec)
    if device._edges is not None:
        return _replay(device, kspec, fracs, body, t0)
    slowdown = device.slowdown
    ends = []
    t = t0
    for frac in fracs:
        t = t + body * frac * slowdown
        ends.append(t)
    remaining = _epilogue_ns(spec, kspec, t0, t)
    return fracs, None, ends, t + remaining if remaining > 0 else t


def _replay(
    device: Device, kspec: KernelSpec, fracs: List[float], body: float, t0: float
) -> Tuple[List[float], List[float], List[float], float]:
    """:func:`_timeline` through the fault edges registered on ``device``.

    The launch samples the device at each wave boundary ``b``: one stall
    check (a wave held by ``stalled_until`` starts at
    ``b + (stalled_until - b)``, with no second check there), then the
    slowdown at the wave's start.  The last boundary gets the stall check
    before the floor and the tail.  Each sample sees the device's state
    with every edge at or before its instant applied, in ``(instant,
    seq)`` order, as the edges' entries would have run by then; a sample
    at ``t0`` taken now, in the entry that books the launch, sees the
    live state alone.
    """
    slowdown, stalled_until = device.slowdown, device.stalled_until
    edges = device._edges
    i = 0
    live = t0 == device.engine.now
    starts, ends = [], []
    t = t0
    for w in range(len(fracs) + 1):
        if not live:
            i, slowdown, stalled_until = _catch_up(edges, i, t, slowdown, stalled_until)
        if t < stalled_until:
            t = t + (stalled_until - t)
            i, slowdown, stalled_until = _catch_up(edges, i, t, slowdown, stalled_until)
        live = False
        starts.append(t)
        if w == len(fracs):
            break
        t = t + body * fracs[w] * slowdown
        ends.append(t)
    remaining = _epilogue_ns(device.spec, kspec, t0, t)
    return fracs, starts, ends, t + remaining if remaining > 0 else t


def _catch_up(
    edges: List[Edge], i: int, t: float, slowdown: float, stalled_until: float
) -> Tuple[int, float, float]:
    """Apply ``edges[i:]`` up to instant ``t`` to the state; return the
    next edge's index and the state."""
    while i < len(edges) and edges[i][0] <= t:
        slowdown, stalled_until = edges[i][2](slowdown, stalled_until)
        i += 1
    return i, slowdown, stalled_until


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

    Under an active trace the launch records a ``"kernel"`` span under
    the trace ref of now, deferred to its end
    (:meth:`Profiler.defer_span <repro.simgpu.profiler.Profiler.defer_span>`)
    from where the epilogue starts: here, in the last wave's entry or,
    through fault edges, in one entry of its own.  Its hook is offered no
    run, so each wave's writes record their link spans in the wave's
    own entry.
    """
    fracs, starts, ends, end = _timeline(device, kspec, t0)
    prof = device.profiler
    span = None
    if prof is not None and prof.active_trace is not None:
        span = Span(kspec.name, "kernel", device.id, t0, end, prof.active_trace)
    waves = None
    if on_wave is not None and fracs:
        take_run = getattr(on_wave, "take_run", None)
        if span is not None or take_run is None or not take_run(ends, fracs):
            waves = _Waves(device, kspec, on_wave, fracs, starts or [t0, *ends[:-1]], ends)
            call_at = device.engine.call_at
            for t in ends:
                call_at(t, waves._wave_end)
    if span is not None:
        engine = device.engine
        if starts is not None and starts[-1] > engine.now:
            # Through fault edges the epilogue starts in an entry of its own.
            engine.call_at(starts[-1], partial(prof.defer_span, span))
        elif waves is not None:
            waves.span = span
        else:
            prof.defer_span(span)
    return end


class _Waves:
    """The wave ends of a booked launch with a per-wave hook.

    A traced launch's kernel ``span``, if set, is deferred from the last
    wave's entry, right after its hook.
    """

    __slots__ = ("prof", "conc", "kspec", "on_wave", "fracs", "starts", "ends", "span", "w")

    def __init__(self, device: Device, kspec: KernelSpec, on_wave: WaveCallback,
                 fracs: List[float], starts: List[float], ends: List[float]):
        self.prof, self.conc = device.profiler, device.spec.concurrent_blocks
        self.kspec, self.on_wave, self.fracs = kspec, on_wave, fracs
        self.starts, self.ends, self.w = starts, ends, 0
        self.span: Optional[Span] = None

    def _wave_end(self) -> None:
        # The entries run in wave order: the ends never decrease, and a tie
        # goes by seq, which grows along the loop that scheduled them.
        w, conc, n = self.w, self.conc, len(self.fracs)
        blocks = range(w * conc, min((w + 1) * conc, self.kspec.num_blocks))
        self.on_wave(WaveInfo(w, n, self.starts[w], self.ends[w], self.fracs[w], blocks))
        self.w = w + 1
        if self.w == n and self.span is not None:
            self.prof.defer_span(self.span)
