"""Simulated GPU device model.

A :class:`Device` bundles a hardware description (:class:`DeviceSpec`), a
memory allocator, and a set of execution streams.  It does not execute real
GPU code; kernels are timed by the roofline cost model in
:mod:`repro.simgpu.kernel`, and their *functional* effect (actual numpy
arrays) is carried by the buffers in :mod:`repro.simgpu.memory`.

The default spec is the V100-SXM2-32GB of the paper's DGX testbed; the
memory/compute efficiency factors come straight from the paper's ``ncu``
measurements of the embedding-retrieval kernel (§IV-B: 57% memory
throughput, 38% compute throughput).

A device's fault state (kernel slowdown, stall window, permanent failure)
is set by a fault plan's edges.  The slowdown and stall edges are also
registered on the device when the plan is installed, so a launch booked
afterwards replays them to time its waves (:func:`~repro.simgpu.kernel._replay`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .engine import Engine
from .memory import MemoryPool
from .stream import Stream
from .units import GiB, gbps, us

__all__ = ["DeviceSpec", "Device", "V100_SPEC", "A100_SPEC", "H100_SPEC"]

#: A fault edge: ``(instant, seq, op)``, ``seq`` being its engine entry's
#: (so edges sort in the order their entries run) and ``op`` its effect,
#: ``(slowdown, stalled_until)`` before -> after.
Edge = Tuple[float, int, Callable[[float, float], Tuple[float, float]]]


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware description of a simulated GPU.

    Attributes
    ----------
    name:
        Human-readable model name.
    sm_count:
        Number of streaming multiprocessors; with ``max_blocks_per_sm`` this
        determines how many thread blocks run concurrently (one *wave*).
    clock_ghz:
        SM clock; used to convert cycle-denominated costs to time.
    mem_bytes:
        HBM capacity; allocations beyond this raise the simulator's OOM.
    mem_bandwidth:
        Peak HBM bandwidth in bytes/ns (== GB/s).
    mem_efficiency:
        Achieved fraction of peak bandwidth for gather-heavy kernels.  The
        paper measured 57% for the EMB retrieval kernel.
    flops_per_ns:
        Peak FP32 throughput in FLOPs per nanosecond (== GFLOP/s).
    compute_efficiency:
        Achieved fraction of peak FLOPs (paper: 38%).
    max_blocks_per_sm:
        Concurrent resident blocks per SM for the kernel occupancy model.
    kernel_launch_overhead_ns:
        Host-side latency from launch call to first instruction.
    sync_overhead_ns:
        Cost of a stream/device synchronisation observed by the host.
    min_kernel_ns:
        Floor on any kernel's duration: even an empty kernel occupies the
        device for scheduling + teardown.  This is what makes tiny
        strong-scaled partitions *latency-limited* (paper §IV-B).
    """

    name: str = "V100-SXM2-32GB"
    sm_count: int = 80
    clock_ghz: float = 1.53
    mem_bytes: int = 32 * GiB
    mem_bandwidth: float = gbps(900)
    mem_efficiency: float = 0.57
    flops_per_ns: float = 15_700.0  # 15.7 TFLOP/s FP32
    compute_efficiency: float = 0.38
    max_blocks_per_sm: int = 8
    kernel_launch_overhead_ns: float = 6 * us
    sync_overhead_ns: float = 8 * us
    min_kernel_ns: float = 4 * us

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ValueError("sm_count must be positive")
        if not (0.0 < self.mem_efficiency <= 1.0):
            raise ValueError(f"mem_efficiency out of (0, 1]: {self.mem_efficiency}")
        if not (0.0 < self.compute_efficiency <= 1.0):
            raise ValueError(f"compute_efficiency out of (0, 1]: {self.compute_efficiency}")
        if self.mem_bytes <= 0 or self.mem_bandwidth <= 0 or self.flops_per_ns <= 0:
            raise ValueError("capacities and throughputs must be positive")

    @property
    def concurrent_blocks(self) -> int:
        """Thread blocks resident per wave across the whole device."""
        return self.sm_count * self.max_blocks_per_sm

    @property
    def effective_mem_bandwidth(self) -> float:
        """Achieved HBM bandwidth for the retrieval-style access pattern."""
        return self.mem_bandwidth * self.mem_efficiency

    @property
    def effective_flops(self) -> float:
        """Achieved FP32 throughput."""
        return self.flops_per_ns * self.compute_efficiency

    def with_memory(self, mem_bytes: int) -> "DeviceSpec":
        """A copy of this spec with a different HBM capacity."""
        return replace(self, mem_bytes=mem_bytes)


V100_SPEC = DeviceSpec()

A100_SPEC = DeviceSpec(
    name="A100-SXM4-40GB",
    sm_count=108,
    clock_ghz=1.41,
    mem_bytes=40 * GiB,
    mem_bandwidth=gbps(1555),
    flops_per_ns=19_500.0,
)

H100_SPEC = DeviceSpec(
    name="H100-SXM5-80GB",
    sm_count=132,
    clock_ghz=1.83,
    mem_bytes=80 * GiB,
    mem_bandwidth=gbps(3350),
    flops_per_ns=67_000.0,
)


class Device:
    """One simulated GPU: spec + memory pool + streams.

    Devices are created by :class:`repro.simgpu.cluster.Cluster`; user code
    rarely instantiates them directly.
    """

    def __init__(
        self,
        engine: Engine,
        device_id: int,
        spec: DeviceSpec = V100_SPEC,
        peers: Iterable[int] = (),
    ):
        if device_id < 0:
            raise ValueError(f"device_id must be non-negative, got {device_id}")
        # the devices this one may load from and store to directly
        # (the NVLink peer map); the cluster reads them off the topology
        self._peers: Set[int] = set(peers)
        if device_id in self._peers:
            raise ValueError("a device is always its own peer")
        self.engine = engine
        self.id = device_id
        self.spec = spec
        self.memory = MemoryPool(capacity=spec.mem_bytes, device_id=device_id)
        self._streams: Dict[str, Stream] = {}
        #: multiplicative kernel service-time factor (>= 1 while a
        #: "straggler" fault window is active; exactly 1.0 when healthy)
        self.slowdown = 1.0
        #: transient-stall window end: kernels make no progress at wave
        #: boundaries before this absolute time (-inf when healthy)
        self.stalled_until = float("-inf")
        # Registered fault edges whose entries have not run, in engine
        # order; None until a fault plan targets the device.
        self._edges: Optional[List[Edge]] = None
        #: absolute time of a permanent ``device_down`` failure (+inf when
        #: the device has never failed); unlike stalls this never reverts
        self.down_since = float("inf")
        #: cluster profiler, attached by Cluster so traced kernel launches
        #: can record per-kernel spans (None when running device-standalone)
        self.profiler = None

    # -- fault state -------------------------------------------------------------

    def add_edge(self, edge: Edge) -> None:
        """Register a fault edge, whose entry calls :meth:`run_edge`; a
        launch booked from now on replays it (:func:`repro.simgpu.kernel._replay`)."""
        if self._edges is None:
            self._edges = []
        insort(self._edges, edge)

    def run_edge(self) -> None:
        """Apply the earliest registered edge to the live state: its entry
        is the one running."""
        _, _, op = self._edges.pop(0)
        self.slowdown, self.stalled_until = op(self.slowdown, self.stalled_until)

    def mark_down(self, t: float) -> None:
        """Record a permanent failure at absolute time ``t`` (first one wins)."""
        self.down_since = min(self.down_since, t)

    @property
    def is_down(self) -> bool:
        """True once the device has permanently failed (never reverts)."""
        return self.engine.now >= self.down_since

    # -- streams ---------------------------------------------------------------

    def stream(self, name: str = "default") -> Stream:
        """Get (creating on first use) a named in-order stream."""
        st = self._streams.get(name)
        if st is None:
            st = Stream(self, name)
            self._streams[name] = st
        return st

    @property
    def default_stream(self) -> Stream:
        """The device's default stream (CUDA's stream 0 analogue)."""
        return self.stream("default")

    # -- peer access -------------------------------------------------------------

    def can_access_peer(self, other_id: int) -> bool:
        """True if one-sided access to ``other_id`` has been enabled."""
        return other_id == self.id or other_id in self._peers

    def can_access_peers(self, other_ids: Iterable[int]) -> bool:
        """True if one-sided access to every *other* device in ``other_ids``
        has been enabled; unlike :meth:`can_access_peer`, this device's own
        id counts as no access (a remote write to self is not remote)."""
        return self._peers.issuperset(other_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.id} {self.spec.name} {self.memory.used / GiB:.2f}GiB used>"
