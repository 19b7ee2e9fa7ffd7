"""``repro.simgpu`` — discrete-event multi-GPU system simulator.

The substrate beneath the retrieval backends: devices with a roofline
kernel cost model, CUDA-style streams whose ops a host waits on with one
``join`` event, an NVLink/PCIe/NIC interconnect with FIFO link
contention, and a profiler producing the span breakdowns and
comm-volume counters the paper's figures need.
"""

from .cluster import Cluster, dgx_v100, multinode
from .device import A100_SPEC, Device, DeviceSpec, H100_SPEC, V100_SPEC
from .engine import Engine, Event, SimulationError
from .interconnect import (
    Interconnect,
    Link,
    LinkSpec,
    NIC_SPEC,
    NVLINK_PAIR_SPEC,
    PCIE_SPEC,
    Topology,
    multinode_topology,
    nvlink_dgx1,
    pcie_topology,
    wire_bytes,
)
from .kernel import KernelSpec, WaveInfo, kernel_time, roofline_time
from .memory import Buffer, MemoryPool, OutOfDeviceMemory
from .profiler import Counter, Profiler, Span
from .stream import Stream, StreamLease, StreamOp, StreamPool, join
from .trace import chrome_trace, summarize_spans, write_chrome_trace
from . import units

__all__ = [
    "A100_SPEC",
    "Buffer",
    "Cluster",
    "Counter",
    "Device",
    "DeviceSpec",
    "Engine",
    "Event",
    "H100_SPEC",
    "Interconnect",
    "KernelSpec",
    "Link",
    "LinkSpec",
    "MemoryPool",
    "NIC_SPEC",
    "NVLINK_PAIR_SPEC",
    "OutOfDeviceMemory",
    "PCIE_SPEC",
    "Profiler",
    "SimulationError",
    "Span",
    "Stream",
    "StreamLease",
    "StreamOp",
    "StreamPool",
    "Topology",
    "V100_SPEC",
    "WaveInfo",
    "dgx_v100",
    "kernel_time",
    "multinode",
    "multinode_topology",
    "nvlink_dgx1",
    "pcie_topology",
    "roofline_time",
    "chrome_trace",
    "summarize_spans",
    "units",
    "write_chrome_trace",
    "wire_bytes",
    "join",
]
