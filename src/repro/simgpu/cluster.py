"""Multi-GPU node/cluster assembly.

A :class:`Cluster` owns the simulation engine, the devices, the interconnect,
and the profiler for one experiment — the analogue of "a DGX box plus the
processes driving it".  Factory helpers build the paper's testbed
(:func:`dgx_v100`) and variants for the extension studies.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .device import Device, DeviceSpec, V100_SPEC
from .engine import Engine, ProcessGenerator
from .interconnect import Interconnect, Topology, multinode_topology, nvlink_dgx1, pcie_topology
from .profiler import Profiler

__all__ = ["Cluster", "dgx_v100", "pcie_node", "multinode"]


class Cluster:
    """One simulated multi-GPU system.

    Parameters
    ----------
    n_devices:
        Number of GPUs.
    topology:
        Interconnect topology; defaults to the all-pairs NVLink clique of
        the paper's DGX-1.
    device_spec:
        Hardware spec shared by all devices (homogeneous node).
    """

    def __init__(
        self,
        n_devices: int,
        topology: Optional[Topology] = None,
        device_spec: DeviceSpec = V100_SPEC,
    ):
        if n_devices <= 0:
            raise ValueError(f"n_devices must be positive, got {n_devices}")
        self.engine = Engine()
        self.profiler = Profiler()
        self.topology = topology or nvlink_dgx1(n_devices)
        if self.topology.n_devices != n_devices:
            raise ValueError(
                f"topology is for {self.topology.n_devices} devices, cluster has {n_devices}"
            )
        self.interconnect = Interconnect(self.engine, self.topology, self.profiler)
        self.devices: List[Device] = [
            Device(self.engine, i, device_spec) for i in range(n_devices)
        ]
        for dev in self.devices:
            dev.profiler = self.profiler
        # NVLink peers: enable one-sided access between every connected pair.
        for src in self.devices:
            for dst in self.devices:
                if src.id != dst.id and self.topology.connected(src.id, dst.id):
                    src.enable_peer_access(dst.id)

    @property
    def n_devices(self) -> int:
        """Number of GPUs in the cluster."""
        return len(self.devices)

    def device(self, device_id: int) -> Device:
        """Device by id."""
        return self.devices[device_id]

    # -- running -------------------------------------------------------------------

    def run(self, process_fn: Callable[["Cluster"], ProcessGenerator]) -> float:
        """Run a top-level host process to completion; return elapsed ns.

        ``process_fn(cluster)`` is the "host program": a process generator
        that launches kernels, waits on streams, etc.  The clock is *not*
        reset, so successive ``run`` calls accumulate (100-batch loops).
        """
        t0 = self.engine.now
        proc = self.engine.process(process_fn(self), name="host")
        self.engine.run_until_event(proc)
        return self.engine.now - t0

    def reset_profiler(self) -> None:
        """Clear recorded spans/counters (keeps the clock and memory state)."""
        self.profiler.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cluster {self.n_devices}x{self.devices[0].spec.name} "
            f"topology={self.topology.name}>"
        )


def dgx_v100(n_devices: int = 4) -> Cluster:
    """The paper's testbed: up to 4 NVLink-connected V100s."""
    return Cluster(n_devices, topology=nvlink_dgx1(n_devices), device_spec=V100_SPEC)


def pcie_node(n_devices: int = 4, device_spec: DeviceSpec = V100_SPEC) -> Cluster:
    """A PCIe-only node (ablation: slower fabric)."""
    return Cluster(n_devices, topology=pcie_topology(n_devices), device_spec=device_spec)


def multinode(
    n_nodes: int, devices_per_node: int = 4, device_spec: DeviceSpec = V100_SPEC
) -> Cluster:
    """Multi-node system for the §V aggregator extension."""
    n = n_nodes * devices_per_node
    return Cluster(
        n,
        topology=multinode_topology(n, devices_per_node),
        device_spec=device_spec,
    )
