"""Tests for cluster assembly and device specs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.simgpu import (
    A100_SPEC,
    Cluster,
    DeviceSpec,
    H100_SPEC,
    V100_SPEC,
    dgx_v100,
    join,
    multinode,
    nvlink_dgx1,
    pcie_topology,
)
from repro.simgpu.units import GiB


class TestDeviceSpec:
    def test_v100_defaults_match_paper_testbed(self):
        assert V100_SPEC.mem_bytes == 32 * GiB
        assert V100_SPEC.mem_bandwidth == 900.0
        assert V100_SPEC.mem_efficiency == pytest.approx(0.57)  # paper ncu
        assert V100_SPEC.compute_efficiency == pytest.approx(0.38)  # paper ncu
        assert V100_SPEC.sm_count == 80

    def test_concurrent_blocks(self):
        assert V100_SPEC.concurrent_blocks == 80 * 8

    def test_effective_bandwidth(self):
        assert V100_SPEC.effective_mem_bandwidth == pytest.approx(900 * 0.57)

    def test_with_memory(self):
        small = replace(V100_SPEC, mem_bytes=1 * GiB)
        assert small.mem_bytes == GiB
        assert small.sm_count == V100_SPEC.sm_count

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(mem_efficiency=0.0)
        with pytest.raises(ValueError):
            DeviceSpec(mem_efficiency=1.5)
        with pytest.raises(ValueError):
            DeviceSpec(sm_count=0)

    def test_newer_gpus_are_faster(self):
        assert A100_SPEC.mem_bandwidth > V100_SPEC.mem_bandwidth
        assert H100_SPEC.mem_bandwidth > A100_SPEC.mem_bandwidth


class TestCluster:
    def test_dgx_factory(self):
        cl = dgx_v100(4)
        assert cl.n_devices == 4
        assert cl.devices[0].spec is V100_SPEC
        assert cl.topology.name.startswith("nvlink")

    def test_device_ids(self):
        cl = dgx_v100(3)
        assert [d.id for d in cl.devices] == [0, 1, 2]
        assert cl.device(2).id == 2

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Cluster(4, topology=nvlink_dgx1(2))

    def test_run_returns_elapsed(self):
        cl = dgx_v100(1)

        def host(cluster):
            done = cluster.engine.event()
            cluster.then(123.0, done.succeed)
            return done

        assert cl.run(host) == 123.0
        # clock accumulates across runs
        assert cl.run(host) == 123.0
        assert cl.engine.now == 246.0

    def test_barrier_all_waits_for_all_devices(self):
        """A host-side barrier is one join over every device's ops."""
        cl = dgx_v100(2)
        ops = [
            cl.device(0).default_stream.submit_delay(100.0),
            cl.device(1).default_stream.submit_delay(300.0),
        ]

        elapsed = cl.run(lambda cluster: join(cluster.engine, ops))
        assert elapsed >= 300.0

    def test_multinode_has_slow_inter_links(self):
        cl = multinode(2, devices_per_node=2)
        intra = cl.topology.link_spec(0, 1).bandwidth
        inter = cl.topology.link_spec(0, 2).bandwidth
        assert inter < intra

    def test_pcie_node(self):
        assert pcie_topology(2).link_spec(0, 1).bandwidth < 48.0

    def test_memory_isolated_per_device(self):
        cl = dgx_v100(2)
        cl.device(0).memory.alloc((100,))
        assert cl.device(1).memory.used == 0
