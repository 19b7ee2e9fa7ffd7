"""Building a host: one weight-accounting step per device, one topology row
per source.

Call-count tripwires pin the setup paths (a per-pair or per-table loop
coming back fails here without any timing), and the row-read derivations
are checked against the pairwise ones they replace.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.comm.hier import HierSpec
from repro.core.pgas_retrieval import first_hop_table
from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import WorkloadConfig
from repro.simgpu import (
    NIC_SPEC,
    NVLINK_PAIR_SPEC,
    Cluster,
    Device,
    MemoryPool,
    Topology,
    dgx_v100,
    multinode_topology,
    nvlink_dgx1,
    pcie_topology,
)

SCALE_G64 = WorkloadConfig(num_tables=1024, dim=64, batch_size=2048, max_pooling=32, seed=11)


def _count_calls(monkeypatch, *methods):
    """Count every call of each ``(class, name)`` method from now on."""
    counts: Counter = Counter()
    for owner, name in methods:
        original, key = getattr(owner, name), f"{owner.__name__}.{name}"

        def counted(*args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_a_64_gpu_cluster_reads_one_row_per_source(monkeypatch):
    """Peer access comes from 64 ``row_specs`` reads handed to the devices
    as they are built, not 4032 pairwise ``connected``/``link_spec``
    queries and one ``enable_peer_access`` call per pair."""
    counts = _count_calls(
        monkeypatch, (Topology, "link_spec"), (Topology, "connected"), (Topology, "row_specs")
    )
    cluster = dgx_v100(64)
    assert counts == Counter({"Topology.row_specs": 64})
    assert not hasattr(Device, "enable_peer_access")
    assert all(dev.can_access_peers(set(range(64)) - {dev.id}) for dev in cluster.devices)


def test_a_64_gpu_embedding_registers_weights_in_one_step_per_device(monkeypatch):
    """1024 tables on 64 GPUs: 64 ``alloc_many`` steps, no ``alloc``; each
    device's weights sit back to back from offset 0, in plan order."""
    counts = _count_calls(monkeypatch, (MemoryPool, "alloc"), (MemoryPool, "alloc_many"))
    emb = DistributedEmbedding(SCALE_G64, 64, backend="pgas")
    assert counts == Counter({"MemoryPool.alloc_many": 64})
    weights = emb.weight_buffer_map()
    assert list(weights) == [
        cfg.name for dev in range(64) for cfg in emb.plan.tables_on(dev)
    ]
    for dev in emb.cluster.devices:
        bufs = [weights[cfg.name] for cfg in emb.plan.tables_on(dev.id)]
        ends = [0] + [buf.offset + buf.nbytes for buf in bufs]
        assert [buf.offset for buf in bufs] == ends[:-1]
        assert dev.memory.used == dev.memory.peak_used == ends[-1]


def test_first_hop_table_reads_one_row_per_source(monkeypatch):
    topology = nvlink_dgx1(64)
    counts = _count_calls(monkeypatch, (Topology, "link_spec"), (Topology, "row_specs"))
    hops = first_hop_table(topology)
    assert counts == Counter({"Topology.row_specs": 64})
    assert [hop[2] for hop in hops] == [NVLINK_PAIR_SPEC.bandwidth] * 64


def _pairwise_peers(topology):
    G = topology.n_devices
    return [{dst for dst in range(G) if topology.connected(src, dst)} for src in range(G)]


def _pairwise_first_hops(topology, hier):
    """The per-pair ``link_spec`` derivation the row reads replace."""
    G = topology.n_devices
    out = []
    for src in range(G):
        dsts, bws = [], []
        for dst in range(G):
            hop = dst
            if hier is not None and not hier.same_node(src, dst):
                hop = hier.leader_of(hier.node_of(src))
            if dst == src or hop == src:
                continue
            link = topology.link_spec(src, hop)
            if link is not None:
                dsts.append(dst)
                bws.append(link.bandwidth)
        shared = bws[0] if bws and all(bw == bws[0] for bw in bws) else None
        out.append((dsts, bws, shared))
    return out


def _ring(n_devices):
    """NVLink to each ring neighbour, NIC to the device opposite, nothing
    else: unreachable pairs and mixed bandwidths in one row."""

    def spec_fn(src, dst):
        gap = (dst - src) % n_devices
        if gap in (1, n_devices - 1):
            return NVLINK_PAIR_SPEC
        return NIC_SPEC if gap == n_devices // 2 else None

    return Topology(n_devices, spec_fn, name=f"ring-{n_devices}")


@pytest.mark.parametrize(
    "topology, devices_per_node",
    [
        (nvlink_dgx1(4), None), (nvlink_dgx1(4), 2),
        (pcie_topology(3), None), (pcie_topology(3), 1),
        (multinode_topology(8, 4), None), (multinode_topology(8, 4), 4),
        (multinode_topology(16, 4), 2),
        (_ring(6), None), (_ring(6), 3),
    ],
    ids=lambda v: getattr(v, "name", f"hier{v}"),
)
def test_row_reads_equal_the_pairwise_derivation(topology, devices_per_node):
    hier = None if devices_per_node is None else HierSpec(devices_per_node)
    cluster = Cluster(topology.n_devices, topology)
    G = topology.n_devices
    assert [
        {dst for dst in range(G) if dst != dev.id and dev.can_access_peer(dst)}
        for dev in cluster.devices
    ] == _pairwise_peers(topology)
    got = [(dsts.tolist(), bws, shared) for dsts, bws, shared in first_hop_table(topology, hier)]
    assert got == _pairwise_first_hops(topology, hier)
