"""Ablation — fabric sensitivity and the §V aggregator.

The paper's future-work section predicts that on slower, higher-latency
inter-node links, naked small messages lose their bandwidth budget to
headers and the asynchronous aggregator (ref [7]) recovers it by flushing
large frames.  This bench runs the same 2-GPU weak workload over NVLink,
PCIe, and a NIC-class link, with and without aggregation, and checks the
crossover: aggregation is ~neutral on NVLink but wins on the NIC.
"""

from __future__ import annotations

from conftest import save_artifact
from repro.bench.reporting import format_table
from repro.bench.runner import scaled_config
from repro.comm.pgas import PGASSpec
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.sharding import TableWiseSharding
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WEAK_SCALING_BASE
from repro.simgpu import Cluster, multinode_topology, nvlink_dgx1, pcie_topology

FABRICS = {
    "nvlink": lambda: Cluster(2, topology=nvlink_dgx1(2)),
    "pcie": lambda: Cluster(2, topology=pcie_topology(2)),
    "nic": lambda: Cluster(2, topology=multinode_topology(2, devices_per_node=1)),
}


def sweep(runner_scale: float):
    cfg = scaled_config(WEAK_SCALING_BASE.scaled_tables(128), runner_scale)
    plan = TableWiseSharding(cfg.table_configs(), 2)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    wls = build_device_workloads(plan, lengths)
    results = {}
    for fabric, make_cluster in FABRICS.items():
        plain = PGASFusedRetrieval(
            make_cluster(), pgas_spec=PGASSpec(message_bytes=256, header_bytes=32)
        ).run_batch(wls)
        aggregated = PGASFusedRetrieval(
            make_cluster(),
            pgas_spec=PGASSpec(message_bytes=256, header_bytes=32),
            aggregate=True,
        ).run_batch(wls)
        results[fabric] = (plain.total_ns, aggregated.total_ns)
    return results


def test_aggregator_fabric_crossover(benchmark, runner, artifact_dir):
    results = benchmark.pedantic(sweep, args=(runner.scale,), rounds=1, iterations=1)

    table = format_table(
        ["fabric", "small messages (ms)", "aggregated (ms)", "agg speedup"],
        [
            [f, f"{p / 1e6:.2f}", f"{a / 1e6:.2f}", f"{p / a:.2f}x"]
            for f, (p, a) in results.items()
        ],
    )
    save_artifact(artifact_dir, "A2_aggregator_fabric.txt", "[ablation: aggregator]\n" + table)

    # On NVLink the aggregator buys nothing (comm already hidden).
    nv_plain, nv_agg = results["nvlink"]
    assert abs(nv_plain - nv_agg) / nv_plain < 0.05

    # Slower fabrics expose communication.
    assert results["pcie"][0] > nv_plain
    assert results["nic"][0] > results["pcie"][0]

    # On the NIC, aggregation recovers a meaningful share of the overhead.
    nic_plain, nic_agg = results["nic"]
    assert nic_agg < nic_plain
    assert nic_plain / nic_agg > 1.05
