"""Extension — scaling past one node (§V: "extend this work to a multinode
system").

The paper's results live on one NVLink node; its future-work section warns
that inter-node links ("higher latency and lower bandwidth") may erode the
PGAS scheme unless the aggregator recovers bandwidth utilisation.  This
bench weak-scales from one 2-GPU node to two nodes (4 GPUs, NIC between
nodes) and measures all three schemes: collective baseline, naked PGAS
small messages, and PGAS + aggregator.
"""

from __future__ import annotations

from conftest import save_artifact
from repro.bench.reporting import format_table
from repro.bench.runner import scaled_config
from repro.core.baseline import BaselineRetrieval
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.sharding import TableWiseSharding
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WEAK_SCALING_BASE
from repro.simgpu import Cluster, multinode, nvlink_dgx1


def run_point(cluster_fn, n_devices: int, runner_scale: float):
    cfg = scaled_config(WEAK_SCALING_BASE.scaled_tables(64 * n_devices), runner_scale)
    plan = TableWiseSharding(cfg.table_configs(), n_devices)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()
    wls = build_device_workloads(plan, lengths)
    return {
        "baseline": BaselineRetrieval(cluster_fn()).run_batch(wls).total_ns,
        "pgas": PGASFusedRetrieval(cluster_fn()).run_batch(wls).total_ns,
        "pgas+agg": PGASFusedRetrieval(cluster_fn(), aggregate=True).run_batch(wls).total_ns,
    }


def sweep(runner_scale: float):
    return {
        "1 node / 2 GPUs": run_point(
            lambda: Cluster(2, topology=nvlink_dgx1(2)), 2, runner_scale
        ),
        "2 nodes / 4 GPUs": run_point(
            lambda: multinode(2, devices_per_node=2), 4, runner_scale
        ),
    }


def test_multinode_extension(benchmark, runner, artifact_dir):
    results = benchmark.pedantic(sweep, args=(runner.scale,), rounds=1, iterations=1)

    rows = []
    for system, times in results.items():
        rows.append([
            system,
            f"{times['baseline'] / 1e6:.2f}",
            f"{times['pgas'] / 1e6:.2f}",
            f"{times['pgas+agg'] / 1e6:.2f}",
        ])
    table = format_table(
        ["system", "baseline (ms)", "PGAS (ms)", "PGAS+agg (ms)"], rows
    )
    save_artifact(artifact_dir, "E4_multinode.txt", "[extension: multi-node]\n" + table)

    intra = results["1 node / 2 GPUs"]
    inter = results["2 nodes / 4 GPUs"]

    # Weak scaling across the NIC costs everyone something.
    for scheme in ("baseline", "pgas", "pgas+agg"):
        assert inter[scheme] > intra[scheme]

    # Naked small messages suffer most inter-node; aggregation recovers it.
    assert inter["pgas+agg"] < inter["pgas"]
    # And even inter-node, one-sided + aggregation beats the collective.
    assert inter["pgas+agg"] < inter["baseline"]
    # Intra-node, the aggregator is neutral (within 5%).
    assert abs(intra["pgas+agg"] - intra["pgas"]) < 0.05 * intra["pgas"]
