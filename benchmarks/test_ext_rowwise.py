"""Extension — row-wise sharding (§V: "partitioning by rows").

Row-wise sharding trades balanced memory for a much heavier layout
conversion: every device produces a *partial* pool for every (table,
sample), so the exchange volume grows G-fold and the baseline needs an
explicit reduction after its all-to-all.  The paper predicts PGAS atomics
help even more here; this bench measures both schemes under both shardings
at the weak 4-GPU configuration and checks that ordering.
"""

from __future__ import annotations

from conftest import save_artifact
from repro.bench.reporting import format_table
from repro.bench.runner import scaled_config
from repro.core.baseline import BaselineRetrieval
from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.sharding import RowWiseSharding, TableWiseSharding
from repro.core.workload import build_device_workloads, build_rowwise_workloads
from repro.dlrm.data import SyntheticDataGenerator, WEAK_SCALING_BASE
from repro.simgpu import dgx_v100


def sweep(runner_scale: float):
    G = 4
    cfg = scaled_config(WEAK_SCALING_BASE.scaled_tables(64 * G), runner_scale)
    lengths = SyntheticDataGenerator(cfg).lengths_batch()

    tw_plan = TableWiseSharding(cfg.table_configs(), G)
    tw_wls = build_device_workloads(tw_plan, lengths)
    rw_plan = RowWiseSharding(cfg.table_configs(), G)
    rw_wls = build_rowwise_workloads(rw_plan, lengths)

    return {
        ("table-wise", "baseline"): BaselineRetrieval(dgx_v100(G)).run_batch(tw_wls).total_ns,
        ("table-wise", "pgas"): PGASFusedRetrieval(dgx_v100(G)).run_batch(tw_wls).total_ns,
        ("row-wise", "baseline"): BaselineRetrieval(dgx_v100(G)).run_batch(rw_wls).total_ns,
        ("row-wise", "pgas"): PGASFusedRetrieval(dgx_v100(G)).run_batch(rw_wls).total_ns,
    }


def test_rowwise_extension(benchmark, runner, artifact_dir):
    results = benchmark.pedantic(sweep, args=(runner.scale,), rounds=1, iterations=1)

    rows = []
    for sharding in ("table-wise", "row-wise"):
        tb = results[(sharding, "baseline")]
        tp = results[(sharding, "pgas")]
        rows.append([sharding, f"{tb / 1e6:.2f}", f"{tp / 1e6:.2f}", f"{tb / tp:.2f}x"])
    table = format_table(["sharding", "baseline (ms)", "PGAS (ms)", "speedup"], rows)
    save_artifact(artifact_dir, "E2_rowwise.txt", "[extension: row-wise sharding]\n" + table)

    tw_speedup = results[("table-wise", "baseline")] / results[("table-wise", "pgas")]
    rw_speedup = results[("row-wise", "baseline")] / results[("row-wise", "pgas")]
    # Row-wise's heavier exchange + reduction amplifies the PGAS advantage.
    assert rw_speedup > tw_speedup
    assert rw_speedup > 1.8
    # And row-wise costs more than table-wise under either backend
    # (the paper's reason for using the "simple" scheme on one node).
    assert results[("row-wise", "baseline")] > results[("table-wise", "baseline")]
    assert results[("row-wise", "pgas")] > results[("table-wise", "pgas")]
