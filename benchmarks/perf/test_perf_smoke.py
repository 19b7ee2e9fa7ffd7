"""Smoke test of the two-clock benchmark on short rounds.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (the parent
``benchmarks/conftest.py`` imports ``repro``).  ``--smoke`` rounds are
short: paper 10 batches per point, scale at G = 8, 5 training steps, 1000
requests per serving rate.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics measured on the host clock; every other one is simulated
#: (or a count) and must repeat exactly for a given seed
HOST_METRICS = {
    "data.gen_ms", "workload.build_ms", "workload.dst_bytes_ms", "workload.wave_dst_ms",
    "kernel.wave_model_ms", "engine.loop_self_ms", "engine.host_ns_per_event",
    "comm.put_ms", "comm.a2a_ms", "interconnect.transfer_ms", "profiler.record_ms",
    "telemetry.report_ms", "batch.host_ms_p50.pgas", "batch.host_ms_p50.baseline",
    "host_wall_s", "host_ms_per_op", "trace.overhead_pct", "setup.import_s",
}

#: a metric each workload must exercise (non-zero)
EXERCISED = {
    "paper": ["paper.t1_speedup", "memory.max_device_gb", "comm.put_calls"],
    "scale-g64": ["workload.dst_bytes_calls", "telemetry.overlap_fraction.pgas"],
    "train-strong-g4": ["train.step_speedup", "train.emb_bwd_ms.baseline"],
    "serve-prod-g8": ["serving.p99_ms.120k", "pipeline.emb_fraction", "engine.events"],
}


def run_bench(workload: str, trace: int, out: Path, cwd: Path = ROOT, seed: int = 2024):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/perf/run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def result_of(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """Per workload: one untraced and two traced smoke runs."""
    out = tmp_path_factory.mktemp(request.param)
    return request.param, out, [
        result_of(run_bench(request.param, trace, out)) for trace in (0, 1, 1)
    ]


def test_every_metric_is_printed_with_its_unit(runs):
    workload, out, ((lines0, res0), (lines1, res1), _) = runs
    for lines, result, declared in (
        (lines0, res0, SPEC["end_to_end"]), (lines1, res1, SPEC["per_layer"])
    ):
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            pattern = rf"{re.escape(workload)} {re.escape(m['name'])} \S+ {re.escape(m['unit'])}"
            assert any(re.fullmatch(pattern, line) for line in lines), m["name"]
    for m in SPEC["end_to_end"]:
        assert res0["metrics"][m["name"]]["value"] > 0, m["name"]
    for name in EXERCISED[workload]:
        assert res1["metrics"][name]["value"] > 0, name
    assert (out / f"trace_{workload}.json").is_file()


def test_simulated_metrics_and_counts_repeat_exactly(runs):
    workload, _, (_, (_, first), (_, second)) = runs
    for name, m in first["metrics"].items():
        if name not in HOST_METRICS:
            assert second["metrics"][name] == m, name


def test_paper_reproduces_committed_speedup_tables(runs):
    workload, _, (_, (_, result), _) = runs
    if workload != "paper":
        pytest.skip("only the paper workload has reference tables")
    for metric, artifact in (("paper.t1_speedup", "T1_weak_speedup.txt"),
                             ("paper.t2_speedup", "T2_strong_speedup.txt")):
        text = (ROOT / "benchmarks/artifacts" / artifact).read_text()
        committed = re.search(r"geomean: ([0-9.]+)x", text).group(1)
        assert f"{result['metrics'][metric]['value']:.2f}" == committed


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("paper", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
