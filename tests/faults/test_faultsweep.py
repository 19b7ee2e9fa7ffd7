"""Fault sweep bench + CLI: the severity x backend grid and its table."""

from __future__ import annotations

import json

import pytest

from repro.bench.faultsweep import run_fault_sweep, validate_faultsweep_json
from repro.cli import build_parser, main
from repro.dlrm.data import WorkloadConfig
from repro.simgpu.units import ms


def tiny_cfg():
    return WorkloadConfig(
        num_tables=4, rows_per_table=512, dim=8, batch_size=64,
        max_pooling=2, seed=2,
    )


class TestRunFaultSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_fault_sweep(
            tiny_cfg(),
            severities=[0.0, 0.8],
            bases=("pgas", "baseline"),
            n_devices=2,
            n_requests=12,
            arrival_qps=100_000.0,
            deadline_ns=2 * ms,
            emb_deadline_ns=0.25 * ms,
            seed=0,
        )

    def test_grid_is_complete(self, sweep):
        assert len(sweep.points) == 4
        for sev in (0.0, 0.8):
            for base in ("pgas", "baseline"):
                p = sweep.point(sev, base)
                assert p.backend == f"{base}+resilient"
                assert p.result.n_offered == 12

    def test_severity_zero_is_healthy(self, sweep):
        for base in ("pgas", "baseline"):
            p = sweep.point(0.0, base)
            assert p.n_faults == 0
            r = p.result
            assert r.n_shed == 0
            assert r.emb_retries == 0
            assert r.emb_reroutes == 0
            assert r.degraded_fraction == 0.0
            assert r.deadline_hit_rate == 1.0

    def test_high_severity_installs_faults(self, sweep):
        p = sweep.point(0.8, "pgas")
        assert p.n_faults > 0

    def test_render_table(self, sweep):
        text = sweep.render()
        for col in ("severity", "backend", "shed", "degraded", "retries",
                    "reroutes", "hit rate", "p99 (ms)", "goodput"):
            assert col in text
        assert "pgas" in text and "baseline" in text

    def test_unknown_point_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.point(0.5, "pgas")

    def test_artifact_validates_and_rejects_lost_requests(self, sweep, tmp_path):
        path = tmp_path / "BENCH_faults.json"
        sweep.write_json(str(path))
        data = json.loads(path.read_text())
        validate_faultsweep_json(data)
        data["points"][1]["result"]["n_shed"] += 1
        with pytest.raises(ValueError, match="served \\+ shed"):
            validate_faultsweep_json(data)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="severity"):
            run_fault_sweep(tiny_cfg(), severities=[])
        with pytest.raises(ValueError, match="base"):
            run_fault_sweep(tiny_cfg(), severities=[0.0], bases=())
        for qps in (0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="arrival_qps"):
                run_fault_sweep(tiny_cfg(), severities=[0.0], arrival_qps=qps)


class TestCLI:
    def test_parser_accepts_faultsweep(self):
        args = build_parser().parse_args(
            ["sweep", "faults", "--severities", "0.0", "0.5", "--backends", "pgas"]
        )
        assert (args.command, args.sweep) == ("sweep", "faults")
        assert args.severities == [0.0, 0.5]
        assert args.backends == ["pgas"]

    def test_main_runs_and_prints_table(self, capsys):
        rc = main([
            "sweep", "faults",
            "--tables", "4", "--rows", "512", "--dim", "8", "--batch", "64",
            "--pooling", "2", "--gpus", "2",
            "--severities", "0.0", "0.7",
            "--backends", "pgas",
            "--requests", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault sweep" in out
        assert "severity" in out and "goodput" in out
        assert "pgas" in out
