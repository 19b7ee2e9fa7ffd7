"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.runner import ExperimentRunner
from repro.cli import SWEEPS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SMALL = ["--tables", "8", "--rows", "2000", "--dim", "16",
         "--batch", "512", "--pooling", "8"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.tables == 64 and args.gpus == 2


class TestTypedErrors:
    """Bad inputs exit 2 with one argparse ``error:`` line, no traceback."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "cache", "--alphas", "0.9"], "--alphas"),
            (["sweep", "cache", "--alphas", "1.1", "1.0"], "--alphas"),
            (["sweep", "cache", "--alphas", "nan"], "--alphas"),
            (["sweep", "cache", "--alphas", "steep"], "--alphas"),
            (["trace", "--zipf", "0.5"], "--zipf"),
            (["run", "--tables", "0"], "--tables"),
            (["run", "--gpus", "0"], "--gpus"),
            (["run", "--gpus", "-3"], "--gpus"),
            (["run", "--batch", "two"], "--batch"),
            (["sweep", "metrics", "--gpus", "0"], "--gpus"),
        ],
    )
    def test_exits_2_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {flag}" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["run", "--batches", "0"], "--batches"),
            (["run", "--batches", "-2"], "--batches"),
            (["reproduce", "--batches", "0", "--only", "T1"], "--batches"),
            (["report", "--batches", "0"], "--batches"),
            (["sweep", "skew", "--preset", "tiny", "--batches", "0"], "--batches"),
            (["reproduce", "--scale", "0"], "--scale"),
            (["report", "--scale", "1.5"], "--scale"),
            (["sweep", "compress", "--scale", "nan"], "--scale"),
            (["run", "--pooling", "-1"], "--pooling"),
            (["run", "--seed", "-1"], "--seed"),
            (["plan", "--seed", "-1"], "--seed"),
        ],
    )
    def test_bad_counts_exit_2_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kwargs,error,field",
        [
            (dict(n_batches=0), ValueError, "n_batches"),
            (dict(n_batches=1.5), TypeError, "n_batches"),
            (dict(scale=0.0), ValueError, "scale"),
            (dict(scale=1.5), ValueError, "scale"),
            (dict(scale=float("nan")), ValueError, "scale"),
            (dict(device_counts=(1, 0)), ValueError, "device_counts"),
            (dict(device_counts=()), ValueError, "device_counts"),
            (dict(seed=-1), ValueError, "seed"),
        ],
    )
    def test_runner_rejects_bad_fields(self, kwargs, error, field):
        with pytest.raises(error, match=rf"ExperimentRunner\.{field}"):
            ExperimentRunner(**kwargs)

    def test_valid_values_still_parse(self):
        args = build_parser().parse_args(["sweep", "cache", "--alphas", "1.05", "2"])
        assert args.alphas == [1.05, 2.0]
        assert build_parser().parse_args(["run", "--gpus", "1"]).gpus == 1

    def test_module_entry_point(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "cache", "--alphas", "0.9"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "argument --alphas: zipf alpha must be > 1, got 0.9" in proc.stderr


class TestRun:
    def test_prints_both_backends(self, capsys):
        code, out = run_cli(capsys, "run", *SMALL, "--gpus", "2")
        assert code == 0
        assert "baseline" in out and "pgas" in out
        assert "PGAS speedup" in out

    def test_multi_batch(self, capsys):
        code, out = run_cli(capsys, "run", *SMALL, "--batches", "2")
        assert code == 0
        assert "2 batches" in out


class TestSweep:
    def test_pooling_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep", *SMALL, "max_pooling", "4", "8")
        assert code == 0
        assert "sweep: max_pooling" in out
        assert out.count("x") >= 2  # speedup column

    def test_invalid_knob(self):
        with pytest.raises(SystemExit):
            main(["sweep", "learning_rate", "1"])


#: every ``repro sweep`` verb at its smallest settings
SMALLEST = {
    "batch_size": ["256", *SMALL],
    "max_pooling": ["4", *SMALL],
    "num_tables": ["4", *SMALL],
    "cache": ["--tables", "4", "--rows", "512", "--dim", "8", "--batch", "64",
              "--pooling", "2", "--alphas", "1.1", "--capacities", "0.1",
              "--batches", "1"],
    "faults": ["--tables", "4", "--rows", "512", "--dim", "8", "--batch", "64",
               "--pooling", "2", "--gpus", "2", "--severities", "0.0",
               "--backends", "pgas", "--requests", "8"],
    "serve": ["--preset", "tiny", "--requests", "16"],
    "compress": ["--preset", "tiny", "--batches", "1", "--codecs", "fp32", "int8"],
    "chaos": ["--preset", "tiny", "--batches", "2"],
    "skew": ["--preset", "tiny", "--batches", "2"],
    "hier": ["--preset", "tiny", "--batches", "1"],
    "critpath": ["--preset", "tiny", "--batches", "1", "--scale", "0.25"],
    "metrics": ["--preset", "tiny", "--no-series"],
}


class TestSweepRegistry:
    """One handler drives every sweep: run, render, write, self-validate."""

    def test_every_sweep_has_smallest_settings(self):
        assert set(SMALLEST) == set(SWEEPS)

    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_runs_and_writes_a_valid_artifact(self, capsys, tmp_path, name):
        entry = SWEEPS[name]
        argv = ["sweep", name, *SMALLEST[name]]
        path = tmp_path / f"BENCH_{name}.json"
        if entry.validate is not None:
            argv += ["--output", str(path)]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("[")
        if entry.validate is None:
            assert not path.exists()
            return
        assert f"wrote {path} (schema-valid" in out
        entry.validate(json.loads(path.read_text()))


class TestPlan:
    def test_criteo_plan(self, capsys):
        code, out = run_cli(capsys, "plan", "--criteo-tables", "10")
        assert code == 0
        assert "placement" in out
        assert "imbalance" in out

    def test_forced_device_count(self, capsys):
        code, out = run_cli(capsys, "plan", "--criteo-tables", "10", "--gpus", "4")
        assert code == 0
        assert "4 x" in out


class TestTrace:
    def test_writes_valid_json(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, out = run_cli(capsys, "trace", *SMALL, "--output", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]
        assert "chrome://tracing" in out

    def test_baseline_backend(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, out = run_cli(
            capsys, "trace", *SMALL, "--backend", "baseline", "--output", str(out_path)
        )
        assert code == 0
        assert "baseline" in out

    def test_no_counters_drops_counter_tracks(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, _ = run_cli(
            capsys, "trace", *SMALL, "--no-counters", "--output", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert not [e for e in data["traceEvents"] if e.get("ph") == "C"]

    def test_telemetry_adds_gauge_tracks(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, _ = run_cli(
            capsys, "trace", *SMALL, "--telemetry", "--output", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert any(
            e.get("name", "").startswith("telemetry.") for e in data["traceEvents"]
        )


class TestMetrics:
    def test_tiny_preset_writes_valid_artifact(self, capsys, tmp_path):
        from repro.bench.telemetry import validate_metrics_json

        out_path = tmp_path / "BENCH_metrics.json"
        code, out = run_cli(
            capsys, "sweep", "metrics", "--preset", "tiny", "--no-series",
            "--output", str(out_path),
        )
        assert code == 0
        assert "overlap fraction" in out
        assert "pgas" in out and "baseline" in out
        assert "schema-valid" in out
        validate_metrics_json(json.loads(out_path.read_text()))

    def test_skip_output(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "metrics", "--preset", "tiny", "--no-series", "--output", ""
        )
        assert code == 0
        assert "wrote" not in out


class TestBackends:
    def test_lists_registry_with_flags(self, capsys):
        code, out = run_cli(capsys, "backends")
        assert code == 0
        for name in ("pgas", "baseline", "pgas+cache", "pgas+compress",
                     "baseline+compress"):
            assert name in out
        assert "compress" in out and "indices" in out
        assert "quantized" in out  # descriptions are printed

    def test_traceable_capability_flag(self, capsys):
        code, out = run_cli(capsys, "backends")
        assert code == 0
        assert "traceable" in out


class TestCritpath:
    def test_tiny_preset_writes_valid_artifact(self, capsys, tmp_path):
        from repro.bench.critpath import validate_critpath_json

        out_path = tmp_path / "BENCH_critpath.json"
        code, out = run_cli(
            capsys, "sweep", "critpath", "--preset", "tiny", "--scale", "0.25",
            "--seed", "3", "--output", str(out_path),
        )
        assert code == 0
        assert "pgas" in out and "baseline" in out
        assert "schema-valid" in out
        validate_critpath_json(json.loads(out_path.read_text()))

    def test_gate_passes_against_own_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_critpath.json"
        args = ("sweep", "critpath", "--preset", "tiny", "--scale", "0.25",
                "--seed", "3", "--output", str(out_path))
        code, _ = run_cli(capsys, *args)
        assert code == 0
        code, out = run_cli(capsys, *args, "--gate", str(out_path))
        assert code == 0
        assert "regression gate: PASS" in out

    def test_gate_breach_fails_with_explanation(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_critpath.json"
        code, _ = run_cli(
            capsys, "sweep", "critpath", "--preset", "tiny", "--scale", "0.25",
            "--seed", "3", "--output", str(out_path),
        )
        assert code == 0
        # Shrink the committed baseline so the fresh run must breach it.
        baseline = json.loads(out_path.read_text())
        for p in baseline["points"]:
            p["wall_ns"] *= 0.5
            p["by_category"] = {k: v * 0.5 for k, v in p["by_category"].items()}
        gate_path = tmp_path / "baseline.json"
        gate_path.write_text(json.dumps(baseline))
        code, out = run_cli(
            capsys, "sweep", "critpath", "--preset", "tiny", "--scale", "0.25",
            "--seed", "3", "--output", "", "--gate", str(gate_path),
            "--gate-abs-ns", "0",
        )
        assert code == 1
        assert "regression gate: FAIL" in out
        assert "BREACH" in out

    def test_skip_output(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "critpath", "--preset", "tiny", "--scale", "0.25",
            "--output", "",
        )
        assert code == 0
        assert "wrote" not in out


class TestCompsweep:
    def test_tiny_sweep_writes_valid_artifact(self, capsys, tmp_path):
        from repro.bench.compsweep import validate_compsweep_json

        out_path = tmp_path / "BENCH_compression.json"
        code, out = run_cli(
            capsys, "sweep", "compress", "--preset", "tiny", "--batches", "1",
            "--codecs", "fp32", "int8", "--output", str(out_path),
        )
        assert code == 0
        assert "compression sweep" in out
        assert "schema-valid" in out
        data = json.loads(out_path.read_text())
        validate_compsweep_json(data)
        by_key = {(p["codec"], p["backend"]): p for p in data["points"]}
        assert by_key[("int8", "baseline")]["wire_bytes"] < \
            by_key[("fp32", "baseline")]["wire_bytes"]

    def test_skip_output(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "compress", "--preset", "tiny", "--batches", "1",
            "--codecs", "fp32", "--backends", "pgas", "--output", "",
        )
        assert code == 0
        assert "wrote" not in out

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "compress", "--codecs", "zstd"])


class TestReproduce:
    def test_single_artifact_small(self, capsys):
        code, out = run_cli(
            capsys, "reproduce", "--batches", "1", "--scale", "0.02", "--only", "T1"
        )
        assert code == 0
        assert "PGAS over baseline" in out

    def test_invalid_id(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--only", "F99"])


class TestReport:
    def test_writes_markdown(self, capsys, tmp_path):
        out_path = tmp_path / "R.md"
        code, out = run_cli(
            capsys, "report", "--batches", "1", "--scale", "0.02",
            "--output", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert "paper vs. measured" in text
        assert "Weak scaling" in text and "Strong scaling" in text
        assert "wrote" in out
