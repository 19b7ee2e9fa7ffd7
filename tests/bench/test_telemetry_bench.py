"""Tests for the telemetry bench and its JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.bench.sweeps import SweepResult
from repro.bench.telemetry import preset_workload, run_metrics, validate_metrics_json
from repro.telemetry.report import ReportValidationError


@pytest.fixture(scope="module")
def comparison() -> SweepResult:
    return run_metrics("tiny", n_devices=2, include_series=False)


class TestPresets:
    def test_tiny_is_small(self):
        cfg = preset_workload("tiny", 2)
        assert cfg.num_tables == 8
        assert cfg.batch_size == 256

    def test_weak_scales_tables_per_gpu(self):
        assert preset_workload("weak", 2).num_tables == 128
        assert preset_workload("weak", 4).num_tables == 256

    def test_strong_is_fixed_total(self):
        assert preset_workload("strong", 2) == preset_workload("strong", 8)

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_workload("huge", 2)


class TestRunMetrics:
    def test_both_backends_reported(self, comparison):
        assert [r.backend for r in comparison.points] == ["pgas", "baseline"]
        for report in comparison.points:
            assert report.n_devices == 2
            assert report.metric("comm_bytes_total") > 0

    def test_acceptance_invariant_on_tiny(self, comparison):
        # pgas must hide more comm than the synchronous baseline
        assert comparison.point("pgas").metric("overlap_fraction") > comparison.point(
            "baseline"
        ).metric("overlap_fraction")

    def test_render_table(self, comparison):
        text = comparison.render()
        assert "overlap fraction" in text
        assert "link peak-to-mean" in text
        assert "pgas" in text and "baseline" in text
        assert "tiny preset" in text

    def test_seed_changes_stream(self):
        # comm volume is fixed by the bag count; wall time tracks the
        # seed-dependent pooling lengths
        a = run_metrics("tiny", backends=("pgas",), include_series=False, seed=1)
        b = run_metrics("tiny", backends=("pgas",), include_series=False, seed=2)
        assert a.point("pgas").metric("run_wall_ns") != b.point("pgas").metric("run_wall_ns")


class TestArtifact:
    def test_write_and_validate(self, comparison, tmp_path):
        path = tmp_path / "BENCH_metrics.json"
        comparison.write_json(str(path))
        data = json.loads(path.read_text())
        validate_metrics_json(data)
        assert data["preset"] == "tiny"
        assert set(data["reports"]) == {"pgas", "baseline"}

    def test_artifact_sorted_keys(self, comparison, tmp_path):
        path = tmp_path / "m.json"
        comparison.write_json(str(path))
        data = json.loads(path.read_text())
        assert list(data) == sorted(data)

    def test_rejects_pgas_not_hiding_more_comm(self, comparison):
        data = json.loads(json.dumps(comparison.as_dict()))
        overlap = {be: r["metrics"]["overlap_fraction"]
                   for be, r in data["reports"].items()}
        overlap["pgas"]["value"] = overlap["baseline"]["value"]
        with pytest.raises(ReportValidationError, match="overlap_fraction"):
            validate_metrics_json(data)

    def test_invalid_payloads_rejected(self, comparison):
        with pytest.raises(ReportValidationError):
            validate_metrics_json([])
        with pytest.raises(ReportValidationError):
            validate_metrics_json({"schema_version": 1})
        payload = comparison.as_dict()
        payload["schema_version"] = 2
        with pytest.raises(ReportValidationError):
            validate_metrics_json(payload)
        bad = comparison.as_dict()
        bad["reports"]["pgas"].pop("metrics")
        with pytest.raises(ReportValidationError, match="pgas"):
            validate_metrics_json(bad)
