"""Chaos sweep: measured invariants and artifact self-validation."""

from __future__ import annotations

import json

import pytest

from repro.bench.chaossweep import run_chaos_sweep, validate_chaossweep_json
from repro.bench.sweeps import SweepResult


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    return run_chaos_sweep("tiny", n_devices=4, n_batches=3, bases=("pgas",))


class TestSweep:
    def test_grid_complete(self, sweep):
        assert len(sweep.points) == 4  # k x failures for one base
        for k in (1, 2):
            for f in (0, 1):
                sweep.point("pgas", k, f)

    def test_healthy_points_perfect(self, sweep):
        for k in (1, 2):
            p = sweep.point("pgas", k, 0)
            assert p.availability == 1.0
            assert p.failover_lookups == 0
            assert p.recovery_bytes == 0

    def test_replication_rescues_availability(self, sweep):
        p1 = sweep.point("pgas", 1, 1)
        p2 = sweep.point("pgas", 2, 1)
        assert p1.availability < 1.0
        assert p2.availability == 1.0
        assert p2.failover_lookups > 0
        assert p2.recovery_bytes > 0
        assert 0 < p2.time_to_reprotect_ns < float("inf")

    def test_goodput_positive_and_render(self, sweep):
        assert all(p.goodput_lookups_per_s > 0 for p in sweep.points)
        text = sweep.render()
        assert "availability" in text and "pgas" in text

    def test_artifact_schema_valid(self, sweep, tmp_path):
        path = str(tmp_path / "BENCH_availability.json")
        sweep.write_json(path)
        with open(path) as fh:
            validate_chaossweep_json(json.load(fh))


class TestValidator:
    def payload(self, sweep):
        return json.loads(json.dumps(sweep.as_dict()))

    def test_rejects_missing_point_key(self, sweep):
        data = self.payload(sweep)
        del data["points"][0]["availability"]
        with pytest.raises(ValueError, match="missing key"):
            validate_chaossweep_json(data)

    def test_rejects_wrong_schema_version(self, sweep):
        data = self.payload(sweep)
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_chaossweep_json(data)

    def test_rejects_k2_below_k1(self, sweep):
        data = self.payload(sweep)
        for p in data["points"]:
            if p["k"] == 2 and p["n_failures"] == 1:
                p["availability"] = 0.1
        with pytest.raises(ValueError, match="below k=1"):
            validate_chaossweep_json(data)

    def test_rejects_unmasked_single_failure(self, sweep):
        # k=2 may beat k=1 and still fail: one replica must mask one
        # failure completely.
        data = self.payload(sweep)
        k1 = sweep.point("pgas", 1, 1).availability
        for p in data["points"]:
            if p["k"] == 2 and p["n_failures"] == 1:
                p["availability"] = (1.0 + k1) / 2
        with pytest.raises(ValueError, match="single failure"):
            validate_chaossweep_json(data)

    def test_rejects_imperfect_healthy_run(self, sweep):
        data = self.payload(sweep)
        good = self.payload(sweep)
        assert validate_chaossweep_json(good) is None
        for p in data["points"]:
            if p["n_failures"] == 0:
                p["availability"] = 0.9
                p["unavailable_lookups"] = (
                    p["lookups_total"] - p["served_lookups"] + 100
                )
                p["served_lookups"] -= 100
        with pytest.raises(ValueError):
            validate_chaossweep_json(data)

    def test_rejects_lookup_leak(self, sweep):
        data = self.payload(sweep)
        data["points"][0]["served_lookups"] += 10
        with pytest.raises(ValueError, match="served"):
            validate_chaossweep_json(data)

    def test_no_spare_device_excuses_recovery(self, sweep):
        # On a 2-GPU cluster a k=2 failure has nowhere to re-replicate;
        # the validator must not demand recovery bytes there.
        data = self.payload(sweep)
        data["n_devices"] = 2
        for p in data["points"]:
            if p["k"] == 2 and p["n_failures"] == 1:
                p["recovery_bytes"] = 0.0
                p["time_to_reprotect_ns"] = 0.0
        validate_chaossweep_json(data)


class TestArguments:
    def test_bad_base_rejected(self):
        with pytest.raises(ValueError, match="base"):
            run_chaos_sweep("tiny", bases=("nccl",))

    def test_all_devices_failing_rejected(self):
        with pytest.raises(ValueError, match="every device"):
            run_chaos_sweep("tiny", n_devices=2, failure_counts=(0, 2))

    def test_too_few_batches_rejected(self):
        with pytest.raises(ValueError, match="batches"):
            run_chaos_sweep("tiny", n_batches=1)
