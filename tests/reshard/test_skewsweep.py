"""Skew sweep: measured invariants and artifact self-validation."""

from __future__ import annotations

import json

import pytest

from repro.bench.skewsweep import run_skew_sweep, validate_skewsweep_json
from repro.bench.sweeps import SweepResult


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    return run_skew_sweep(
        "tiny", n_devices=4, backends=("pgas", "pgas+reshard"),
        skews=(0.0, 1.05), n_batches=10,
    )


class TestSweep:
    def test_grid_complete(self, sweep):
        assert len(sweep.points) == 4
        for backend in ("pgas", "pgas+reshard"):
            for skew in (0.0, 1.05):
                sweep.point(backend, skew)

    def test_static_points_never_migrate(self, sweep):
        for skew in (0.0, 1.05):
            p = sweep.point("pgas", skew)
            assert p.migrations == 0
            assert p.migration_bytes == 0
            assert p.imbalance_after == p.imbalance_before

    def test_zero_skew_reshard_is_inert(self, sweep):
        """Uniform traffic must not trigger the balancer: same timings as
        the static twin, no migration traffic at all."""
        static = sweep.point("pgas", 0.0)
        dynamic = sweep.point("pgas+reshard", 0.0)
        assert dynamic.migrations == 0
        assert dynamic.plans == 0
        assert dynamic.total_ns == static.total_ns
        assert dynamic.p99_batch_ns == static.p99_batch_ns

    def test_skew_reduces_imbalance_and_wall_time(self, sweep):
        static = sweep.point("pgas", 1.05)
        dynamic = sweep.point("pgas+reshard", 1.05)
        assert static.imbalance_before > 1.1  # the skew actually skews
        assert dynamic.migrations >= 1
        assert dynamic.imbalance_after < dynamic.imbalance_before
        assert dynamic.imbalance_reduction >= 0.30
        assert dynamic.total_ns < static.total_ns

    def test_identical_traffic_across_twins(self, sweep):
        for skew in (0.0, 1.05):
            static = sweep.point("pgas", skew)
            dynamic = sweep.point("pgas+reshard", skew)
            assert static.imbalance_before == pytest.approx(
                dynamic.imbalance_before
            )
            assert static.max_device_bytes_before == pytest.approx(
                dynamic.max_device_bytes_before
            )

    def test_render_and_artifact_schema_valid(self, sweep, tmp_path):
        text = sweep.render()
        assert "imb before" in text and "pgas+reshard" in text
        path = str(tmp_path / "BENCH_reshard.json")
        sweep.write_json(path)
        with open(path) as fh:
            validate_skewsweep_json(json.load(fh))


class TestValidator:
    def payload(self, sweep):
        return json.loads(json.dumps(sweep.as_dict()))

    def test_rejects_missing_point_key(self, sweep):
        data = self.payload(sweep)
        del data["points"][0]["imbalance_after"]
        with pytest.raises(ValueError, match="missing key"):
            validate_skewsweep_json(data)

    def test_rejects_wrong_schema_version(self, sweep):
        data = self.payload(sweep)
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_skewsweep_json(data)

    def test_rejects_static_backend_with_migrations(self, sweep):
        data = self.payload(sweep)
        for p in data["points"]:
            if "+reshard" not in p["backend"]:
                p["migrations"] = 3.0
                break
        with pytest.raises(ValueError, match="static backend"):
            validate_skewsweep_json(data)

    def test_rejects_worsened_imbalance(self, sweep):
        data = self.payload(sweep)
        for p in data["points"]:
            if "+reshard" in p["backend"]:
                p["imbalance_after"] = p["imbalance_before"] + 1.0
                break
        with pytest.raises(ValueError, match="worsened"):
            validate_skewsweep_json(data)

    def test_rejects_migrations_without_bytes(self, sweep):
        data = self.payload(sweep)
        for p in data["points"]:
            if "+reshard" in p["backend"] and p["migrations"] > 0:
                p["migration_bytes"] = 0.0
                break
        else:
            pytest.skip("no migrating point in the sweep")
        with pytest.raises(ValueError, match="disagree"):
            validate_skewsweep_json(data)

    def test_rejects_mismatched_twin_traffic(self, sweep):
        data = self.payload(sweep)
        for p in data["points"]:
            if "+reshard" in p["backend"]:
                p["imbalance_before"] += 0.5
                p["imbalance_after"] = p["imbalance_before"]
                break
        with pytest.raises(ValueError, match="different"):
            validate_skewsweep_json(data)

    def test_rejects_sub_one_imbalance(self, sweep):
        data = self.payload(sweep)
        data["points"][0]["imbalance_before"] = 0.5
        with pytest.raises(ValueError, match="max/mean"):
            validate_skewsweep_json(data)


class TestArguments:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_skew_sweep("tiny", backends=("pgas+bogus",), skews=(0.0,))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_skew_sweep("tiny", backends=(), skews=(0.0,))
        with pytest.raises(ValueError):
            run_skew_sweep("tiny", skews=())
        with pytest.raises(ValueError):
            run_skew_sweep("tiny", n_batches=0)
