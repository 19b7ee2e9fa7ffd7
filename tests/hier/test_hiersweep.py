"""The hiersweep harness and its self-validating artifact contract."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.hiersweep import run_hiersweep, validate_hiersweep_json
from repro.bench.sweeps import SweepResult


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    return run_hiersweep(
        "tiny",
        nodes=(1, 2),
        devices_per_node=(1, 2),
        message_sizes=(64,),
        n_batches=1,
    )


@pytest.fixture(scope="module")
def payload(sweep) -> dict:
    # json round-trip: validate what a reader of the artifact would see.
    return json.loads(json.dumps(sweep.as_dict()))


class TestSweepRuns:
    def test_covers_every_multi_gpu_geometry(self, sweep):
        combos = {(p.backend, p.n_nodes, p.devices_per_node)
                  for p in sweep.points}
        # (1, 1) is skipped — a single GPU has no communication to route.
        expected = {
            (b, n, d)
            for b in ("pgas", "baseline")
            for n, d in ((1, 2), (2, 1), (2, 2))
        }
        assert combos == expected

    def test_active_points_reduce_messages(self, sweep):
        for p in sweep.points:
            if p.n_nodes > 1 and p.devices_per_node > 1:
                assert p.hier_inter_messages < p.flat_inter_messages
                assert 0.0 < p.message_reduction <= 1.0

    def test_degenerate_points_are_exact_noops(self, sweep):
        for p in sweep.points:
            if p.n_nodes == 1 or p.devices_per_node == 1:
                assert p.hier_total_ns == p.flat_total_ns
                assert p.speedup == 1.0

    def test_render_mentions_every_point(self, sweep):
        table = sweep.render()
        assert table.count("pgas") >= 3
        assert "speedup" in table and "rate-bound" in table

    def test_point_lookup(self, sweep):
        p = sweep.point("pgas", 2, 2, 64)
        assert p.backend == "pgas" and p.message_bytes == 64
        with pytest.raises(KeyError):
            sweep.point("pgas", 9, 9, 64)


class TestValidator:
    def test_fresh_sweep_validates(self, payload):
        validate_hiersweep_json(payload)

    def _active_point(self, payload):
        for i, p in enumerate(payload["points"]):
            if p["n_nodes"] > 1 and p["devices_per_node"] > 1:
                return i
        raise AssertionError("sweep has no active point")

    def _degenerate_point(self, payload):
        for i, p in enumerate(payload["points"]):
            if p["n_nodes"] == 1 or p["devices_per_node"] == 1:
                return i
        raise AssertionError("sweep has no degenerate point")

    def test_rejects_message_inflation(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._active_point(bad)]
        p["hier_inter_messages"] = p["flat_inter_messages"] + 1
        with pytest.raises(ValueError, match="increased inter-node messages"):
            validate_hiersweep_json(bad)

    def test_rejects_missing_strict_reduction(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._active_point(bad)]
        p["hier_inter_messages"] = p["flat_inter_messages"]
        with pytest.raises(ValueError, match="strict inter-node message"):
            validate_hiersweep_json(bad)

    def test_rejects_byte_inflation(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._active_point(bad)]
        p["hier_inter_bytes"] = p["flat_inter_bytes"] + 1.0
        with pytest.raises(ValueError, match="wire bytes"):
            validate_hiersweep_json(bad)

    def test_rejects_degenerate_timing_drift(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._degenerate_point(bad)]
        p["hier_total_ns"] = p["flat_total_ns"] * 1.01
        with pytest.raises(ValueError, match="degenerate geometry"):
            validate_hiersweep_json(bad)

    def test_rejects_staging_in_degenerate_geometry(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._degenerate_point(bad)]
        p["hier_nic_transfers"] = 1.0
        with pytest.raises(ValueError, match="staged traffic"):
            validate_hiersweep_json(bad)

    def test_rejects_stale_rate_bound_flag(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._active_point(bad)]
        p["message_rate_bound"] = not p["message_rate_bound"]
        with pytest.raises(ValueError, match="message_rate_bound"):
            validate_hiersweep_json(bad)

    def test_rejects_rate_bound_point_without_win(self, payload):
        bad = copy.deepcopy(payload)
        p = bad["points"][self._active_point(bad)]
        # Force the predicate true by inflating the per-message cost, then
        # erase the win.
        p["nic_per_message_ns"] = 1e12
        p["message_rate_bound"] = True
        p["hier_total_ns"] = p["flat_total_ns"]
        with pytest.raises(ValueError, match="no wall-time win"):
            validate_hiersweep_json(bad)

    def test_rejects_single_node_nic_traffic(self, payload):
        bad = copy.deepcopy(payload)
        i = next(
            i for i, p in enumerate(bad["points"]) if p["n_nodes"] == 1
        )
        bad["points"][i]["flat_inter_messages"] = 5
        bad["points"][i]["hier_inter_messages"] = 5
        with pytest.raises(ValueError, match="single node carried"):
            validate_hiersweep_json(bad)

    def test_rejects_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_hiersweep_json(bad)

    def test_rejects_unknown_backend(self, payload):
        bad = copy.deepcopy(payload)
        bad["points"][0]["backend"] = "carrier-pigeon"
        with pytest.raises(ValueError, match="unknown base backend"):
            validate_hiersweep_json(bad)


class TestArtifactFile:
    def test_write_json_is_loadable_and_valid(self, sweep, tmp_path):
        path = tmp_path / "BENCH_hier.json"
        sweep.write_json(path)
        validate_hiersweep_json(json.loads(path.read_text()))

    def test_rate_bound_point_wins(self):
        """A small-message PGAS sweep point must be flagged and must win."""
        sweep = run_hiersweep(
            "tiny", bases=("pgas",), nodes=(2,), devices_per_node=(2,),
            message_sizes=(32,), n_batches=1,
        )
        p = sweep.point("pgas", 2, 2, 32)
        assert p.message_rate_bound
        assert p.speedup > 1.0
