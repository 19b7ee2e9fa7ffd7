"""Tests for the perf regression gate (repro.obs.regress)."""

from __future__ import annotations

import pytest

from repro.obs import GateResult, MetricCheck, Tolerance, compare_critpath


def artifact(points):
    return {"schema_version": 1, "preset": "tiny", "n_devices": 2,
            "n_batches": 2, "points": points}


def point(backend, wall, by_cat):
    return {"backend": backend, "wall_ns": wall, "by_category": dict(by_cat)}


class TestTolerance:
    def test_bound_is_one_sided_max_of_rel_and_abs(self):
        tol = Tolerance(rel=0.10, abs_ns=50.0)
        assert tol.bound(1000.0) == 1100.0  # rel dominates
        assert tol.bound(100.0) == 150.0    # abs floor dominates
        assert tol.bound(0.0) == 50.0       # new metrics get the abs floor

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-0.1)
        with pytest.raises(ValueError):
            Tolerance(abs_ns=-1.0)


class TestCompare:
    def test_identical_artifacts_pass(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        gate = compare_critpath(base, base)
        assert gate.passed
        assert not gate.breaches
        # wall_ns + one path category
        assert {c.metric for c in gate.checks} == {"wall_ns", "path.fused_ns"}

    def test_growth_within_tolerance_passes(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        fresh = artifact([point("pgas", 1040.0, {"fused": 1040.0})])
        assert compare_critpath(base, fresh).passed  # +4% < 5%

    def test_breach_detected_and_explained(self):
        base = artifact([point("baseline", 10000.0,
                               {"compute": 6000.0, "comm": 4000.0})])
        fresh = artifact([point("baseline", 13000.0,
                                {"compute": 6000.0, "comm": 7000.0})])
        gate = compare_critpath(base, fresh, tolerance=Tolerance(rel=0.05, abs_ns=10.0))
        assert not gate.passed
        breached = {c.metric for c in gate.breaches}
        assert breached == {"wall_ns", "path.comm_ns"}
        text = gate.render()
        assert "FAIL" in text
        assert "BREACH wall_ns" in text
        # The breach is explained via the path-category delta.
        assert "critical-path delta" in text
        assert "comm +3000 ns" in text

    def test_getting_faster_never_fails(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        fresh = artifact([point("pgas", 100.0, {"fused": 100.0})])
        assert compare_critpath(base, fresh).passed

    def test_missing_point_is_a_breach(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0}),
                         point("baseline", 2000.0, {"compute": 2000.0})])
        fresh = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        gate = compare_critpath(base, fresh)
        assert not gate.passed
        assert gate.missing_points == ["baseline"]
        assert "MISSING point 'baseline'" in gate.render()

    def test_extra_fresh_point_ignored(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        fresh = artifact([point("pgas", 1000.0, {"fused": 1000.0}),
                          point("baseline", 9e9, {"comm": 9e9})])
        assert compare_critpath(base, fresh).passed

    def test_category_leaving_the_path_passes(self):
        """A category present in base but gone fresh compares as 0 — fine."""
        base = artifact([point("baseline", 1000.0,
                               {"compute": 900.0, "idle": 100.0})])
        fresh = artifact([point("baseline", 950.0, {"compute": 950.0})])
        gate = compare_critpath(base, fresh, tolerance=Tolerance(rel=0.1, abs_ns=10.0))
        assert gate.passed

    def test_new_category_checked_against_abs_floor(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        fresh = artifact([point("pgas", 1000.0,
                                {"fused": 500.0, "comm": 500.0})])
        gate = compare_critpath(base, fresh, tolerance=Tolerance(rel=0.05, abs_ns=100.0))
        assert not gate.passed
        assert {c.metric for c in gate.breaches} == {"path.comm_ns"}

    def test_pass_render_shape(self):
        base = artifact([point("pgas", 1000.0, {"fused": 1000.0})])
        text = compare_critpath(base, base).render()
        assert text.startswith("regression gate: PASS")
        assert "2 metrics checked, 0 breached" in text


class TestGateResult:
    def test_empty_result_passes(self):
        assert GateResult().passed

    def test_check_properties(self):
        c = MetricCheck(point="pgas", metric="wall_ns",
                        base=100.0, fresh=130.0, bound=110.0)
        assert c.breached
        assert "BREACH wall_ns: 100 -> 130 ns (+30, bound 110)" in GateResult([c]).render()
