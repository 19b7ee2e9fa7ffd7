"""FaultPlan/FaultEvent: validation, queries, and seeded generation."""

from __future__ import annotations

import pytest

from repro.faults import DEVICE_KINDS, FAULT_KINDS, LINK_KINDS, FaultEvent, FaultPlan
from repro.simgpu.units import ms


class TestFaultEventValidation:
    def test_kinds_partition(self):
        assert set(FAULT_KINDS) == set(LINK_KINDS) | set(DEVICE_KINDS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("gpu_on_fire", 0.0, 1.0, device=0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            FaultEvent("device_stall", 5.0, 5.0, device=0)
        with pytest.raises(ValueError):
            FaultEvent("device_stall", -1.0, 5.0, device=0)
        with pytest.raises(ValueError):
            FaultEvent("device_stall", float("nan"), 5.0, device=0)

    def test_link_kind_needs_pair(self):
        with pytest.raises(ValueError, match="directed pair"):
            FaultEvent("link_down", 0.0, 1.0)
        with pytest.raises(ValueError, match="directed pair"):
            FaultEvent("link_down", 0.0, 1.0, src=1, dst=1)

    def test_device_kind_needs_device(self):
        with pytest.raises(ValueError, match="device id"):
            FaultEvent("device_stall", 0.0, 1.0)

    def test_severity_bounds_per_kind(self):
        with pytest.raises(ValueError, match="remaining bandwidth"):
            FaultEvent("link_degrade", 0.0, 1.0, src=0, dst=1, severity=0.0)
        with pytest.raises(ValueError, match="remaining bandwidth"):
            FaultEvent("link_degrade", 0.0, 1.0, src=0, dst=1, severity=1.5)
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent("link_latency", 0.0, 1.0, src=0, dst=1, severity=-1.0)
        with pytest.raises(ValueError, match="stretch factor"):
            FaultEvent("device_slowdown", 0.0, 1.0, device=0, severity=0.5)

    def test_labels(self):
        assert (
            FaultEvent("link_down", 0.0, 1.0, src=2, dst=0).label()
            == "fault.link_down.2->0"
        )
        assert (
            FaultEvent("device_stall", 0.0, 1.0, device=3).label()
            == "fault.device_stall.dev3"
        )

    def test_duration(self):
        assert FaultEvent("device_stall", 2.0, 7.0, device=0).duration_ns == 5.0


class TestFaultPlan:
    def test_empty(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.max_devices_referenced() == 0

    def test_type_validation(self):
        with pytest.raises(TypeError):
            FaultPlan(("not an event",))

    def test_queries(self):
        a = FaultEvent("link_down", 0.0, 1.0, src=0, dst=1)
        b = FaultEvent("device_stall", 0.0, 1.0, device=2)
        plan = FaultPlan((a, b))
        assert plan.max_devices_referenced() == 3


class TestGenerate:
    def test_severity_zero_is_empty(self):
        assert FaultPlan.generate(4, 10 * ms, severity=0.0).events == ()

    def test_zero_events_per_kind_is_empty(self):
        assert FaultPlan.generate(4, 10 * ms, severity=0.9, events_per_kind=0).events == ()

    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(4, 10 * ms, severity=0.7, seed=11)
        b = FaultPlan.generate(4, 10 * ms, severity=0.7, seed=11)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seed_differs(self):
        a = FaultPlan.generate(4, 10 * ms, severity=0.7, seed=1)
        b = FaultPlan.generate(4, 10 * ms, severity=0.7, seed=2)
        assert a.events != b.events

    def test_single_device_has_no_link_faults(self):
        plan = FaultPlan.generate(1, 10 * ms, severity=0.9)
        assert len(plan) > 0
        assert all(ev.kind in DEVICE_KINDS for ev in plan.events)

    def test_flaps_only_at_high_severity(self):
        mild = FaultPlan.generate(4, 10 * ms, severity=0.3, seed=0)
        harsh = FaultPlan.generate(4, 10 * ms, severity=0.9, seed=0)
        assert not any(ev.kind == "link_down" for ev in mild.events)
        assert any(ev.kind == "link_down" for ev in harsh.events)

    def test_fits_referenced_devices(self):
        plan = FaultPlan.generate(3, 10 * ms, severity=0.8, seed=5)
        assert plan.max_devices_referenced() <= 3

    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            FaultPlan.generate(4, 10 * ms, severity=1.5)
        with pytest.raises(ValueError, match="duration_ns"):
            FaultPlan.generate(4, 0.0)
        with pytest.raises(ValueError, match="n_devices"):
            FaultPlan.generate(0, 10 * ms)
