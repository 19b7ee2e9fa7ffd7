"""Tests for the capacity-aware table placement planner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import (
    PlacementError,
    min_devices_required,
    plan_table_wise,
)
from repro.dlrm.embedding import EmbeddingTableConfig
from repro.dlrm.heterogeneous import criteo_like
from repro.simgpu.device import DeviceSpec
from repro.simgpu.units import GiB


def uniform_tables(n, rows=1_000_000, dim=64):
    return [EmbeddingTableConfig(f"t{i}", rows, dim) for i in range(n)]


def tiny_device(capacity_gib: float) -> DeviceSpec:
    return DeviceSpec(mem_bytes=int(capacity_gib * GiB))


class TestMinDevices:
    def test_fits_one(self):
        # 64 x 256 MB = 16 GiB < 0.9 x 32 GiB
        assert min_devices_required(uniform_tables(64)) == 1

    def test_needs_two(self):
        # 128 tables ≈ 30.5 GiB > 28.8 GiB usable
        assert min_devices_required(uniform_tables(128)) == 2

    def test_single_table_too_big(self):
        huge = [EmbeddingTableConfig("huge", 200_000_000, 64)]  # ~48 GiB
        with pytest.raises(PlacementError, match="row-wise"):
            min_devices_required(huge)

    def test_reserve_fraction_matters(self):
        tables = uniform_tables(120)  # ~28.6 GiB
        assert min_devices_required(tables, reserve_fraction=0.0) == 1
        assert min_devices_required(tables, reserve_fraction=0.5) == 2

    def test_bad_reserve(self):
        with pytest.raises(ValueError):
            min_devices_required(uniform_tables(1), reserve_fraction=1.0)


class TestPlan:
    def test_minimal_feasible_count(self):
        report = plan_table_wise(uniform_tables(128))
        assert report.n_devices == 2
        report.plan.validate()

    def test_explicit_count_respected(self):
        report = plan_table_wise(uniform_tables(64), n_devices=4)
        assert report.n_devices == 4
        assert sum(len(report.plan.tables_on(d)) for d in range(4)) == 64

    def test_infeasible_explicit_count_raises(self):
        with pytest.raises(PlacementError, match="do not fit"):
            plan_table_wise(uniform_tables(256), n_devices=2)

    def test_balanced_for_uniform_tables(self):
        report = plan_table_wise(uniform_tables(64), n_devices=4)
        assert report.imbalance == pytest.approx(1.0)

    def test_lpt_balances_skewed_tables(self):
        """One huge + many small: LPT puts the huge one alone-ish."""
        tables = [EmbeddingTableConfig("big", 50_000_000, 64)] + uniform_tables(48)
        report = plan_table_wise(tables, n_devices=2)
        assert report.imbalance < 1.25
        big_owner = report.plan.owner_of("big")
        # the big table's device should carry fewer small tables
        n_small = [len(report.plan.tables_on(d)) for d in range(2)]
        assert n_small[big_owner] < n_small[1 - big_owner]

    def test_criteo_like_placement(self):
        workload = criteo_like(num_tables=26, dim=64, seed=7)
        report = plan_table_wise(workload.table_configs())
        report.plan.validate()
        assert all(u <= 1.0 for u in report.utilization)
        assert "placement" in report.summary()

    def test_utilization_bounded(self):
        report = plan_table_wise(uniform_tables(100), n_devices=4)
        for u in report.utilization:
            assert 0.0 < u <= 1.0

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            plan_table_wise([])

    def test_max_devices_cap(self):
        with pytest.raises(PlacementError, match="no feasible placement"):
            plan_table_wise(uniform_tables(1000), max_devices=4)

    @settings(deadline=None, max_examples=25)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=30),
        G=st.integers(min_value=1, max_value=6),
    )
    def test_placement_properties(self, sizes, G):
        """Feasible placements are exact partitions within budget."""
        # rows scaled so each unit ~ 16 MiB; device = 4 GiB ⇒ 256 units/dev
        tables = [
            EmbeddingTableConfig(f"t{i}", s * 65536, 64) for i, s in enumerate(sizes)
        ]
        spec = tiny_device(4.0)
        try:
            report = plan_table_wise(tables, n_devices=G, device_spec=spec,
                                     reserve_fraction=0.1)
        except PlacementError:
            return  # infeasible is a legal outcome
        report.plan.validate()
        budget = spec.mem_bytes * 0.9
        for d in range(G):
            assert report.plan.memory_bytes(d) <= budget
        placed = sorted(
            t.name for d in range(G) for t in report.plan.tables_on(d)
        )
        assert placed == sorted(t.name for t in tables)
