"""ReshardSpec validation, LoadTracker window semantics, and the
planner's balance/capacity/advisory logic — no simulated time involved."""

from __future__ import annotations

import pytest

from repro.core.planner import plan_table_wise
from repro.core.sharding import TableWiseSharding
from repro.dlrm.data import WorkloadConfig
from repro.reshard import (
    LoadTracker,
    MigrationPlan,
    ReshardPlanner,
    ReshardSpec,
)
from repro.reshard import planner as planner_mod
from repro.reshard.planner import owner_loads


def tables_plan(num_tables=8, n_devices=4, rows=1024, dim=16):
    cfg = WorkloadConfig(
        num_tables=num_tables, rows_per_table=rows, dim=dim,
        batch_size=64, max_pooling=4, seed=3,
    )
    return TableWiseSharding(cfg.table_configs(), n_devices)


class TestReshardSpec:
    def test_defaults_valid(self):
        spec = ReshardSpec()
        assert spec.window_batches >= spec.min_batches
        assert spec.imbalance_threshold >= 1.0

    @pytest.mark.parametrize("kw", [
        {"window_batches": 0},
        {"min_batches": 0},
        {"min_batches": 9, "window_batches": 8},
        {"check_interval_batches": 0},
        {"imbalance_threshold": 0.99},
    ])
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            ReshardSpec(**kw)

    def test_frozen(self):
        with pytest.raises(Exception):
            ReshardSpec().window_batches = 3  # type: ignore[misc]


class TestLoadTracker:
    def test_window_eviction(self):
        tr = LoadTracker(2)
        tr.observe({"a": 100.0})
        tr.observe({"a": 10.0})
        tr.observe({"a": 1.0})  # evicts the 100-byte batch
        assert tr.window_fill == 2
        assert tr.batches_observed == 3
        assert tr.table_traffic() == {"a": 11.0}

    def test_hit_rates_shrink_tracked_traffic(self):
        tr = LoadTracker(4)
        tr.observe({"a": 100.0, "b": 100.0}, hit_rates={"a": 0.75})
        traffic = tr.table_traffic()
        assert traffic["a"] == pytest.approx(25.0)
        assert traffic["b"] == pytest.approx(100.0)

    def test_rejects_bad_inputs(self):
        tr = LoadTracker(2)
        with pytest.raises(ValueError):
            tr.observe({"a": -1.0})
        with pytest.raises(ValueError):
            tr.observe({"a": 1.0}, hit_rates={"a": 1.5})
        with pytest.raises(ValueError):
            LoadTracker(0)

    def test_imbalance_and_reset(self):
        tr = LoadTracker(4)
        tr.observe({"a": 300.0, "b": 100.0})
        owners = {"a": 0, "b": 1}
        assert owner_loads(tr.table_traffic(), owners, 2)[2] == pytest.approx(1.5)
        fresh = LoadTracker(4)  # a new tracker is the reset: no history
        assert fresh.window_fill == 0
        assert owner_loads(fresh.table_traffic(), owners, 2) == ([0.0, 0.0], 0.0, 1.0)


class TestReshardPlanner:
    def _free(self, plan, nbytes=1 << 40):
        return [float(nbytes)] * plan.n_devices

    def _owners(self, plan):
        return {cfg.name: plan.owner_of(cfg.name) for cfg in plan.table_configs}

    def test_uniform_traffic_provably_emits_nothing(self):
        """The zero-skew proof: max/mean == 1.0 is at or below any legal
        threshold, so a balanced window can never produce a plan."""
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.0))
        traffic = {cfg.name: 1000.0 for cfg in plan.table_configs}
        verdict = planner.propose(traffic, self._owners(plan), self._free(plan))
        assert verdict.empty
        assert not verdict.advisories
        assert verdict.imbalance_before == pytest.approx(1.0)
        assert verdict.imbalance_after == verdict.imbalance_before

    def test_skewed_traffic_plans_improving_moves(self):
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.1))
        owners = self._owners(plan)
        traffic = {name: 100.0 for name in owners}
        hot_dev = 0
        for name, dev in owners.items():
            if dev == hot_dev:
                traffic[name] = 5000.0
        verdict = planner.propose(traffic, owners, self._free(plan))
        assert not verdict.empty
        assert verdict.imbalance_after < verdict.imbalance_before
        # The first (largest-gap) move drains the hot device.
        assert verdict.moves[0].src == hot_dev
        for move in verdict.moves:
            assert move.src != move.dst
            assert move.nbytes > 0

    def test_capacity_blocks_moves(self):
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.1))
        owners = self._owners(plan)
        traffic = {name: (5000.0 if dev == 0 else 100.0)
                   for name, dev in owners.items()}
        verdict = planner.propose(traffic, owners, [0.0] * plan.n_devices)
        assert verdict.empty  # nowhere has room for a single table

    def test_frozen_tables_do_not_move(self):
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.1))
        owners = self._owners(plan)
        traffic = {name: (5000.0 if dev == 0 else 100.0)
                   for name, dev in owners.items()}
        frozen = tuple(n for n, d in owners.items() if d == 0)
        verdict = planner.propose(traffic, owners, self._free(plan), frozen=frozen)
        assert all(m.table_name not in frozen for m in verdict.moves)

    def test_single_dominant_table_yields_row_split_advisory(self):
        """A table hotter than the per-device mean cannot be balanced by
        any whole-table placement — the planner must say so."""
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.1))
        owners = self._owners(plan)
        traffic = {name: 1.0 for name in owners}
        dominant = next(iter(owners))
        traffic[dominant] = 1_000_000.0
        verdict = planner.propose(traffic, owners, self._free(plan))
        assert any(a.table_name == dominant for a in verdict.advisories)
        adv = next(a for a in verdict.advisories if a.table_name == dominant)
        assert adv.device_id == owners[dominant]
        assert len(adv.shards) == plan.n_devices
        total_rows = sum(s.num_rows for s in adv.shards)
        assert total_rows == plan.table_configs[0].num_rows

    def test_move_budget_respected(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "MAX_MOVES_PER_PLAN", 1)
        plan = tables_plan()
        planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=1.0001))
        owners = self._owners(plan)
        traffic = {name: (5000.0 if dev == 0 else 100.0)
                   for name, dev in owners.items()}
        verdict = planner.propose(traffic, owners, self._free(plan))
        assert len(verdict.moves) <= 1

    def test_free_bytes_shape_checked(self):
        plan = tables_plan()
        planner = ReshardPlanner(plan)
        with pytest.raises(ValueError):
            planner.propose({}, self._owners(plan), [1.0])

    def test_empty_plan_properties(self):
        empty = MigrationPlan()
        assert empty.empty
        assert empty.moves == ()


class TestPlacementReportWidths:
    def test_summary_column_widths_stable_across_device_counts(self):
        """Device ids are padded to the widest id, so the table keeps its
        alignment when the cluster grows past 10 devices."""
        cfg = WorkloadConfig(
            num_tables=24, rows_per_table=512, dim=8,
            batch_size=32, max_pooling=2, seed=1,
        )
        report = plan_table_wise(cfg.table_configs(), n_devices=12)
        lines = [ln for ln in report.summary().splitlines() if ln.strip()]
        widths = {len(ln) for ln in lines if ln.lstrip().startswith("dev")}
        assert len(widths) == 1
