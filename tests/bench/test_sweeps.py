"""Tests for the generic parameter sweep machinery."""

from __future__ import annotations

import pytest

from repro.bench.sweeps import (
    Sweep,
    batch_size_sweep,
    pooling_sweep,
    table_count_sweep,
)
from repro.dlrm.data import WorkloadConfig


def base_cfg():
    return WorkloadConfig(num_tables=8, rows_per_table=2000, dim=16,
                          batch_size=1024, max_pooling=8, seed=4)


class TestSweepMachinery:
    def test_points_in_order(self):
        result = batch_size_sweep(base_cfg()).run([256, 512, 1024])
        assert [p.value for p in result.points] == [256.0, 512.0, 1024.0]
        assert result.point(512.0).value == 512.0

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            batch_size_sweep(base_cfg()).run([])

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Sweep("x", lambda c, v: c, base_cfg(), n_devices=0)
        with pytest.raises(ValueError):
            Sweep("x", lambda c, v: c, base_cfg(), n_batches=0)

    def test_render_contains_rows(self):
        result = pooling_sweep(base_cfg()).run([4, 8])
        text = result.render()
        assert "max_pooling" in text
        assert "speedup" in text
        assert "4" in text and "8" in text

    def test_deterministic(self):
        a = pooling_sweep(base_cfg()).run([4])
        b = pooling_sweep(base_cfg()).run([4])
        assert a.points[0].baseline.total_ns == b.points[0].baseline.total_ns

    def test_n_batches_accumulate(self):
        one = batch_size_sweep(base_cfg(), n_batches=1).run([512])
        three = batch_size_sweep(base_cfg(), n_batches=3).run([512])
        assert three.points[0].baseline.batches == 3
        assert three.points[0].baseline.total_ns > one.points[0].baseline.total_ns


class TestSweepSemantics:
    def test_batch_size_monotone_runtime(self):
        result = batch_size_sweep(base_cfg()).run([256, 1024, 4096])
        base_times = [p.baseline.total_ns for p in result.points]
        assert base_times == sorted(base_times)

    def test_pooling_monotone_runtime(self):
        result = pooling_sweep(base_cfg()).run([2, 8, 32])
        pgas_times = [p.pgas.total_ns for p in result.points]
        assert pgas_times == sorted(pgas_times)

    def test_table_count_sweep_changes_tables(self):
        result = table_count_sweep(base_cfg()).run([4, 16])
        assert result.points[1].baseline.total_ns > result.points[0].baseline.total_ns

    def test_speedup_above_one_everywhere(self):
        result = pooling_sweep(base_cfg()).run([4, 16])
        assert all(p.speedup > 1.0 for p in result.points)
