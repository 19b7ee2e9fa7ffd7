"""Tests for the runtime-breakdown derivation (Figs. 6/9)."""

from __future__ import annotations

import pytest

from repro.bench.breakdown import breakdown_from_scaling
from repro.bench.scaling import run_weak_scaling
from repro.dlrm.data import WorkloadConfig


@pytest.fixture(scope="module")
def weak_breakdown():
    cfg = WorkloadConfig(num_tables=8, rows_per_table=1000, dim=16,
                         batch_size=2048, max_pooling=8, seed=1)
    return breakdown_from_scaling(
        run_weak_scaling(cfg, device_counts=(1, 2, 4), n_batches=2)
    )


@pytest.fixture(scope="module")
def bars(weak_breakdown):
    return {b.n_devices: b for b in weak_breakdown.bars}


class TestBreakdown:
    def test_one_bar_per_point(self, weak_breakdown):
        assert [b.n_devices for b in weak_breakdown.bars] == [1, 2, 4]

    def test_components_sum_to_total(self, weak_breakdown):
        for b in weak_breakdown.bars:
            assert b.baseline_total_ns == pytest.approx(
                b.baseline_compute_ns + b.baseline_comm_ns + b.baseline_sync_unpack_ns
            )

    def test_single_gpu_has_no_comm(self, bars):
        b1 = bars[1]
        assert b1.baseline_comm_ns == 0.0

    def test_weak_compute_flat(self, bars):
        """Weak scaling: per-GPU computation stays constant (paper §IV-A)."""
        c1 = bars[1].baseline_compute_ns
        for g in (2, 4):
            assert bars[g].baseline_compute_ns == pytest.approx(c1, rel=0.05)

    def test_weak_comm_decreases(self, bars):
        """More GPUs → more parallel links → shorter comm phase."""
        assert bars[4].baseline_comm_ns < bars[2].baseline_comm_ns

    def test_weak_sync_unpack_increases(self, bars):
        """More received data per GPU → more unpack work (paper §IV-A)."""
        assert (
            bars[4].baseline_sync_unpack_ns
            > bars[2].baseline_sync_unpack_ns
        )

    def test_pgas_total_near_baseline_compute(self, bars):
        """The paper's key plot: PGAS bar ≈ baseline compute component."""
        for g in (2, 4):
            b = bars[g]
            assert b.pgas_total_ns < 1.25 * b.baseline_compute_ns
            assert b.pgas_total_ns < 0.7 * b.baseline_total_ns

    def test_as_dict_keys(self, bars):
        d = bars[2].as_dict()
        assert set(d) == {
            "n_devices",
            "baseline_compute_ns",
            "baseline_comm_ns",
            "baseline_sync_unpack_ns",
            "baseline_total_ns",
            "pgas_total_ns",
        }
