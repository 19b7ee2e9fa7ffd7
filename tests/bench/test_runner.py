"""Tests for the one-call experiment runner."""

from __future__ import annotations

import pytest

from repro.bench.runner import EXPERIMENT_IDS, ExperimentRunner, scaled_config
from repro.dlrm.data import WEAK_SCALING_BASE


class TestScaledConfig:
    def test_identity_at_full_scale(self):
        assert scaled_config(WEAK_SCALING_BASE, 1.0).batch_size == 16384

    def test_shrinks_batch(self):
        assert scaled_config(WEAK_SCALING_BASE, 0.25).batch_size == 4096

    def test_floor(self):
        assert scaled_config(WEAK_SCALING_BASE, 0.001).batch_size == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_config(WEAK_SCALING_BASE, 0.0)
        with pytest.raises(ValueError):
            scaled_config(WEAK_SCALING_BASE, 1.5)


@pytest.fixture(scope="module")
def runner():
    # Tiny but wave-meaningful: scale 1/8 batch, 2 batches, 1-2 GPUs.
    return ExperimentRunner(n_batches=2, scale=0.125, device_counts=(1, 2))


class TestRunner:
    def test_all_ids_render(self, runner):
        for eid in EXPERIMENT_IDS:
            text = runner.render(eid)
            assert isinstance(text, str) and text

    def test_unknown_id(self, runner):
        with pytest.raises(KeyError):
            runner.render("F99")

    def test_case_insensitive(self, runner):
        assert runner.render("t1") == runner.render("T1")

    def test_sweeps_cached(self, runner):
        assert runner.weak() is runner.weak()
        assert runner.strong() is runner.strong()

    def test_weak_speedup_above_one(self, runner):
        assert runner.weak().geomean_speedup > 1.0

    def test_strong_speedup_above_one(self, runner):
        assert runner.strong().geomean_speedup > 1.0
