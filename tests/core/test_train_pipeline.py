"""Tests for the timed training-step pipeline."""

from __future__ import annotations

import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.train_pipeline import DLRMTrainingPipeline, TrainStepTiming
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig


def make_config(**kw):
    defaults = dict(
        num_tables=32, rows_per_table=10_000, dim=64, batch_size=8192,
        max_pooling=24, num_dense_features=13, seed=3,
    )
    defaults.update(kw)
    return PipelineConfig(workload=WorkloadConfig(**defaults))


@pytest.fixture(scope="module")
def lengths():
    cfg = make_config()
    return SyntheticDataGenerator(cfg.workload).lengths_batch()


class TestTrainStep:
    def test_phases_positive_and_compose(self, lengths):
        pipe = DLRMTrainingPipeline(make_config(), 2)
        t = pipe.run_step(lengths)
        assert t.forward.total_ns > 0
        assert t.dense_backward_ns > 0
        assert t.emb_backward.total_ns > 0
        assert t.total_ns > t.forward.total_ns
        # backward phase overlaps dense and EMB paths
        assert t.total_ns < (
            t.forward.total_ns + t.dense_backward_ns + t.emb_backward.total_ns
        )

    def test_backward_not_cheaper_than_forward_emb(self, lengths):
        """§V: gradient traffic is at least comparable to the forward's."""
        pipe = DLRMTrainingPipeline(make_config(), 2, backend="baseline")
        t = pipe.run_step(lengths)
        assert t.emb_backward.total_ns > 0.5 * t.forward.emb.total_ns

    def test_pgas_wins_per_training_step(self, lengths):
        cfg = make_config()
        t_base = DLRMTrainingPipeline(cfg, 2, backend="baseline").run_step(lengths)
        t_pgas = DLRMTrainingPipeline(cfg, 2, backend="pgas").run_step(lengths)
        assert t_pgas.total_ns < t_base.total_ns
        # And the win exceeds the inference-only pipeline's win: the EMB
        # communication is paid twice per step.
        fwd_speedup = t_base.forward.total_ns / t_pgas.forward.total_ns
        step_speedup = t_base.total_ns / t_pgas.total_ns
        assert step_speedup > 0.9 * fwd_speedup  # at least comparable

    def test_backend_override(self, lengths):
        pipe = DLRMTrainingPipeline(make_config(), 2, backend="pgas")
        t = pipe.run_step(lengths, backend="baseline")
        assert t.emb_backward.comm_ns > 0  # collective backward really ran

    def test_single_gpu_step(self, lengths):
        pipe = DLRMTrainingPipeline(make_config(), 1)
        t = pipe.run_step(lengths)
        assert t.emb_backward.comm_ns == 0.0
        assert t.total_ns > 0

    def test_repeated_steps_take_equal_time(self, lengths):
        single = DLRMTrainingPipeline(make_config(), 2).run_step(lengths)
        pipe = DLRMTrainingPipeline(make_config(), 2)
        times = [pipe.run_step(lengths).total_ns for _ in range(3)]
        assert times == pytest.approx([single.total_ns] * 3, rel=1e-6)


class TestTiming:
    def test_add(self):
        a = TrainStepTiming(dense_backward_ns=5, total_ns=10, steps=1)
        b = TrainStepTiming(dense_backward_ns=7, total_ns=20, steps=1)
        a.add(b)
        assert a.dense_backward_ns == 12 and a.total_ns == 30 and a.steps == 2
