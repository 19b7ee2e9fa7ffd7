"""Tests for the timed end-to-end DLRM inference pipeline."""

from __future__ import annotations

import pytest

from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig, PipelineTiming
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu import dgx_v100


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


class TestConfig:
    def test_mlp_sizes(self):
        cfg = make_config()
        assert cfg.bottom_sizes[0] == 13
        assert cfg.bottom_sizes[-1] == 64
        assert cfg.top_sizes[-1] == 1
        # dot interaction: d + (F+1)F/2 inputs to the top MLP
        assert cfg.top_sizes[0] == 64 + 33 * 32 // 2

    def test_flops_per_sample(self):
        cfg = make_config()
        assert cfg.mlp_flops_per_sample([4, 8, 2]) == 2 * 4 * 8 + 2 * 8 * 2

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            DLRMInferencePipeline(make_config(), 2, backend="gloo")  # type: ignore[arg-type]

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DLRMInferencePipeline(make_config(), 2, h2d_bandwidth=0.0)


class TestStages:
    def test_all_stages_positive(self, lengths):
        pipe = DLRMInferencePipeline(make_config(), 2)
        t = pipe.run_batch(lengths)
        assert t.input_copy_ns > 0
        assert t.dense_mlp_ns > 0
        assert t.emb.total_ns > 0
        assert t.interaction_top_ns > 0
        assert t.total_ns > 0

    def test_stage_sum_with_overlap(self, lengths):
        """total = copy + max(dense, emb)-ish + tail: stages overlap."""
        pipe = DLRMInferencePipeline(make_config(), 2)
        t = pipe.run_batch(lengths)
        serial = t.input_copy_ns + t.dense_mlp_ns + t.emb.total_ns + t.interaction_top_ns
        assert t.total_ns < serial  # Fig.-4 concurrency saves time
        assert t.overlap_saved_ns > 0
        assert t.total_ns == pytest.approx(serial - t.overlap_saved_ns, rel=1e-6)

    def test_emb_dominates_this_shape(self, lengths):
        """For DLRM shapes, the EMB stage is the bottleneck (paper intro)."""
        pipe = DLRMInferencePipeline(make_config(), 2)
        t = pipe.run_batch(lengths)
        assert t.emb.total_ns > t.dense_mlp_ns
        assert t.emb_fraction > 0.3

    def test_pgas_pipeline_faster(self, lengths):
        cfg = make_config()
        t_base = DLRMInferencePipeline(cfg, 2, backend="baseline").run_batch(lengths)
        t_pgas = DLRMInferencePipeline(cfg, 2, backend="pgas").run_batch(lengths)
        assert t_pgas.total_ns < t_base.total_ns
        # End-to-end gain is smaller than the EMB-only gain (Amdahl).
        emb_speedup = t_base.emb.total_ns / t_pgas.emb.total_ns
        e2e_speedup = t_base.total_ns / t_pgas.total_ns
        assert 1.0 < e2e_speedup < emb_speedup

    def test_backend_override(self, lengths):
        pipe = DLRMInferencePipeline(make_config(), 2, backend="pgas")
        t = pipe.run_batch(lengths, backend="baseline")
        assert t.emb.sync_unpack_ns > 0  # baseline path actually ran

    def test_repeated_batches_take_equal_time(self, lengths):
        single = DLRMInferencePipeline(make_config(), 2).run_batch(lengths)
        pipe = DLRMInferencePipeline(make_config(), 2)
        times = [pipe.run_batch(lengths).total_ns for _ in range(3)]
        assert times == pytest.approx([single.total_ns] * 3, rel=1e-6)

    def test_single_gpu_pipeline(self, lengths):
        pipe = DLRMInferencePipeline(make_config(), 1)
        t = pipe.run_batch(lengths)
        assert t.emb.comm_ns == 0.0
        assert t.total_ns > 0


class TestPipelineTiming:
    def test_add(self):
        a = PipelineTiming(input_copy_ns=1, dense_mlp_ns=2, interaction_top_ns=3,
                           total_ns=10, batches=1)
        b = PipelineTiming(input_copy_ns=10, dense_mlp_ns=20, interaction_top_ns=30,
                           total_ns=100, batches=1)
        a.add(b)
        assert a.input_copy_ns == 11 and a.total_ns == 110 and a.batches == 2

    def test_emb_fraction_empty(self):
        assert PipelineTiming().emb_fraction == 0.0


class TestInputStagingOverlap:
    """The §V input-pipelining proposal."""

    def test_overlap_reduces_total(self, lengths):
        cfg = make_config()
        t_plain = DLRMInferencePipeline(cfg, 2).run_batch(lengths)
        t_olap = DLRMInferencePipeline(
            cfg, 2, overlap_input_staging=True, staging_chunks=8
        ).run_batch(lengths)
        assert t_olap.total_ns < t_plain.total_ns
        # Savings bounded by the staging time itself.
        assert t_plain.total_ns - t_olap.total_ns <= t_plain.input_copy_ns

    def test_first_chunk_gates_compute(self, lengths):
        """With K chunks, the visible staging stage is ~1/K of the copy."""
        cfg = make_config()
        t_plain = DLRMInferencePipeline(cfg, 2).run_batch(lengths)
        t_olap = DLRMInferencePipeline(
            cfg, 2, overlap_input_staging=True, staging_chunks=4
        ).run_batch(lengths)
        assert t_olap.input_copy_ns == pytest.approx(
            t_plain.input_copy_ns / 4, rel=1e-6
        )

    def test_copies_still_complete(self, lengths):
        """Pipelining must not drop input bytes: the batch waits for them."""
        cfg = make_config()
        pipe = DLRMInferencePipeline(cfg, 2, overlap_input_staging=True)
        pipe.run_batch(lengths)
        for dev in pipe.cluster.devices:
            assert 0.0 < dev.stream("h2d")._booked_end <= pipe.cluster.engine.now

    def test_bad_chunk_count(self):
        with pytest.raises(ValueError):
            DLRMInferencePipeline(make_config(), 2, staging_chunks=0)
