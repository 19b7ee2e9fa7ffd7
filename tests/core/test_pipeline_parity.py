"""The pipeline, the server and the training step build their EMB stage
through the backend factory, exactly as ``DistributedEmbedding`` does.

For every lengths-driven backend the pipeline's EMB phase timing equals a
standalone ``forward_timed`` on the same lengths, field for field.  The
pipeline's EMB stage starts after input staging, so each phase is a
difference of larger absolute clock values: the two agree to float
rounding (a few ulp), not bit for bit.
"""

from __future__ import annotations

import re

import pytest

from repro.comm.hier import HierSpec
from repro.compress import CompressionSpec
from repro.core.factory import FeatureSpec
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.retrieval import DistributedEmbedding, adapter_class, available_backends
from repro.core.serving import InferenceServer, ServingSpec
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.units import ms

CFG = WorkloadConfig(
    num_tables=8, rows_per_table=4096, dim=32, batch_size=1024, max_pooling=8, seed=1,
)
LENGTHS_BACKENDS = [b for b in available_backends() if not adapter_class(b).requires_indices]
FEATURE_BACKENDS = [b for b in available_backends() if "+" in b]


def emb_timings(backend, n_devices=4, **kwargs):
    """(pipeline EMB phase timing, standalone forward timing) as dicts."""
    lengths = SyntheticDataGenerator(CFG).lengths_batch()
    pipe = DLRMInferencePipeline(
        PipelineConfig(workload=CFG), n_devices, backend=backend, **kwargs
    )
    emb = DistributedEmbedding(CFG, n_devices, backend=backend, **kwargs)
    return pipe.run_batch(lengths).emb.as_dict(), emb.forward_timed(lengths).as_dict()


@pytest.mark.parametrize("backend", LENGTHS_BACKENDS)
def test_pipeline_emb_matches_standalone_forward(backend):
    got, want = emb_timings(backend)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("base", ["pgas", "baseline"])
def test_int8_compression_reaches_the_pipeline(base):
    features = FeatureSpec(compression=CompressionSpec(codec="int8"))
    got, want = emb_timings(f"{base}+compress", features=features)
    assert got == pytest.approx(want, rel=1e-12)
    plain, _ = emb_timings(base)
    assert got["total_ns"] != plain["total_ns"]  # the codec really ran


@pytest.mark.parametrize("base", ["pgas", "baseline"])
def test_hier_2x4_reaches_the_pipeline(base):
    features = FeatureSpec(hier=HierSpec(devices_per_node=4))
    got, want = emb_timings(f"{base}+hier", n_devices=8, features=features)
    assert got == pytest.approx(want, rel=1e-12)
    pipe = DLRMInferencePipeline(
        PipelineConfig(workload=CFG), 8, backend=f"{base}+hier", features=features
    )
    inter = pipe.cluster.interconnect
    # The pipeline auto-builds the same 2x4 multi-node cluster.
    assert inter.link(3, 4).spec.bandwidth < inter.link(0, 1).spec.bandwidth


def test_server_serves_the_named_backend():
    def p50(backend):
        pipe = DLRMInferencePipeline(PipelineConfig(workload=CFG), 4, backend=backend)
        spec = ServingSpec(arrival_qps=50_000, max_batch=64, batch_window_ns=0.5 * ms)
        return InferenceServer(pipe, spec).simulate(64).p50_ms

    compressed = p50("baseline+compress")
    assert compressed != p50("pgas")
    assert compressed == p50("baseline")  # fp32 passthrough: same as its base


def test_pipeline_registers_weights_only_on_demand():
    pipe = DLRMInferencePipeline(PipelineConfig(workload=CFG), 4, backend="pgas")
    pipe.run_batch(SyntheticDataGenerator(CFG).lengths_batch())
    assert all(dev.memory.used == 0 for dev in pipe.cluster.devices)
    assert set(pipe.weight_buffer_map()) == {t.name for t in CFG.table_configs()}
    assert all(dev.memory.used > 0 for dev in pipe.cluster.devices)


@pytest.mark.parametrize("backend", FEATURE_BACKENDS)
def test_training_rejects_feature_stacks(backend):
    with pytest.raises(ValueError, match=re.escape(repr(backend))):
        DLRMTrainingPipeline(PipelineConfig(workload=CFG), 4, backend=backend)
