"""A finished simulation is freed by reference counting alone.

The simulator's object graph holds no back-references (a stream keeps
its device's id and spec, PGAS delivery callbacks close over a count),
so dropping the last reference to an embedding, a pipeline or a server
frees the whole cluster at once instead of leaving it for the cyclic GC.
That holds for every registered backend: a feature adapter's
self-rescheduling engine callbacks refer to it only weakly.  Each case builds and runs one object with automatic collection off, drops
it, and checks that a full collection finds nothing unreachable.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.retrieval import DistributedEmbedding, adapter_class, available_backends
from repro.core.serving import InferenceServer, SchedulerSpec, ServingSpec
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.dlrm.data import LengthsBatch, SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.units import ms

WL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=64, max_pooling=4, seed=2
)


def _unreachable_after(run) -> int:
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    return gc.collect()


@pytest.mark.parametrize("backend", available_backends())
def test_distributed_embedding_leaves_no_cycles(backend):
    def run():
        emb = DistributedEmbedding(WL, 4, backend=backend)
        gen = SyntheticDataGenerator(WL)
        if adapter_class(backend).requires_indices:
            emb.forward(gen.sparse_batch())
        else:
            emb.forward_timed(gen.lengths_batch())

    assert _unreachable_after(run) == 0


def test_training_pipeline_leaves_no_cycles():
    def run():
        pipe = DLRMTrainingPipeline(PipelineConfig(workload=WL), 2, backend="pgas")
        pipe.run_step(SyntheticDataGenerator(WL).lengths_batch())

    assert _unreachable_after(run) == 0


def test_inference_server_leaves_no_cycles():
    def run():
        pipe = DLRMInferencePipeline(PipelineConfig(workload=WL), 2, backend="pgas")
        spec = ServingSpec(
            arrival_qps=200_000.0, max_batch=8, batch_window_ns=0.1 * ms,
            scheduler=SchedulerSpec(max_in_flight=2),
        )
        InferenceServer(pipe, spec).simulate(40)

    assert _unreachable_after(run) == 0


def test_fixed_pooling_server_leaves_no_cycles_and_no_pool(monkeypatch):
    """Under fixed pooling the request pool keeps one cut per batch size,
    and each cut its built workloads, which key the fused kernel's launch
    plans.  All of it dies with the pool, when ``simulate`` returns, while
    the server and its pipeline live on."""
    fixed = dataclasses.replace(WL, min_pooling=4, max_pooling=4)
    cuts = []
    take = LengthsBatch.take

    def recording_take(self, rows):
        cut = take(self, rows)
        cuts.append(weakref.ref(cut))
        return cut

    monkeypatch.setattr(LengthsBatch, "take", recording_take)
    pipe = DLRMInferencePipeline(PipelineConfig(workload=fixed), 2, backend="pgas")
    spec = ServingSpec(
        arrival_qps=200_000.0, max_batch=8, batch_window_ns=0.1 * ms,
        scheduler=SchedulerSpec(max_in_flight=2),
    )
    server = InferenceServer(pipe, spec)

    def run():
        server.simulate(40)

    assert _unreachable_after(run) == 0
    assert cuts and all(ref() is None for ref in cuts)
    assert len(pipe.backend_adapter("pgas").base._plans) == 0
