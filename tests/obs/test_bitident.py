"""Disabled tracing is free: runs stay event-for-event, bit-identical.

The acceptance bar for the observability layer: with ``obs`` absent (or
present but disabled), every backend's profiler record — span names,
categories, devices, timestamps, counters — matches a run from before the
layer existed.  Since ``Span.trace`` defaults to ``None``, full dataclass
equality covers that too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.serving import InferenceServer, ServingSpec
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.obs import TraceSpec
from repro.simgpu.units import ms

WL = dict(num_tables=8, rows_per_table=2048, dim=16, batch_size=128,
          max_pooling=4, seed=11)

BACKENDS = ("pgas", "baseline", "pgas+compress", "baseline+cache",
            "pgas+resilient", "pgas+replicated", "baseline+replicated")


def _spans(obs, backend):
    cfg = WorkloadConfig(**WL)
    emb = DistributedEmbedding(cfg, 2, backend=backend,
                               features=FeatureSpec(obs=obs))
    gen = SyntheticDataGenerator(cfg)
    from repro.core.retrieval import adapter_class

    for _ in range(2):
        if adapter_class(backend).requires_indices:
            emb.forward(gen.sparse_batch())
        else:
            emb.forward_timed(gen.lengths_batch())
    return emb.cluster.profiler.spans, dict(emb.cluster.profiler.counters)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_bit_identical_with_tracing_off(backend):
    base_spans, base_counters = _spans(None, backend)
    off_spans, off_counters = _spans(TraceSpec(enabled=False), backend)
    assert off_spans == base_spans  # full equality, trace fields included
    assert set(off_counters) == set(base_counters)
    assert all(s.trace is None for s in off_spans)


@pytest.mark.parametrize("backend", ("pgas", "baseline"))
def test_tracing_changes_attribution_not_timing(backend):
    """Enabled tracing adds detail spans but never perturbs the timeline.

    The phase-level record (everything but the trace-gated ``kernel``/
    ``link`` detail spans) must match an untraced run timestamp-for-
    timestamp — tracing observes the simulation, it doesn't steer it.
    """
    from repro.obs.critpath import DETAIL_CATEGORIES

    base_spans, _ = _spans(None, backend)
    on_spans, _ = _spans(TraceSpec(), backend)

    def phases(spans):
        return [(s.name, s.category, s.device_id, s.t_start, s.t_end)
                for s in spans if s.category not in DETAIL_CATEGORIES]

    assert phases(on_spans) == phases(base_spans)
    extra = [s for s in on_spans if s.category in DETAIL_CATEGORIES]
    assert extra, "traced run should surface kernel/link detail spans"
    assert all(s.trace is not None for s in extra)
    assert all(s.trace is not None for s in on_spans)


def _serve(obs):
    cfg = WorkloadConfig(**WL)
    pipe = DLRMInferencePipeline(PipelineConfig(workload=cfg), 2,
                                 backend="pgas", features=FeatureSpec(obs=obs))
    server = InferenceServer(
        pipe, ServingSpec(arrival_qps=50_000, max_batch=16,
                          batch_window_ns=0.5 * ms, seed=5)
    )
    res = server.simulate(40)
    return res, pipe.cluster.profiler.spans


def test_serving_bit_identical_with_tracing_off():
    res_none, spans_none = _serve(None)
    res_off, spans_off = _serve(TraceSpec(enabled=False))
    assert spans_off == spans_none
    np.testing.assert_array_equal(res_off.latencies_ns, res_none.latencies_ns)
    assert res_off.batch_sizes == res_none.batch_sizes
    assert res_off.request_batch is None
    assert res_none.request_batch is None


def test_serving_tracing_preserves_latencies_and_adds_attribution():
    res_none, _ = _serve(None)
    res_on, spans_on = _serve(TraceSpec())
    np.testing.assert_array_equal(res_on.latencies_ns, res_none.latencies_ns)
    assert res_on.batch_sizes == res_none.batch_sizes
    # Every served request maps to a dispatched batch...
    assert res_on.request_batch is not None
    assert (res_on.request_batch >= 0).all()
    # ...and every dispatched batch got a serve envelope + traced phases.
    traced = [s for s in spans_on if s.trace is not None]
    batch_ids = {s.trace.batch_id for s in traced}
    assert batch_ids == set(res_on.request_batch.tolist())
    serve_spans = [s for s in traced if s.category == "serve"]
    assert len(serve_spans) == len(batch_ids)


def test_traced_serving_records_a_kernel_span_per_launch(monkeypatch):
    """Each dispatched batch records one kernel span per device launch,
    under the batch's trace ref, though its kernels end in entries that
    run outside the batch's scope.  Their waves write in such entries
    too, so serving records no link spans."""
    from collections import Counter

    from repro.simgpu.stream import Stream

    launches = []
    launch = Stream.launch

    def counted(self, device, kspec, on_wave=None):
        launches.append((kspec.name, device.id, device.profiler.active_trace))
        return launch(self, device, kspec, on_wave)

    monkeypatch.setattr(Stream, "launch", counted)
    res, spans = _serve(TraceSpec())
    kernels = [(s.name, s.device_id, s.trace) for s in spans if s.category == "kernel"]
    assert kernels and Counter(kernels) == Counter(launches)
    batch_ids = {ref.batch_id for _, _, ref in kernels}
    assert batch_ids == set(res.request_batch.tolist())
    assert not [s for s in spans if s.category == "link"]
