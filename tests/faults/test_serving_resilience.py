"""Resilient serving: determinism under faults, load shedding, hedging,
spec validation, and the zero-served result guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factory import FeatureSpec
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.serving import InferenceServer, ServingResult, ServingSpec
from repro.dlrm.data import WorkloadConfig
from repro.faults import FaultInjector, FaultPlan, ResilienceSpec
from repro.simgpu.trace import chrome_trace
from repro.simgpu.units import ms, us


def small_cfg(**kw):
    defaults = dict(
        num_tables=8, rows_per_table=2048, dim=16, batch_size=256,
        max_pooling=4, seed=3,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def serve_under_faults(severity=0.8, *, n_requests=24, backend="pgas+resilient",
                       **spec_kw):
    """One full serving run on a fresh cluster with an installed plan."""
    pipeline = DLRMInferencePipeline(
        PipelineConfig(workload=small_cfg()),
        2,
        backend=backend,
        features=FeatureSpec(resilience=ResilienceSpec(deadline_ns=0.25 * ms, seed=0)),
    )
    plan = FaultPlan.generate(2, 2 * ms, severity=severity, seed=7)
    FaultInjector(pipeline.cluster, plan).install()
    spec = ServingSpec(
        arrival_qps=50_000.0, max_batch=8, batch_window_ns=0.2 * ms, seed=1,
        deadline_ns=2 * ms, **spec_kw,
    )
    result = InferenceServer(pipeline, spec).simulate(n_requests)
    return result, pipeline


class TestDeterminism:
    """Same seed + same FaultPlan → bit-identical results and traces."""

    def test_serving_result_bit_identical(self):
        a, pa = serve_under_faults()
        b, pb = serve_under_faults()
        assert np.array_equal(a.latencies_ns, b.latencies_ns)
        assert a.batch_sizes == b.batch_sizes
        assert a.sim_duration_ns == b.sim_duration_ns
        assert (a.n_shed, a.n_hedged) == (b.n_shed, b.n_hedged)
        assert (a.emb_retries, a.emb_reroutes) == (b.emb_retries, b.emb_reroutes)
        assert a.emb_rerouted_bytes == b.emb_rerouted_bytes
        assert a.emb_deadline_misses == b.emb_deadline_misses
        if a.degraded_per_request is not None:
            assert np.array_equal(a.degraded_per_request, b.degraded_per_request)

    def test_chrome_trace_event_counts_identical(self):
        _, pa = serve_under_faults()
        _, pb = serve_under_faults()
        ta = chrome_trace(pa.cluster.profiler)["traceEvents"]
        tb = chrome_trace(pb.cluster.profiler)["traceEvents"]
        assert len(ta) == len(tb)
        # Same events by name too, not just the same totals.
        names_a = sorted(e["name"] for e in ta)
        names_b = sorted(e["name"] for e in tb)
        assert names_a == names_b

    def test_faults_actually_fired(self):
        result, pipeline = serve_under_faults()
        assert pipeline.cluster.profiler.counter("faults.windows").total > 0
        # 2 GPUs: downed links degrade at partition time (no reroute path),
        # so the visible symptom is zero-filled bags.
        assert result.degraded_fraction > 0 or result.emb_retries > 0


class TestLoadShedding:
    def test_queue_limit_sheds_and_preserves_offered_count(self):
        n = 32
        result, _ = serve_under_faults(
            severity=0.9, n_requests=n, queue_limit=2,
        )
        assert result.n_shed > 0
        assert result.n_offered == n
        assert result.n_requests == n - result.n_shed
        assert 0.0 < result.shed_fraction < 1.0

    def test_no_limit_serves_everything(self):
        n = 24
        result, _ = serve_under_faults(severity=0.9, n_requests=n)
        assert result.n_shed == 0
        assert result.n_requests == n


class TestHedging:
    def test_slow_batches_get_hedged(self):
        result, _ = serve_under_faults(severity=0.9, hedge_after_ns=20 * us)
        assert result.n_hedged > 0

    def test_healthy_run_never_hedges_with_generous_trigger(self):
        result, _ = serve_under_faults(severity=0.0, hedge_after_ns=1000 * ms)
        assert result.n_hedged == 0
        assert result.deadline_hit_rate == 1.0


class TestServingSpecValidation:
    def test_slo_knob_bounds(self):
        with pytest.raises(ValueError):
            ServingSpec(arrival_qps=1000.0, deadline_ns=0.0)
        with pytest.raises(ValueError):
            ServingSpec(arrival_qps=1000.0, queue_limit=0)
        with pytest.raises(ValueError):
            ServingSpec(arrival_qps=1000.0, hedge_after_ns=-1.0)


class TestZeroServedGuards:
    def empty_result(self, duration=1e6):
        return ServingResult(
            latencies_ns=np.empty(0),
            batch_sizes=[],
            sim_duration_ns=duration,
            backend="pgas",
            n_shed=5,
        )

    def test_percentile_raises_clear_error(self):
        with pytest.raises(ValueError, match="no requests were served"):
            self.empty_result().percentile_ms(99)
        with pytest.raises(ValueError, match="no requests were served"):
            _ = self.empty_result().p50_ms

    def test_throughput_raises_clear_error(self):
        with pytest.raises(ValueError, match="no requests were served"):
            _ = self.empty_result().throughput_qps

    def test_zero_duration_still_returns_zero(self):
        # The long-standing empty-simulation contract (n=0 requests asked)
        # keeps returning 0.0 rather than raising.
        assert self.empty_result(duration=0.0).throughput_qps == 0.0

    def test_summary_and_slo_report_do_not_raise(self):
        r = self.empty_result()
        assert "0 reqs served" in r.summary()
        assert "no requests served" in r.slo_report()
        assert r.deadline_hit_rate == 0.0
        assert r.goodput_qps == 0.0
        assert r.shed_fraction == 1.0
