"""Tests for the continuous-batching serving scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.serving import InferenceServer, SchedulerSpec, ServingSpec
from repro.dlrm.data import WorkloadConfig
from repro.simgpu.units import ms
from repro.telemetry import BATCH_FORMED_COUNTER, IN_FLIGHT_COUNTER

WL = WorkloadConfig(
    num_tables=8, rows_per_table=2048, dim=16, batch_size=64, max_pooling=4, seed=2
)


def make_server(scheduler=None, backend="pgas", qps=200_000.0, max_batch=8,
                window=0.1 * ms, n_devices=2, deadline_ns=5 * ms, **spec_kw):
    pipe = DLRMInferencePipeline(PipelineConfig(workload=WL), n_devices, backend=backend)
    spec = ServingSpec(
        arrival_qps=qps, max_batch=max_batch, batch_window_ns=window,
        deadline_ns=deadline_ns, scheduler=scheduler, **spec_kw,
    )
    return InferenceServer(pipe, spec)


class TestSchedulerSpec:
    def test_defaults(self):
        s = SchedulerSpec()
        assert s.max_in_flight == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerSpec(max_in_flight=0)

    def test_serving_spec_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            ServingSpec(arrival_qps=1000, scheduler="hybrid")


class TestContinuousBatching:
    def test_k2_beats_k1_goodput_and_idle(self):
        """The acceptance criterion: more in-flight batches reclaim the
        inter-batch interconnect bubble and raise goodput."""
        r1 = make_server(SchedulerSpec(max_in_flight=1)).simulate(32)
        r2 = make_server(SchedulerSpec(max_in_flight=2)).simulate(32)
        assert r2.goodput_qps > r1.goodput_qps
        assert r2.interconnect_idle_ns < r1.interconnect_idle_ns

    def test_all_served_at_any_depth(self):
        for k in (1, 2, 3):
            res = make_server(SchedulerSpec(max_in_flight=k)).simulate(40)
            assert res.n_requests == 40
            assert sum(res.batch_sizes) == 40
            assert res.max_in_flight == k

    def test_default_scheduler_matches_explicit_k1(self):
        """spec.scheduler=None is exactly the sequential hybrid scheduler."""
        a = make_server(None).simulate(48)
        b = make_server(SchedulerSpec(max_in_flight=1)).simulate(48)
        assert np.array_equal(a.latencies_ns, b.latencies_ns)
        assert a.batch_sizes == b.batch_sizes

    def test_deterministic_as_dict(self):
        sched = SchedulerSpec(max_in_flight=2)
        a = make_server(sched).simulate(40)
        b = make_server(sched).simulate(40)
        assert a.as_dict() == b.as_dict()

    def test_in_flight_gauge_bounded_by_k(self):
        for k in (1, 2):
            server = make_server(SchedulerSpec(max_in_flight=k), qps=1_000_000.0)
            server.simulate(40)
            counter = server.pipeline.cluster.profiler.counters[IN_FLIGHT_COUNTER]
            levels = np.cumsum([d for _, d in counter.events()])
            assert levels.max() <= k
            assert levels.min() >= 0
            assert levels[-1] == 0  # everything drained

    def test_k2_actually_overlaps_batches(self):
        """At saturating load the gauge must reach 2 — otherwise the second
        slot never paid for itself and the test is vacuous."""
        server = make_server(SchedulerSpec(max_in_flight=2), qps=1_000_000.0)
        server.simulate(40)
        counter = server.pipeline.cluster.profiler.counters[IN_FLIGHT_COUNTER]
        levels = np.cumsum([d for _, d in counter.events()])
        assert levels.max() == 2


class TestSegments:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_segments_sum_to_latency(self, k):
        """queue + form + execute must equal end-to-end latency, exactly."""
        res = make_server(SchedulerSpec(max_in_flight=k)).simulate(40)
        assert res.form_ns.shape == res.latencies_ns.shape
        np.testing.assert_allclose(
            res.form_ns + res.queue_ns + res.execute_ns, res.latencies_ns,
            rtol=0, atol=1e-6,
        )

    def test_segments_non_negative(self):
        res = make_server(SchedulerSpec(max_in_flight=2)).simulate(40)
        assert (res.form_ns >= 0).all()
        assert (res.queue_ns >= 0).all()
        assert (res.execute_ns > 0).all()

    def test_segments_sum_with_shedding(self):
        res = make_server(
            SchedulerSpec(max_in_flight=2), qps=2_000_000.0, queue_limit=4
        ).simulate(60)
        assert res.n_shed > 0
        np.testing.assert_allclose(
            res.form_ns + res.queue_ns + res.execute_ns, res.latencies_ns,
            rtol=0, atol=1e-6,
        )
        assert res.n_requests + res.n_shed == 60


class TestFormationPolicies:
    def test_formed_by_accounts_every_batch(self):
        res = make_server(SchedulerSpec(max_in_flight=2)).simulate(40)
        assert sum(res.formed_by.values()) == res.n_batches

    def test_hybrid_uses_window_at_low_load(self):
        res = make_server(
            SchedulerSpec(), qps=10_000.0, window=0.05 * ms
        ).simulate(24)
        assert res.formed_by["timeout"] > 0

    def test_formation_counters_stamped(self):
        server = make_server(SchedulerSpec(max_in_flight=2))
        res = server.simulate(40)
        profiler = server.pipeline.cluster.profiler
        stamped = sum(
            counter.total
            for name, counter in profiler.counters.items()
            if name.startswith(BATCH_FORMED_COUNTER)
        )
        assert stamped == res.n_batches


class TestMaterializedEquivalence:
    @pytest.mark.parametrize("backend", ["pgas", "baseline", "pgas+cache"])
    def test_outputs_bit_identical_across_k(self, backend):
        """Continuous batching must not change what is computed, only when."""
        outs = {}
        for k in (1, 2):
            res = make_server(
                SchedulerSpec(max_in_flight=k), backend=backend
            ).simulate(24, materialize=True)
            assert res.request_outputs is not None
            assert res.request_outputs.shape == (24, WL.num_tables, WL.dim)
            outs[k] = res.request_outputs
        assert np.array_equal(outs[1], outs[2])

    def test_outputs_match_direct_functional_forward(self):
        """Per-request outputs equal the functional forward over the same
        pre-drawn pool, independent of batch cuts."""
        from repro.core.functional import pgas_functional_forward
        from repro.dlrm.data import SyntheticDataGenerator

        server = make_server(SchedulerSpec(max_in_flight=2))
        res = server.simulate(16, materialize=True)
        gen = SyntheticDataGenerator(WL)
        pool = gen.sparse_batch(batch_size=16)
        expected = np.concatenate(
            pgas_functional_forward(server._materialized_tables(), pool), axis=0
        )
        assert np.array_equal(res.request_outputs, expected)

    def test_outputs_come_from_the_backend_adapter(self):
        """A lossy codec changes what a ``+compress`` server returns: the
        outputs run the adapter's functional path, not the base strategy's."""
        from repro.compress import CompressedRetrieval, CompressionSpec
        from repro.core.factory import FeatureSpec
        from repro.core.functional import pgas_functional_forward
        from repro.dlrm.data import SyntheticDataGenerator
        from repro.simgpu.cluster import dgx_v100

        codec = CompressionSpec(codec="int4")
        pipe = DLRMInferencePipeline(
            PipelineConfig(workload=WL), 2, backend="pgas+compress",
            features=FeatureSpec(compression=codec),
        )
        # One batch of all 16 requests, so it splits across the GPUs
        # exactly like the reference forward over the whole pool.
        server = InferenceServer(
            pipe, ServingSpec(arrival_qps=200_000.0, max_batch=16, batch_window_ns=1 * ms)
        )
        res = server.simulate(16, materialize=True)
        assert res.n_batches == 1
        pool = SyntheticDataGenerator(WL).sparse_batch(batch_size=16)
        sharded = server._materialized_tables()
        reference = CompressedRetrieval(dgx_v100(2), pipe.plan, codec, sharded=sharded)
        expected = np.concatenate(reference.functional_forward(pool), axis=0)
        assert np.array_equal(res.request_outputs, expected)
        uncompressed = np.concatenate(pgas_functional_forward(sharded, pool), axis=0)
        assert not np.array_equal(res.request_outputs, uncompressed)


class TestFromSpec:
    def test_server_from_runspec(self):
        from repro.core.runspec import preset_runspec

        spec = preset_runspec(
            "tiny", n_devices=2,
            serving=ServingSpec(arrival_qps=1e5, max_batch=8,
                                batch_window_ns=0.1 * ms,
                                scheduler=SchedulerSpec(max_in_flight=2)),
        )
        server = InferenceServer.from_spec(spec)
        res = server.simulate(16)
        assert res.n_requests == 16
        assert res.max_in_flight == 2
