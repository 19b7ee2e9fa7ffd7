"""ResilientRetrieval: zero-overhead healthy path, hand-computed graceful
degradation, reroutes around downed links, and retry/backoff accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import resilient as resilient_mod
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ResilienceSpec,
    ResilientRetrieval,
)
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.sharding import TableWiseSharding, minibatch_bounds
from repro.core.workload import build_device_workloads
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.cluster import dgx_v100
from repro.simgpu.units import ms, us


def small_cfg(**kw):
    defaults = dict(
        num_tables=8, rows_per_table=1024, dim=16, batch_size=64,
        max_pooling=4, seed=5,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def forward_pair(cfg, n_devices, backend_a, backend_b, plan_b=None, resilience=None):
    """Run the same batch through two backends; returns both results."""
    gen = SyntheticDataGenerator(cfg)
    batch = gen.sparse_batch()
    emb_a = DistributedEmbedding(
        cfg, n_devices, backend=backend_a, materialize=True,
        rng=np.random.default_rng(0),
    )
    emb_b = DistributedEmbedding(
        cfg, n_devices, backend=backend_b, materialize=True,
        rng=np.random.default_rng(0),
        features=FeatureSpec(resilience=resilience),
    )
    if plan_b is not None:
        FaultInjector(emb_b.cluster, plan_b).install()
    return emb_a.forward(batch), emb_b.forward(batch), emb_a, emb_b


class TestZeroOverheadHealthyPath:
    """Empty plan + no deadline: the wrapper IS the wrapped backend."""

    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_outputs_timings_and_wire_bytes_identical(self, base):
        cfg = small_cfg()
        ra, rb, emb_a, emb_b = forward_pair(cfg, 2, base, f"{base}+resilient")
        t_a, t_b = ra.timing, rb.timing
        assert t_b.total_ns == t_a.total_ns
        assert t_b.compute_ns == t_a.compute_ns
        assert t_b.comm_ns == t_a.comm_ns
        assert t_b.sync_unpack_ns == t_a.sync_unpack_ns
        for x, y in zip(ra.outputs, rb.outputs):
            assert np.array_equal(x, y)
        for counter in ("comm_bytes", "pgas_bytes"):
            ca = emb_a.cluster.profiler.counters.get(counter)
            cb = emb_b.cluster.profiler.counters.get(counter)
            assert (ca.total if ca else 0.0) == (cb.total if cb else 0.0)

    def test_outcome_reports_healthy(self):
        cfg = small_cfg()
        _, _, _, emb_b = forward_pair(cfg, 2, "pgas", "pgas+resilient")
        outcome = emb_b.backend_adapter().last_outcome
        assert outcome.healthy
        assert outcome.attempts == 1
        assert outcome.degraded_fraction == 0.0
        assert outcome.total_bags == cfg.batch_size * cfg.num_tables


class TestGracefulDegradation:
    """2 GPUs, link 1→0 down for the whole run: no reroute path exists, so
    dev0's bags of dev1-owned tables are zero-filled — exactly those."""

    def setup_method(self):
        self.cfg = small_cfg()
        self.plan_down = FaultPlan((
            FaultEvent("link_down", 0.0, 1000 * ms, src=1, dst=0),
        ))

    def test_degraded_fraction_matches_hand_count(self):
        healthy, degraded, emb_h, emb_d = forward_pair(
            self.cfg, 2, "pgas", "pgas+resilient", plan_b=self.plan_down
        )
        B, F = self.cfg.batch_size, self.cfg.num_tables
        bounds = minibatch_bounds(B, 2)
        B0 = bounds[0][1] - bounds[0][0]
        T1 = len(emb_d.plan.tables_on(1))
        outcome = emb_d.backend_adapter().last_outcome
        # Every (dev0 sample, dev1-owned table) bag is unreachable.
        assert outcome.degraded_bags == B0 * T1
        assert outcome.degraded_fraction == (B0 * T1) / (B * F)
        assert outcome.rerouted_pairs == 0
        assert not outcome.deadline_missed

    def test_unaffected_bags_bit_identical_affected_zeroed(self):
        healthy, degraded, emb_h, emb_d = forward_pair(
            self.cfg, 2, "pgas", "pgas+resilient", plan_b=self.plan_down
        )
        plan = emb_d.plan
        # dev1 never lost a link it reads over: bit-identical output.
        assert np.array_equal(degraded.outputs[1], healthy.outputs[1])
        for f, t in enumerate(plan.table_configs):
            if plan.owner_of(t.name) == 1:
                assert np.all(degraded.outputs[0][:, f, :] == 0.0)
            else:
                assert np.array_equal(
                    degraded.outputs[0][:, f, :], healthy.outputs[0][:, f, :]
                )

    def test_wire_bytes_strictly_drop(self):
        _, _, emb_h, emb_d = forward_pair(
            self.cfg, 2, "pgas", "pgas+resilient", plan_b=self.plan_down
        )
        assert (
            emb_d.cluster.profiler.counter("pgas_bytes").total
            < emb_h.cluster.profiler.counter("pgas_bytes").total
        )


class TestReroute:
    """4 GPUs, link 1→0 down: a healthy peer forwards, nothing degrades."""

    def setup_method(self):
        self.cfg = small_cfg()
        self.plan_down = FaultPlan((
            FaultEvent("link_down", 0.0, 1000 * ms, src=1, dst=0),
        ))

    def test_reroute_preserves_outputs(self):
        healthy, rerouted, _, emb_r = forward_pair(
            self.cfg, 4, "pgas", "pgas+resilient", plan_b=self.plan_down
        )
        outcome = emb_r.backend_adapter().last_outcome
        assert outcome.rerouted_pairs == 1
        assert outcome.rerouted_bytes > 0
        assert outcome.degraded_bags == 0
        for x, y in zip(healthy.outputs, rerouted.outputs):
            assert np.array_equal(x, y)

    def test_forward_charges_both_hops(self):
        _, _, _, emb_r = forward_pair(
            self.cfg, 4, "pgas", "pgas+resilient", plan_b=self.plan_down
        )
        counters = emb_r.cluster.profiler.pair_counters("faults.rerouted_bytes")
        hops = [
            name for name in counters
            if name.startswith("faults.rerouted_bytes.dev")
        ]
        # src→via and via→dst both carried the payload.
        assert len(hops) == 2
        via_hop = next(n for n in hops if n.startswith("faults.rerouted_bytes.dev1->"))
        dst_hop = next(n for n in hops if n.endswith("->dev0"))
        assert counters[via_hop].total == counters[dst_hop].total > 0


class TestRetriesAndFinalDegrade:
    def test_impossible_deadline_exhausts_retries_then_serves_locally(self, monkeypatch):
        monkeypatch.setattr(resilient_mod, "BACKOFF_BASE_NS", 5 * us)
        monkeypatch.setattr(resilient_mod, "JITTER_FRACTION", 0.0)
        cfg = small_cfg()
        cluster = dgx_v100(2)
        plan = TableWiseSharding(cfg.table_configs(), 2)
        spec = ResilienceSpec(deadline_ns=10.0)
        engine = ResilientRetrieval(cluster, plan, spec, base="pgas")
        gen = SyntheticDataGenerator(cfg)
        workloads = build_device_workloads(plan, gen.lengths_batch())
        timing = engine.run_timed(workloads)
        outcome = engine.last_outcome
        assert outcome.retries == resilient_mod.MAX_RETRIES + 1 == 3  # all missed
        assert outcome.attempts == 4
        assert outcome.deadline_missed
        # Final local-only pass zero-fills every remote bag.
        remote = sum(
            int(round(float(wl.output_bytes_by_dst.sum() - wl.output_bytes_by_dst[wl.device_id]) / wl.row_bytes))
            for wl in workloads
        )
        assert outcome.degraded_bags == remote
        assert timing.total_ns > 0

    def test_generous_deadline_single_attempt(self):
        cfg = small_cfg()
        cluster = dgx_v100(2)
        plan = TableWiseSharding(cfg.table_configs(), 2)
        engine = ResilientRetrieval(
            cluster, plan, ResilienceSpec(deadline_ns=1000 * ms), base="pgas"
        )
        gen = SyntheticDataGenerator(cfg)
        workloads = build_device_workloads(plan, gen.lengths_batch())
        engine.run_timed(workloads)
        assert engine.last_outcome.healthy

    def test_backoff_jitter_is_seeded(self, monkeypatch):
        monkeypatch.setattr(resilient_mod, "JITTER_FRACTION", 0.5)

        def run_once():
            cfg = small_cfg()
            cluster = dgx_v100(2)
            plan = TableWiseSharding(cfg.table_configs(), 2)
            spec = ResilienceSpec(deadline_ns=10.0, seed=9)
            engine = ResilientRetrieval(cluster, plan, spec, base="pgas")
            gen = SyntheticDataGenerator(cfg)
            workloads = build_device_workloads(plan, gen.lengths_batch())
            return engine.run_timed(workloads).total_ns

        assert run_once() == run_once()


class TestSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ResilienceSpec(deadline_ns=-1.0)
        with pytest.raises(TypeError):
            DistributedEmbedding(
                small_cfg(), 2, backend="pgas+resilient",
                features=FeatureSpec(resilience="nope"),
            ).backend_adapter()
