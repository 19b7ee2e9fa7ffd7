"""ReplicatedRetrieval: healthy-path bit-identity, failover correctness,
online recovery accounting, and capacity enforcement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding, lengths_from_batch
from repro.core.functional import reference_forward
from repro.dlrm import EmbeddingBagCollection
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.replication import ReplicatedRetrieval, ReplicationSpec
from repro.replication.retrieval import MISS_THRESHOLD
from repro.simgpu.cluster import Cluster
from repro.simgpu.device import DeviceSpec
from repro.simgpu.memory import OutOfDeviceMemory
from repro.simgpu.units import us


def small_cfg(**kw):
    defaults = dict(
        num_tables=8, rows_per_table=1024, dim=16, batch_size=64,
        max_pooling=4, seed=5,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


#: tight heartbeat so detection lands within a batch or two of tiny runs
FAST = dict(heartbeat_interval_ns=5 * us)


def build(cfg, n_devices, backend, replication=None):
    emb = DistributedEmbedding(
        cfg, n_devices, backend=backend, materialize=True,
        rng=np.random.default_rng(0),
        features=FeatureSpec(replication=replication),
    )
    return emb, emb.backend_adapter(backend)


def span_tuples(emb):
    return [(s.name, s.category, s.device_id, s.t_start, s.t_end)
            for s in emb.cluster.profiler.spans]


class TestHealthyPathIdentity:
    """With no failures the wrapper IS the wrapped backend, bit for bit."""

    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_k1_events_timing_outputs_identical(self, base):
        cfg = small_cfg()
        gen_a, gen_b = SyntheticDataGenerator(cfg), SyntheticDataGenerator(cfg)
        emb_a, ad_a = build(cfg, 2, base)
        emb_b, ad_b = build(cfg, 2, f"{base}+replicated", ReplicationSpec(k=1))
        batch = gen_a.sparse_batch()
        gen_b.sparse_batch()  # keep the streams aligned
        wl = lengths_from_batch(batch)
        t_a = ad_a.run_timed(emb_a.build_workloads(wl))
        t_b = ad_b.run_timed(emb_b.build_workloads(wl))
        assert t_a.as_dict() == t_b.as_dict()
        assert span_tuples(emb_a) == span_tuples(emb_b)
        assert set(emb_a.cluster.profiler.counters) == set(
            emb_b.cluster.profiler.counters
        )
        out_a = ad_a.functional_forward(batch)
        out_b = ad_b.functional_forward(batch)
        assert all(np.array_equal(x, y) for x, y in zip(out_a, out_b))

    def test_k2_healthy_stamps_no_availability_counters(self):
        cfg = small_cfg()
        emb, ad = build(cfg, 2, "pgas+replicated", ReplicationSpec(k=2, **FAST))
        gen = SyntheticDataGenerator(cfg)
        ad.run_timed(emb.build_workloads(gen.lengths_batch()))
        assert not [n for n in emb.cluster.profiler.counters
                    if n.startswith("availability.")]
        assert ad.totals()["availability"] == 1.0


class TestFailover:
    def run_with_failure(self, base, k, n_devices=4, dead=1, batches=3):
        cfg = small_cfg()
        emb, ad = build(
            cfg, n_devices, f"{base}+replicated", ReplicationSpec(k=k, **FAST)
        )
        gen = SyntheticDataGenerator(cfg)
        batch = gen.sparse_batch()
        wl = emb.build_workloads(lengths_from_batch(batch))
        ad.run_timed(wl)  # healthy warm-up
        plan = FaultPlan((FaultEvent("device_down", 1.0, 1e9, device=dead),))
        FaultInjector(emb.cluster, plan).install()
        for _ in range(batches):
            ad.run_timed(wl)
        return cfg, emb, ad, batch

    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_k2_outputs_bit_identical_to_reference(self, base):
        cfg, emb, ad, batch = self.run_with_failure(base, k=2)
        assert ad._failed == {1}
        ebc = EmbeddingBagCollection.from_configs(
            cfg.table_configs(), rng=np.random.default_rng(0)
        )
        ref = reference_forward(ebc, batch)
        out = np.concatenate(ad.functional_forward(batch), axis=0)
        assert np.array_equal(out, ref)  # zero degraded rows
        totals = ad.totals()
        assert totals["availability"] == 1.0
        assert totals["failover_lookups"] > 0
        assert totals["unavailable_lookups"] == 0

    def test_k1_failure_drops_dead_tables_to_zero(self):
        cfg, emb, ad, batch = self.run_with_failure("pgas", k=1)
        assert ad._failed == {1}
        totals = ad.totals()
        assert 0.0 < totals["availability"] < 1.0
        assert totals["failover_lookups"] == 0
        ebc = EmbeddingBagCollection.from_configs(
            cfg.table_configs(), rng=np.random.default_rng(0)
        )
        ref = reference_forward(ebc, batch)
        out = np.concatenate(ad.functional_forward(batch), axis=0)
        dead = list(emb.plan.feature_indices_on(1))
        assert np.all(out[:, dead, :] == 0.0)
        live = [f for f in range(cfg.num_tables) if f not in dead]
        assert np.array_equal(out[:, live, :], ref[:, live, :])

    def test_recovery_reprotects_and_charges_link_bytes(self):
        cfg, emb, ad, _ = self.run_with_failure("pgas", k=2)
        ad.wait_for_reprotect(limit_ns=emb.cluster.engine.now + 1e9)
        totals = ad.totals()
        assert totals["failures_detected"] == 1
        assert 0 < totals["time_to_reprotect_ns"] < float("inf")
        counters = emb.cluster.profiler.counters
        assert counters["availability.recovery_bytes"].total > 0
        per_link = [n for n in emb.cluster.profiler.pair_counters("availability.recovery_bytes")
                    if n.startswith("availability.recovery_bytes.dev")]
        assert per_link  # bytes visible on interconnect links (traces)
        assert counters["availability.failures"].total == 1.0
        assert counters["availability.detection_ns"].total > 0
        # every re-replicated table has a fresh live holder
        assert all(owner is not None and owner != 1
                   for owner in ad.effective_owners().values())

    def test_detection_latency_within_bound(self):
        _, emb, ad, _ = self.run_with_failure("pgas", k=2)
        spec = ad.spec
        detect = emb.cluster.profiler.counters["availability.detection_ns"]
        (t, delta), = detect.events()
        # MISS_THRESHOLD missed heartbeats, plus the one in flight
        assert delta <= (MISS_THRESHOLD + 1) * spec.heartbeat_interval_ns


class TestCapacity:
    def test_overcommitted_k_raises_out_of_memory(self):
        cfg = small_cfg(num_tables=4, rows_per_table=200_000, dim=64)
        # replicas alone need ~102 MB/device (2 x 200k x 64 x 4 B); cap below
        cluster = Cluster(
            2, device_spec=DeviceSpec(mem_bytes=90 * 1024 * 1024)
        )
        emb = DistributedEmbedding(cfg, 2, backend="pgas")
        with pytest.raises(OutOfDeviceMemory):
            ReplicatedRetrieval(
                cluster, emb.plan, ReplicationSpec(k=2), base="pgas"
            )

    def test_k_exceeding_cluster_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="replication factor"):
            emb, _ = build(cfg, 2, "pgas+replicated", ReplicationSpec(k=3))
