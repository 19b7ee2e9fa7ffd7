"""ReshardRetrieval end-to-end: healthy-path bit-identity, skewed-run
migration with imbalance reduction, memory accounting at cutover, and
functional outputs that never notice a move."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.retrieval import DistributedEmbedding
from repro.core.factory import FeatureSpec
from repro.core.sharding import ShardingError
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.reshard import (
    MIGRATION_BYTES_COUNTER,
    MIGRATIONS_COUNTER,
    PLANS_COUNTER,
    ReshardSpec,
    TableMove,
)
from repro.reshard.planner import owner_loads


def small_cfg(**kw):
    defaults = dict(
        num_tables=8, rows_per_table=1024, dim=16, batch_size=128,
        max_pooling=4, seed=11,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def build(cfg, n_devices=4, base="pgas", spec=None, **kw):
    return DistributedEmbedding(
        cfg, n_devices, backend=f"{base}+reshard",
        features=FeatureSpec(reshard=spec or ReshardSpec()), **kw,
    )


#: quick-trigger policy for short tests
EAGER = ReshardSpec(
    window_batches=4, min_batches=2, check_interval_batches=2,
    imbalance_threshold=1.1,
)


@pytest.mark.parametrize("base", ["pgas", "baseline"])
class TestHealthyPathBitIdentity:
    def test_uniform_traffic_is_event_identical_to_bare_base(self, base):
        """No skew → no plan → the wrapper must be a pure passthrough:
        identical timings, identical span stream, zero reshard counters."""
        cfg = small_cfg()
        wrapped = build(cfg, base=base, spec=EAGER)
        bare = DistributedEmbedding(cfg, 4, backend=base)
        gen_a, gen_b = SyntheticDataGenerator(cfg), SyntheticDataGenerator(cfg)
        for _ in range(6):
            ta = wrapped.forward_timed(gen_a.lengths_batch())
            tb = bare.forward_timed(gen_b.lengths_batch())
            assert ta.total_ns == tb.total_ns
            assert ta.compute_ns == tb.compute_ns
            assert ta.comm_ns == tb.comm_ns
        spans_w = [(s.name, s.t_start, s.t_end)
                   for s in wrapped.cluster.profiler.spans]
        spans_b = [(s.name, s.t_start, s.t_end)
                   for s in bare.cluster.profiler.spans]
        assert spans_w == spans_b
        assert not any(
            k.startswith("reshard.") for k in wrapped.cluster.profiler.counters
        )
        adapter = wrapped.backend_adapter()
        assert adapter.moved_tables() == {}
        assert adapter.executor.completed == []


def _imbalance(adapter):
    """Windowed max/mean device traffic under the current ownership."""
    return owner_loads(adapter.tracker.table_traffic(), adapter.owners, 4)[2]


class TestSkewedMigration:
    def test_skew_triggers_migrations_and_reduces_imbalance(self):
        cfg = small_cfg(table_skew_alpha=1.2)
        emb = build(cfg, spec=EAGER)
        adapter = emb.backend_adapter()
        gen = SyntheticDataGenerator(cfg)
        before = None
        for i in range(8):
            emb.forward_timed(gen.lengths_batch())
            if i == 1:
                before = _imbalance(adapter)
        adapter.wait_for_migrations()
        assert adapter.moved_tables(), "skewed run never migrated a table"
        assert _imbalance(adapter) < before
        counters = emb.cluster.profiler.counters
        migrations = counters[MIGRATIONS_COUNTER].total
        assert migrations >= 1
        assert counters[MIGRATION_BYTES_COUNTER].total > 0
        spans = [s for s in emb.cluster.profiler.spans if s.category == "reshard"]
        assert len(spans) == int(migrations)
        assert len(adapter.executor.completed) == migrations
        assert counters[PLANS_COUNTER].total >= 1

    def test_cutover_returns_old_owner_memory(self):
        """Reserve-then-cutover accounting: while streaming, both copies
        are held; after cutover the old owner's bytes come back."""
        cfg = small_cfg(table_skew_alpha=1.2)
        emb = build(cfg, spec=EAGER)
        adapter = emb.backend_adapter()
        plan = emb.plan
        free0 = {
            d: emb.cluster.device(d).memory.free_bytes
            for d in range(plan.n_devices)
        }
        gen = SyntheticDataGenerator(cfg)
        for _ in range(8):
            emb.forward_timed(gen.lengths_batch())
        adapter.wait_for_migrations()
        moved = adapter.moved_tables()
        assert moved
        nbytes = {c.name: c.nbytes for c in plan.table_configs}
        expected_delta = {d: 0 for d in range(plan.n_devices)}
        for name, dst in moved.items():
            expected_delta[plan.owner_of(name)] += nbytes[name]  # freed
            expected_delta[dst] -= nbytes[name]  # now resident
        for d in range(plan.n_devices):
            assert emb.cluster.device(d).memory.free_bytes == (
                free0[d] + expected_delta[d]
            )

    def test_functional_outputs_bit_identical_after_moves(self):
        cfg = small_cfg(table_skew_alpha=1.2)
        emb = build(cfg, spec=EAGER, materialize=True,
                    rng=np.random.default_rng(0))
        ref = DistributedEmbedding(cfg, 4, backend="pgas", materialize=True,
                                   rng=np.random.default_rng(0))
        gen = SyntheticDataGenerator(cfg)
        for _ in range(8):
            emb.forward_timed(gen.lengths_batch())
        emb.backend_adapter().wait_for_migrations()
        assert emb.backend_adapter().moved_tables()
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        out = emb.forward(batch).outputs
        out_ref = ref.forward(batch).outputs
        for a, b in zip(out, out_ref):
            assert np.array_equal(a, b)

    def test_migration_paced_stream_is_visible_on_the_clock(self):
        """Migration streams run on the engine clock at a bandwidth share:
        the recorded busy time must cover at least the unpaced wire time
        of the streamed bytes."""
        cfg = small_cfg(table_skew_alpha=1.2)
        emb = build(cfg, spec=EAGER)
        adapter = emb.backend_adapter()
        gen = SyntheticDataGenerator(cfg)
        for _ in range(8):
            emb.forward_timed(gen.lengths_batch())
        adapter.wait_for_migrations()
        counters = emb.cluster.profiler.counters
        assert counters["reshard.migration_ns"].total > 0


class TestCutover:
    def test_cutover_changes_serving_owner(self):
        cfg = small_cfg()
        emb = build(cfg, materialize=True, rng=np.random.default_rng(2))
        adapter = emb.backend_adapter()
        old = adapter.owners["sparse_0"]
        dst = (old + 1) % 4
        adapter._on_cutover(TableMove("sparse_0", old, dst, nbytes=0, traffic_bytes=0.0))
        assert adapter.moved_tables() == {"sparse_0": dst}
        batch = SyntheticDataGenerator(cfg).sparse_batch()
        ref = DistributedEmbedding(cfg, 4, backend="pgas", materialize=True,
                                   rng=np.random.default_rng(2))
        for a, b in zip(adapter.functional_forward(batch),
                        ref.forward(batch).outputs):
            assert np.array_equal(a, b)


class TestShardingErrors:
    def test_shards_of_raises_typed_error(self):
        from repro.core.sharding import RowWiseSharding

        plan = RowWiseSharding(small_cfg().table_configs(), 4)
        with pytest.raises(ShardingError, match="'zzz'"):
            plan.shards_of("zzz")


class TestRunReportSection:
    def test_reshard_counters_reach_the_run_report(self):
        from repro.telemetry.report import collect_run_report

        cfg = small_cfg(table_skew_alpha=1.2)
        spec = dataclasses.replace(EAGER)
        emb = build(cfg, spec=spec)
        adapter = emb.backend_adapter()
        gen = SyntheticDataGenerator(cfg)
        for _ in range(8):
            emb.forward_timed(gen.lengths_batch())
        adapter.wait_for_migrations()
        report = collect_run_report(
            emb.cluster.profiler, backend="pgas+reshard", n_devices=4,
        )
        assert report.reshard["reshard.migrations"] >= 1
        assert report.reshard["reshard.migration_bytes"] > 0
        payload = report.as_dict()
        assert "reshard" in payload
