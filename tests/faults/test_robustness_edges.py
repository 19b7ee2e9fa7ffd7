"""Edge cases the fault layer must survive: releasing resources that were
never acquired, reporting totals with nothing served, and replaying a
FaultPlan deterministically."""

from __future__ import annotations

import numpy as np

from repro.faults import FaultPlan
from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import WorkloadConfig


def small_cfg():
    return WorkloadConfig(
        num_tables=4, rows_per_table=256, dim=8, batch_size=16,
        max_pooling=4, seed=3,
    )


def fresh_adapter():
    emb = DistributedEmbedding(
        small_cfg(), 2, backend="pgas+resilient",
        materialize=True, rng=np.random.default_rng(0),
    )
    return emb.backend_adapter("pgas+resilient")


class TestResilientEdgeCases:
    def test_release_before_any_batch_is_noop(self):
        adapter = fresh_adapter()
        adapter.release()   # nothing acquired yet — must not raise
        adapter.release()   # idempotent


class TestFaultPlanReplayDeterminism:
    def test_same_seed_same_plan_identical_schedule(self):
        kwargs = dict(
            n_devices=4, duration_ns=1e6, severity=0.5, seed=42,
            events_per_kind=3,
        )
        a = FaultPlan.generate(**kwargs)
        b = FaultPlan.generate(**kwargs)
        assert a.events == b.events  # full tuples: kind, window, endpoints

    def test_different_seed_different_schedule(self):
        a = FaultPlan.generate(n_devices=4, duration_ns=1e6, severity=0.5,
                               seed=1, events_per_kind=3)
        b = FaultPlan.generate(n_devices=4, duration_ns=1e6, severity=0.5,
                               seed=2, events_per_kind=3)
        assert a.events != b.events
