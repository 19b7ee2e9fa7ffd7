"""Host-time work must not move simulated results: exact pins.

Each case runs one forward batch (or one training step) on fresh objects
and compares its timing and the engine's event count (``Engine._seq``,
every callback ever scheduled) against literals.  The timing literals
were captured before the simulator's host-side hot paths were vectorized
(cached per-destination totals, ``reduceat`` wave sums, the list-entry
event heap) and before one-sided puts stopped creating events; any change
that only buys host time must leave them bit-for-bit unchanged.  A
deliberate change to the cost model re-captures them.

Event counts may drop only when the removed callbacks carry no simulated
state.  The pgas counts were re-captured once for that reason: a
one-sided put used to schedule two callbacks (delivery, then its event's
wake-up) and now schedules one, while each ``quiet`` that waits now books
one absolute-instant wake-up in place of an ``AllOf`` over every put.
The baseline counts never moved.
"""

from __future__ import annotations

import pytest

from repro.comm.hier import HierSpec
from repro.core.factory import FeatureSpec
from repro.core.pipeline import PipelineConfig
from repro.core.retrieval import DistributedEmbedding
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.cluster import multinode

FLAT_G16 = WorkloadConfig(num_tables=256, dim=64, batch_size=4096, max_pooling=32, seed=11)
HIER_2X4 = WorkloadConfig(num_tables=64, dim=64, batch_size=1024, max_pooling=32, seed=11)
TRAIN_G4 = WorkloadConfig(num_tables=64, dim=64, batch_size=2048, max_pooling=32, seed=11)


def _run(cfg, n_devices, backend, **kwargs):
    emb = DistributedEmbedding(cfg, n_devices, backend=backend, **kwargs)
    timing = emb.forward_timed(SyntheticDataGenerator(cfg).lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq


def _train(cfg, n_devices, backend):
    """One training step; its backward exercises ``PGASContext.atomic_add``."""
    pipe = DLRMTrainingPipeline(PipelineConfig(workload=cfg), n_devices, backend=backend)
    t = pipe.run_step(SyntheticDataGenerator(cfg).lengths_batch())
    got = {f"forward.{k}": v for k, v in t.forward.as_dict().items()}
    got["dense_backward_ns"] = t.dense_backward_ns
    got.update({f"emb_backward.{k}": v for k, v in t.emb_backward.as_dict().items()})
    got["total_ns"] = t.total_ns
    return got, pipe.cluster.engine._seq


CASES = {
    "pgas-g16": (
        lambda: _run(FLAT_G16, 16, "pgas"),
        {
            "compute_ns": 7107540.327485381,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 7107540.327485381,
            "batches": 1.0,
        },
        721,
    ),
    "baseline-g16": (
        lambda: _run(FLAT_G16, 16, "baseline"),
        {
            "compute_ns": 6911304.327485381,
            "comm_ns": 117219.10416666698,
            "sync_unpack_ns": 1799626.666666667,
            "total_ns": 8828150.098318715,
            "batches": 1.0,
        },
        762,
    ),
    # Exercises the staging router's flush timers, which are cancelled.
    "pgas+hier-2x4": (
        lambda: _run(
            HIER_2X4, 8, "pgas+hier", cluster=multinode(2, 4),
            features=FeatureSpec(hier=HierSpec(devices_per_node=4)),
        ),
        {
            "compute_ns": 2156333.8989898977,
            "comm_ns": 0.0,
            "sync_unpack_ns": 0.0,
            "total_ns": 2156333.8989898977,
            "batches": 1.0,
        },
        487,
    ),
    "train-pgas-g4": (
        lambda: _train(TRAIN_G4, 4, "pgas"),
        {
            "forward.input_copy_ns": 374748.6666666667,
            "forward.dense_mlp_ns": 32451.674153536733,
            "forward.interaction_top_ns": 250121.14436125662,
            "forward.overlap_saved_ns": 32451.674153536558,
            "forward.total_ns": 7666046.255472369,
            "forward.batches": 1.0,
            "forward.emb.compute_ns": 7041176.444444445,
            "forward.emb.comm_ns": 0.0,
            "forward.emb.sync_unpack_ns": 0.0,
            "forward.emb.total_ns": 7041176.444444445,
            "forward.emb.batches": 1.0,
            "dense_backward_ns": 1489166.45885015,
            "emb_backward.compute_ns": 5418144.304093569,
            "emb_backward.comm_ns": 0.0,
            "emb_backward.sync_unpack_ns": 0.0,
            "emb_backward.total_ns": 5418144.304093569,
            "emb_backward.batches": 1.0,
            "total_ns": 13084190.559565937,
        },
        385,
    ),
    "train-baseline-g4": (
        lambda: _train(TRAIN_G4, 4, "baseline"),
        {
            "forward.input_copy_ns": 374748.6666666667,
            "forward.dense_mlp_ns": 32451.674153536733,
            "forward.interaction_top_ns": 250121.14436125755,
            "forward.overlap_saved_ns": 32451.674153536558,
            "forward.total_ns": 8525244.463805703,
            "forward.batches": 1.0,
            "forward.emb.compute_ns": 6915596.444444445,
            "forward.emb.comm_ns": 233727.54166666698,
            "forward.emb.sync_unpack_ns": 751050.666666667,
            "forward.emb.total_ns": 7900374.652777779,
            "forward.emb.batches": 1.0,
            "dense_backward_ns": 1489166.458850151,
            "emb_backward.compute_ns": 19306471.39181287,
            "emb_backward.comm_ns": 971143.3338501509,
            "emb_backward.sync_unpack_ns": 751050.666666666,
            "emb_backward.total_ns": 21028665.392329685,
            "emb_backward.batches": 1.0,
            "total_ns": 29553909.85613539,
        },
        427,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_timing_and_event_count_are_pinned(case):
    run, timing, events = CASES[case]
    got_timing, got_events = run()
    assert got_timing == timing
    assert got_events == events
