"""Host-time work must not move simulated results: exact pins.

Each case runs one forward batch on a fresh embedding and compares its
:class:`PhaseTiming` and the engine's event count (``Engine._seq``, every
callback ever scheduled) against literals.  The literals were captured
before the simulator's host-side hot paths were vectorized (cached
per-destination totals, ``reduceat`` wave sums, the list-entry event
heap); any change that only buys host time must leave them bit-for-bit
unchanged.  A deliberate change to the cost model re-captures them.
"""

from __future__ import annotations

import pytest

from repro.comm.hier import HierSpec
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.cluster import multinode

FLAT_G16 = WorkloadConfig(num_tables=256, dim=64, batch_size=4096, max_pooling=32, seed=11)
HIER_2X4 = WorkloadConfig(num_tables=64, dim=64, batch_size=1024, max_pooling=32, seed=11)


def _run(cfg, n_devices, backend, **kwargs):
    emb = DistributedEmbedding(cfg, n_devices, backend=backend, **kwargs)
    timing = emb.forward_timed(SyntheticDataGenerator(cfg).lengths_batch())
    return timing.as_dict(), emb.cluster.engine._seq


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
        1195,
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
        501,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_timing_and_event_count_are_pinned(case):
    run, timing, events = CASES[case]
    got_timing, got_events = run()
    assert got_timing == timing
    assert got_events == events
