"""Every spec field that becomes an engine delay must be finite.

A NaN or infinite delay used to construct fine and fail deep in a run as
an untyped ``SimulationError``; each spec now rejects it at construction
with a ``ValueError`` naming ``Owner.field``.
"""

from __future__ import annotations

import math

import pytest

from repro.comm.collective import CollectiveSpec
from repro.comm.hier import HierSpec
from repro.comm.pgas import PGASSpec
from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec

NAN, INF = math.nan, math.inf

#: (spec class, field, bad value)
CASES = [
    (PGASSpec, "quiet_overhead_ns", NAN),
    (PGASSpec, "quiet_overhead_ns", INF),
    (PGASSpec, "quiet_overhead_ns", -1.0),
    (CollectiveSpec, "launch_overhead_ns", NAN),
    (CollectiveSpec, "launch_overhead_ns", INF),
    (CollectiveSpec, "wait_overhead_ns", NAN),
    (HierSpec, "stage_max_wait_ns", NAN),
    (HierSpec, "stage_max_wait_ns", INF),
    (HierSpec, "stage_flush_bytes", NAN),
    (ReplicationSpec, "heartbeat_interval_ns", NAN),
    (ReplicationSpec, "heartbeat_interval_ns", INF),
    (ResilienceSpec, "deadline_ns", NAN),
    (ResilienceSpec, "deadline_ns", INF),
    (ResilienceSpec, "backoff_base_ns", NAN),
    (ResilienceSpec, "backoff_base_ns", INF),
    (ResilienceSpec, "backoff_multiplier", NAN),
]


@pytest.mark.parametrize(
    "spec, field, value", CASES, ids=[f"{c.__name__}.{f}={v}" for c, f, v in CASES]
)
def test_bad_delay_rejected_naming_the_field(spec, field, value):
    with pytest.raises(ValueError, match=rf"^{spec.__name__}\.{field} must be "):
        spec(**{field: value})


def test_existing_range_messages_kept():
    with pytest.raises(ValueError, match="^overheads must be non-negative$"):
        CollectiveSpec(wait_overhead_ns=-1.0)
    with pytest.raises(ValueError, match="^stage_max_wait_ns must be positive$"):
        HierSpec(stage_max_wait_ns=0.0)
    with pytest.raises(ValueError, match=r"^deadline_ns must be positive \(or None\)$"):
        ResilienceSpec(deadline_ns=-5.0)
    with pytest.raises(ValueError, match="^backoff_multiplier must be >= 1$"):
        ResilienceSpec(backoff_multiplier=0.5)
    with pytest.raises(ValueError, match="^heartbeat_interval_ns must be positive$"):
        ReplicationSpec(heartbeat_interval_ns=0.0)
