"""Every spec field that becomes an engine delay must be finite.

A NaN or infinite delay used to construct fine and fail deep in a run as
an untyped ``SimulationError``; each spec now rejects it at construction
with a ``ValueError`` naming ``Owner.field``.
"""

from __future__ import annotations

import math

import pytest

from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec

NAN, INF = math.nan, math.inf

#: (spec class, field, bad value)
CASES = [
    (ReplicationSpec, "heartbeat_interval_ns", NAN),
    (ReplicationSpec, "heartbeat_interval_ns", INF),
    (ResilienceSpec, "deadline_ns", NAN),
    (ResilienceSpec, "deadline_ns", INF),
]


@pytest.mark.parametrize(
    "spec, field, value", CASES, ids=[f"{c.__name__}.{f}={v}" for c, f, v in CASES]
)
def test_bad_delay_rejected_naming_the_field(spec, field, value):
    with pytest.raises(ValueError, match=rf"^{spec.__name__}\.{field} must be "):
        spec(**{field: value})


def test_existing_range_messages_kept():
    with pytest.raises(ValueError, match=r"^deadline_ns must be positive \(or None\)$"):
        ResilienceSpec(deadline_ns=-5.0)
    with pytest.raises(ValueError, match="^heartbeat_interval_ns must be positive$"):
        ReplicationSpec(heartbeat_interval_ns=0.0)
