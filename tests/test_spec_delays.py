"""Every spec field that becomes an engine delay must be finite.

A NaN or infinite delay used to construct fine and fail deep in a run as
an untyped ``SimulationError``; each spec now rejects it at construction
with a ``ValueError`` naming ``Owner.field``.  The comm and hier specs
check the same way: a link's rates and delays are finite reals, a message,
header or chunk size and a node's device count are ints.
"""

from __future__ import annotations

import math

import pytest

from repro.comm import CollectiveSpec, HierSpec, PGASSpec
from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec
from repro.simgpu import LinkSpec

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


#: (spec class, field, bad value, error); LinkSpec's other fields are valid
COMM_CASES = [
    *[(LinkSpec, f, v, ValueError) for f in ("bandwidth", "latency_ns", "per_message_ns")
      for v in (NAN, INF)],
    *[(LinkSpec, f, True, TypeError) for f in ("bandwidth", "latency_ns", "per_message_ns")],
    (PGASSpec, "message_bytes", 1.5, TypeError),
    (PGASSpec, "message_bytes", True, TypeError),
    (PGASSpec, "message_bytes", INF, TypeError),
    (PGASSpec, "header_bytes", NAN, TypeError),
    (CollectiveSpec, "chunk_bytes", NAN, TypeError),
    (HierSpec, "devices_per_node", 2.0, TypeError),
]


@pytest.mark.parametrize(
    "spec, field, value, error", COMM_CASES,
    ids=[f"{c.__name__}.{f}={v}" for c, f, v, _ in COMM_CASES],
)
def test_bad_comm_value_rejected_naming_the_field(spec, field, value, error):
    kwargs = {"bandwidth": 1.0, "latency_ns": 0.0} if spec is LinkSpec else {}
    with pytest.raises(error, match=rf"^{spec.__name__}\.{field} must be "):
        spec(**{**kwargs, field: value})


def test_existing_range_messages_kept():
    with pytest.raises(ValueError, match=r"^deadline_ns must be positive \(or None\)$"):
        ResilienceSpec(deadline_ns=-5.0)
    with pytest.raises(ValueError, match="^heartbeat_interval_ns must be positive$"):
        ReplicationSpec(heartbeat_interval_ns=0.0)
