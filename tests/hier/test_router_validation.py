"""The staging router validates a write the way ``PGASContext.put`` does."""

from __future__ import annotations

import pytest

from repro.comm.hier import HierSpec, NodeStagingRouter
from repro.comm.pgas import PGASContext
from repro.simgpu.cluster import multinode


def make():
    cl = multinode(2, 2)
    return cl, NodeStagingRouter(PGASContext(cl), HierSpec(devices_per_node=2))


@pytest.mark.parametrize(
    "args, error, match",
    [
        ((0, 2, float("nan")), ValueError, "payload_bytes"),
        ((0, 2, float("inf")), ValueError, "payload_bytes"),
        ((0, 2, -5.0), ValueError, "payload_bytes"),
        ((0, 2, "256"), TypeError, "payload_bytes"),
        ((0, 7, 100.0), ValueError, "dst"),
        ((0, -1, 100.0), ValueError, "dst"),
        ((4, 2, 100.0), ValueError, "src"),
        ((2, 2, 100.0), ValueError, "put to self"),
    ],
    ids=[
        "nan", "inf", "negative", "non-numeric", "dst-past-end", "dst-negative",
        "src-past-end", "self",
    ],
)
def test_put_typed_errors_stage_nothing(args, error, match):
    cl, router = make()
    with pytest.raises(error, match=match):
        router.put(*args)
    assert router.stores == 0
    assert router._pending == {} and router._timers == {}
    assert cl.engine._seq == 0
    assert cl.interconnect.links() == []


def test_same_node_write_rejected():
    _, router = make()
    with pytest.raises(ValueError, match="share a node"):
        router.put(0, 1, 100.0)


def test_valid_off_node_write_is_staged():
    _, router = make()
    router.put(1, 2, 100.0)
    assert router.stores == 1
