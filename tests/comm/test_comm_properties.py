"""Property-based stress tests for the communication stack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collective import CollectiveContext, CollectiveSpec
from repro.comm.pgas import PGASContext, PGASSpec
from repro.simgpu import Cluster, dgx_v100, multinode_topology, nvlink_dgx1
from repro.simgpu.interconnect import Interconnect
from repro.simgpu.units import MiB


@settings(deadline=None, max_examples=30)
@given(
    G=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
    n_puts=st.integers(min_value=1, max_value=40),
)
def test_pgas_conservation_under_random_traffic(G, seed, n_puts):
    """Whatever the traffic pattern: every issued byte is delivered once,
    and quiet() leaves nothing outstanding."""
    cl = dgx_v100(G)
    ctx = PGASContext(cl)
    rng = np.random.default_rng(seed)
    issued = 0.0
    for _ in range(n_puts):
        src, dst = rng.choice(G, size=2, replace=False)
        nbytes = float(rng.integers(1, 100_000))
        ctx.put(int(src), int(dst), nbytes)
        issued += nbytes

    elapsed = cl.run(lambda cluster: ctx.quiet(range(cluster.n_devices)))
    assert cl.profiler.counter(PGASContext.COUNTER).total == pytest.approx(issued)
    assert elapsed >= max(ctx._last_done.values())


@settings(deadline=None, max_examples=20)
@given(
    G=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=100),
    algo=st.sampled_from(["direct", "pairwise"]),
)
def test_alltoall_conservation_any_split(G, seed, algo):
    """Counter total == off-diagonal split sum for any split matrix."""
    rng = np.random.default_rng(seed)
    split = rng.uniform(0, 5 * MiB, size=(G, G))
    cl = dgx_v100(G)
    ctx = CollectiveContext(
        cl,
        CollectiveSpec(alltoall_algorithm=algo),
    )

    cl.run(lambda cluster: ctx.all_to_all_single(split).wait())
    expected = split.sum() - np.trace(split)
    assert cl.profiler.counter(Interconnect.COUNTER).total == pytest.approx(expected)


@settings(deadline=None, max_examples=20)
@given(
    nbytes=st.floats(min_value=1.0, max_value=1e8),
    msg=st.integers(min_value=8, max_value=8192),
    hdr=st.integers(min_value=0, max_value=256),
)
def test_small_messages_never_beat_one_big_transfer(nbytes, msg, hdr):
    """Framing monotonicity: headers only ever add wire time."""
    cl_small = dgx_v100(2)
    cl_small.interconnect.transfer(0, 1, nbytes, message_bytes=msg, header_bytes=hdr)
    cl_small.engine.run()
    cl_big = dgx_v100(2)
    cl_big.interconnect.transfer(0, 1, nbytes)
    cl_big.engine.run()
    assert cl_small.engine.now >= cl_big.engine.now - 1e-9


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=100),
    n_transfers=st.integers(min_value=2, max_value=20),
)
def test_link_serialisation_invariant(seed, n_transfers):
    """On one link, total busy time == sum of individual wire times, and
    the last delivery is no earlier than that sum."""
    cl = dgx_v100(2)
    rng = np.random.default_rng(seed)
    link = cl.interconnect.link(0, 1)
    sizes = rng.integers(1, 1_000_000, size=n_transfers).astype(float)
    delivered = []
    for s in sizes:
        ev = cl.interconnect.transfer(0, 1, float(s))
        ev.add_callback(lambda: delivered.append(cl.engine.now))
    cl.engine.run()
    expected_busy = float(sizes.sum()) / link.spec.bandwidth
    assert link.busy_time == pytest.approx(expected_busy)
    last = max(delivered)
    assert last >= expected_busy


@settings(deadline=None, max_examples=10)
@given(
    devices_per_node=st.integers(min_value=1, max_value=3),
    n_nodes=st.integers(min_value=2, max_value=3),
)
def test_multinode_topology_classification(devices_per_node, n_nodes):
    """Every pair is classified intra- or inter-node, consistently."""
    n = devices_per_node * n_nodes
    topo = multinode_topology(n, devices_per_node)
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            spec = topo.link_spec(s, d)
            same_node = s // devices_per_node == d // devices_per_node
            if same_node:
                assert spec.bandwidth > 20.0  # NVLink class
            else:
                assert spec.bandwidth < 20.0  # NIC class
            # symmetric classification
            assert topo.link_spec(d, s).bandwidth == spec.bandwidth
