"""Property: any interleaving of batches and ownership changes yields
outputs bit-identical to the static-plan reference.

The cutover protocol's whole claim is that serving correctness is
independent of *when* tables move.  Hypothesis drives an arbitrary
schedule of (run a batch | flip a table's owner) actions, each flip
through the adapter's cutover hook (what a migration stream calls when
its last chunk lands) at an arbitrary point between batches, and every
batch's functional outputs must equal the untouched static reference's,
bitwise.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.reshard import LoadTracker, ReshardPlanner, ReshardSpec, TableMove

N_DEVICES = 3
CFG = WorkloadConfig(
    num_tables=6, rows_per_table=64, dim=8, batch_size=16,
    max_pooling=3, seed=21,
)
TABLE_NAMES = [c.name for c in CFG.table_configs()]

#: an action is either "serve one batch" (None) or "cut a table over"
ACTIONS = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(TABLE_NAMES),
            st.integers(min_value=0, max_value=N_DEVICES - 1),
        ),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(actions=ACTIONS, seed=st.integers(min_value=0, max_value=2**16))
def test_any_interleaving_is_bit_identical_to_static_reference(actions, seed):
    emb = DistributedEmbedding(
        CFG, N_DEVICES, backend="pgas+reshard",
        features=FeatureSpec(reshard=ReshardSpec(imbalance_threshold=100.0)),
        materialize=True, rng=np.random.default_rng(7),
    )
    ref = DistributedEmbedding(
        CFG, N_DEVICES, backend="pgas",
        materialize=True, rng=np.random.default_rng(7),
    )
    adapter = emb.backend_adapter()
    gen = SyntheticDataGenerator(
        WorkloadConfig(**{**CFG.__dict__, "seed": int(seed)})
    )
    for action in actions:
        if action is None:
            batch = gen.sparse_batch()
            out = adapter.functional_forward(batch)
            out_ref = ref.forward(batch).outputs
            assert len(out) == len(out_ref)
            for a, b in zip(out, out_ref):
                assert np.array_equal(a, b)
        else:
            table, dst = action
            src = adapter.owners[table]
            adapter._on_cutover(TableMove(table, src, dst, nbytes=0, traffic_bytes=0.0))


@settings(max_examples=25, deadline=None)
@given(
    traffic_level=st.floats(min_value=1.0, max_value=1e12),
    n_tables=st.integers(min_value=1, max_value=24),
    n_devices=st.integers(min_value=1, max_value=8),
    threshold=st.floats(min_value=1.0, max_value=4.0),
)
def test_uniform_traffic_never_plans(traffic_level, n_tables, n_devices, threshold):
    """Zero-skew guarantee, property form: perfectly uniform per-*device*
    traffic keeps max/mean at 1.0, which is ≤ every legal threshold, so
    the planner must return an empty plan with no advisories."""
    from repro.core.sharding import TableWiseSharding

    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=32, dim=4,
        batch_size=8, max_pooling=2, seed=1,
    )
    plan = TableWiseSharding(cfg.table_configs(), n_devices)
    owners = {c.name: plan.owner_of(c.name) for c in plan.table_configs}
    # Equal traffic per device: split the level evenly among its tables.
    per_device = {}
    for name, dev in owners.items():
        per_device.setdefault(dev, []).append(name)
    traffic = {}
    for dev, names in per_device.items():
        for name in names:
            traffic[name] = traffic_level / len(names)
    # Devices with no tables make max/mean > 1 legitimately; restrict to
    # the covered case, which is what "uniform" means here.
    if len(per_device) != n_devices:
        return
    planner = ReshardPlanner(plan, ReshardSpec(imbalance_threshold=threshold))
    verdict = planner.propose(
        traffic, owners, [float(1 << 40)] * n_devices
    )
    assert verdict.empty
    assert not verdict.advisories
    assert verdict.imbalance_before <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    bytes_seq=st.lists(
        st.dictionaries(
            st.sampled_from(TABLE_NAMES),
            st.floats(min_value=0.0, max_value=1e9),
            min_size=1,
        ),
        min_size=1,
        max_size=10,
    ),
    window=st.integers(min_value=1, max_value=5),
)
def test_tracker_window_matches_naive_sum(bytes_seq, window):
    """The incremental eviction bookkeeping must agree with a from-scratch
    sum over the last ``window`` observations."""
    tracker = LoadTracker(window)
    for entry in bytes_seq:
        tracker.observe(entry)
    expected = {}
    for entry in bytes_seq[-window:]:
        for name, b in entry.items():
            expected[name] = expected.get(name, 0.0) + b
    got = tracker.table_traffic()
    for name in set(expected) | set(got):
        assert got.get(name, 0.0) == np.float64(expected.get(name, 0.0)) or (
            abs(got.get(name, 0.0) - expected.get(name, 0.0))
            <= 1e-6 * max(1.0, expected.get(name, 0.0))
        )
