"""Functional-equality tests: both backends must match the oracle exactly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functional import (
    SendBlock,
    ShardedEmbeddingTables,
    baseline_functional_forward,
    pgas_functional_forward,
    reference_forward,
)
from repro.core.sharding import TableWiseSharding, minibatch_bounds
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.dlrm.embedding import EmbeddingBagCollection


def setup(n_tables=6, G=3, B=33, dim=8, strategy="contiguous", seed=11, max_pool=5):
    """``strategy`` is ``"contiguous"`` or ``"round_robin"`` (table ``i`` on
    device ``i % G``, an explicit assignment)."""
    cfg = WorkloadConfig(
        num_tables=n_tables, rows_per_table=50, dim=dim, batch_size=B,
        max_pooling=max_pool, min_pooling=0, seed=seed,
    )
    ebc = EmbeddingBagCollection.from_configs(
        cfg.table_configs(), rng=np.random.default_rng(seed)
    )
    if strategy == "round_robin":
        owners = {t.name: i % G for i, t in enumerate(cfg.table_configs())}
        plan = TableWiseSharding.from_assignment(cfg.table_configs(), G, owners)
    else:
        plan = TableWiseSharding(cfg.table_configs(), G)
    sharded = ShardedEmbeddingTables.from_collection(ebc, plan)
    batch = SyntheticDataGenerator(cfg).sparse_batch()
    return ebc, plan, sharded, batch


class TestShardedTables:
    def test_from_collection_aliases_weights(self):
        ebc, plan, sharded, _ = setup()
        t = sharded.per_device[0][0]
        assert t.weights is ebc.table(t.name).weights

    def test_wrong_device_count_rejected(self):
        ebc, plan, sharded, _ = setup(G=2)
        with pytest.raises(ValueError):
            ShardedEmbeddingTables(plan, sharded.per_device[:1])

    def test_wrong_table_assignment_rejected(self):
        ebc, plan, _, _ = setup(G=2)
        wrong = [
            [ebc.table(t.name) for t in plan.tables_on(1)],
            [ebc.table(t.name) for t in plan.tables_on(0)],
        ]
        with pytest.raises(ValueError, match="do not match plan"):
            ShardedEmbeddingTables(plan, wrong)

    def test_build_creates_fresh_weights(self):
        cfgs = WorkloadConfig(num_tables=4, rows_per_table=10, dim=4, batch_size=2,
                              max_pooling=1).table_configs()
        sh = ShardedEmbeddingTables.from_collection(
            EmbeddingBagCollection.from_configs(cfgs), TableWiseSharding(cfgs, 2)
        )
        assert sh.n_devices == 2
        assert sh.dim == 4

    def test_local_forward_shape(self):
        _, plan, sharded, batch = setup(n_tables=6, G=3, B=33)
        out = sharded.local_forward(1, batch)
        assert out.shape == (33, 2, 8)


class TestBaselineFunctional:
    def test_matches_reference_exactly(self):
        ebc, plan, sharded, batch = setup()
        ref = reference_forward(ebc, batch)
        outs, _ = baseline_functional_forward(sharded, batch)
        for g, (lo, hi) in enumerate(minibatch_bounds(batch.batch_size, 3)):
            assert np.array_equal(outs[g], ref[lo:hi])

    def test_send_blocks_cover_all_pairs(self):
        _, plan, sharded, batch = setup(G=3)
        _, blocks = baseline_functional_forward(sharded, batch)
        pairs = {(b.src, b.dst) for b in blocks}
        assert pairs == {(s, d) for s in range(3) for d in range(3)}

    def test_send_block_bytes_match_workload_model(self):
        """Wire format of the functional layer == the timing model's bytes."""
        from repro.core.workload import alltoall_split_bytes, build_device_workloads, lengths_from_batch

        _, plan, sharded, batch = setup(G=3)
        _, blocks = baseline_functional_forward(sharded, batch)
        wls = build_device_workloads(plan, lengths_from_batch(batch))
        split = alltoall_split_bytes(wls)
        for b in blocks:
            if b.src != b.dst:
                assert b.nbytes == split[b.src, b.dst]

    def test_output_dtype_and_shape(self):
        _, _, sharded, batch = setup(G=2, B=10)
        outs, _ = baseline_functional_forward(sharded, batch)
        assert outs[0].shape == (5, 6, 8)
        assert outs[0].dtype == np.float32


class TestPGASFunctional:
    def test_bitwise_equal_to_baseline(self):
        _, _, sharded, batch = setup()
        base, _ = baseline_functional_forward(sharded, batch)
        pgas = pgas_functional_forward(sharded, batch)
        for a, b in zip(base, pgas):
            assert np.array_equal(a, b)

    def test_matches_reference_exactly(self):
        ebc, _, sharded, batch = setup(G=4, B=29)
        ref = reference_forward(ebc, batch)
        outs = pgas_functional_forward(sharded, batch)
        for g, (lo, hi) in enumerate(minibatch_bounds(29, 4)):
            assert np.array_equal(outs[g], ref[lo:hi])


class TestEdgeCases:
    def test_single_device_is_reference(self):
        ebc, _, sharded, batch = setup(G=1)
        ref = reference_forward(ebc, batch)
        base, blocks = baseline_functional_forward(sharded, batch)
        pgas = pgas_functional_forward(sharded, batch)
        assert np.array_equal(base[0], ref)
        assert np.array_equal(pgas[0], ref)

    def test_more_devices_than_tables(self):
        ebc, _, sharded, batch = setup(n_tables=2, G=4)
        ref = reference_forward(ebc, batch)
        for outs in (baseline_functional_forward(sharded, batch)[0],
                     pgas_functional_forward(sharded, batch)):
            for g, (lo, hi) in enumerate(minibatch_bounds(batch.batch_size, 4)):
                assert np.array_equal(outs[g], ref[lo:hi])

    def test_round_robin_sharding_unpack_permutation(self):
        """Round-robin needs a feature permutation on unpack — still exact."""
        ebc, _, sharded, batch = setup(strategy="round_robin")
        ref = reference_forward(ebc, batch)
        outs, _ = baseline_functional_forward(sharded, batch)
        for g, (lo, hi) in enumerate(minibatch_bounds(batch.batch_size, 3)):
            assert np.array_equal(outs[g], ref[lo:hi])

    def test_all_empty_bags(self):
        ebc, _, sharded, batch = setup(max_pool=0)
        assert all(f.nnz == 0 for _, f in batch)
        ref = reference_forward(ebc, batch)
        assert np.all(ref == 0)
        outs = pgas_functional_forward(sharded, batch)
        assert all(np.all(o == 0) for o in outs)

    def test_batch_smaller_than_devices(self):
        ebc, _, sharded, batch = setup(B=2, G=3)
        ref = reference_forward(ebc, batch)
        outs = pgas_functional_forward(sharded, batch)
        bounds = minibatch_bounds(2, 3)
        for g, (lo, hi) in enumerate(bounds):
            assert outs[g].shape[0] == hi - lo
            assert np.array_equal(outs[g], ref[lo:hi])


@settings(deadline=None, max_examples=25)
@given(
    n_tables=st.integers(min_value=1, max_value=8),
    G=st.integers(min_value=1, max_value=5),
    B=st.integers(min_value=1, max_value=40),
    strategy=st.sampled_from(["contiguous", "round_robin"]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_backend_equivalence_property(n_tables, G, B, strategy, seed):
    """For ANY shape, sharding, and data: baseline == PGAS == reference."""
    ebc, _, sharded, batch = setup(
        n_tables=n_tables, G=G, B=B, strategy=strategy, seed=seed
    )
    ref = reference_forward(ebc, batch)
    base, _ = baseline_functional_forward(sharded, batch)
    pgas = pgas_functional_forward(sharded, batch)
    for g, (lo, hi) in enumerate(minibatch_bounds(B, G)):
        assert np.array_equal(base[g], ref[lo:hi])
        assert np.array_equal(pgas[g], base[g])
