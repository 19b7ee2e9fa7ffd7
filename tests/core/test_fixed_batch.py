"""A fixed batch equals the blocks batch of its constant rows.

Under fixed pooling every sample of a feature looks up the same number of
rows, so ``sample_lengths`` returns :meth:`LengthsBatch.fixed`: one
pooling factor per feature and the batch size.  Its oracle is the blocks
batch that ``LengthsBatch({name: np.full(B, p)})`` builds: counts at any
block size, per-sample reads, cuts and every error must equal the
oracle's.  The draw itself takes nothing from the generator, as the
per-sample draw it replaces takes nothing.

What is derived from a fixed batch is derived once: its workloads per
plan and block size, and the fused kernel's launch plan per workload.
"""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pgas_retrieval import PGASFusedRetrieval
from repro.core.sharding import TableWiseSharding
from repro.core.workload import DeviceWorkload, build_device_workloads
from repro.dlrm.data import FeatureLayout, LengthsBatch, SyntheticDataGenerator, WorkloadConfig
from repro.simgpu.cluster import dgx_v100

BATCH_SIZES = [0, 1, 63, 64, 65, 5000]
BLOCK_SIZES = (1, 7, 64, 65, 4096)


def fixed_and_oracle(poolings, batch_size):
    names = [f"f{i}" for i in range(len(poolings))]
    fixed = LengthsBatch.fixed(FeatureLayout(names), batch_size, np.array(poolings))
    oracle = LengthsBatch({n: np.full(batch_size, p) for n, p in zip(names, poolings)})
    return fixed, oracle


def assert_reads_equal(got, want):
    assert got.batch_size == want.batch_size
    assert list(got) == list(want)
    for name in want:
        row, ref = got[name], want[name]
        assert row.dtype == ref.dtype == np.int64 and row.shape == ref.shape
        assert not row.flags.writeable
        np.testing.assert_array_equal(row, ref)
    for spb in BLOCK_SIZES:
        counts, ref = got.chunk_counts(spb), want.chunk_counts(spb)
        assert counts.dtype == ref.dtype == np.int64 and counts.shape == ref.shape
        assert not counts.flags.writeable
        np.testing.assert_array_equal(counts, ref)


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


poolings = st.lists(st.integers(0, 300), min_size=1, max_size=12)


class TestEqualsTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(poolings=poolings, batch_size=st.sampled_from(BATCH_SIZES))
    def test_counts_and_reads(self, poolings, batch_size):
        fixed, oracle = fixed_and_oracle(poolings, batch_size)
        assert fixed._pooling is not None and oracle._pooling is None
        assert_reads_equal(fixed, oracle)

    @settings(max_examples=60, deadline=None)
    @given(
        poolings=poolings,
        batch_size=st.sampled_from(BATCH_SIZES),
        picks=st.lists(st.integers(0, 2**31), max_size=70),
        negative=st.booleans(),
    )
    def test_take(self, poolings, batch_size, picks, negative):
        """Empty, negative and repeated rows cut what the oracle cuts."""
        fixed, oracle = fixed_and_oracle(poolings, batch_size)
        rows = [p % batch_size for p in picks] if batch_size else []
        if negative:
            rows = [r - batch_size for r in rows]
        rows = rows + rows[:3]  # repeated
        assert_reads_equal(fixed.take(rows), oracle.take(rows))

    @settings(max_examples=30, deadline=None)
    @given(poolings=poolings, batch_size=st.sampled_from(BATCH_SIZES))
    def test_errors(self, poolings, batch_size):
        fixed, oracle = fixed_and_oracle(poolings, batch_size)
        for rows in (
            np.zeros((2, 2), dtype=np.int64),
            np.array([0.0, 1.0]),
            [batch_size],
            [-batch_size - 1],
        ):
            assert raised(lambda: fixed.take(rows)) == raised(lambda: oracle.take(rows))

    def test_a_cut_is_made_once_per_size(self):
        fixed, _ = fixed_and_oracle([3, 0, 5], 100)
        a, b, c = fixed.take([1, 2]), fixed.take([-1, 7]), fixed.take([4])
        assert a is b and a is not c
        assert a._pooling is fixed._pooling and a.layout is fixed.layout

    def test_memoized_only_on_a_fixed_batch(self):
        fixed, oracle = fixed_and_oracle([3, 1], 10)
        assert fixed.memoized("k", object) is fixed.memoized("k", object)
        assert oracle.memoized("k", object) is not oracle.memoized("k", object)


# -- the draw -----------------------------------------------------------------------


def todays_draw(gen, batch_size):
    """The per-sample block draw ``sample_lengths`` made before the fixed form."""
    return LengthsBatch.drawn(gen._layout, batch_size, gen._rng, gen._block_draw(batch_size))


def assert_draws_like_today(make, batch_sizes=(257, 3, 64)):
    got_gen, ref_gen = make(), make()
    for B in batch_sizes:
        got, ref = got_gen.sample_lengths(batch_size=B), todays_draw(ref_gen, B)
        assert got._pooling is not None
        assert_reads_equal(got, ref)
        assert got_gen._rng.bit_generator.state == ref_gen._rng.bit_generator.state
    # The streams go on alike.
    np.testing.assert_array_equal(
        got_gen.lengths_batch(batch_size=100).chunk_counts(64),
        ref_gen.lengths_batch(batch_size=100).chunk_counts(64),
    )


class TestDraw:
    @pytest.mark.parametrize("pooling", [0, 1, 8, 300])
    @pytest.mark.parametrize("skew", [None, 1.2])
    def test_synthetic(self, pooling, skew):
        cfg = WorkloadConfig(
            num_tables=40, min_pooling=pooling, max_pooling=pooling,
            table_skew_alpha=skew, seed=11,
        )
        assert_draws_like_today(lambda: SyntheticDataGenerator(cfg))

    def test_one_ranged_table_keeps_blocks(self):
        cfg = WorkloadConfig(num_tables=4, min_pooling=7, max_pooling=8)
        assert SyntheticDataGenerator(cfg).sample_lengths()._pooling is None


# -- what is derived from it --------------------------------------------------------

WL = WorkloadConfig(
    num_tables=13, dim=16, batch_size=300, min_pooling=6, max_pooling=6, seed=3
)


def plan_and_pool(n_devices=4):
    plan = TableWiseSharding(WL.table_configs(), n_devices)
    return plan, SyntheticDataGenerator(WL).sample_lengths()


class TestWorkloadMemo:
    def test_a_build_per_plan_and_block_size(self):
        plan, pool = plan_and_pool()
        sub = pool.take(np.arange(70))
        first = build_device_workloads(plan, sub)
        second = build_device_workloads(plan, pool.take(np.arange(70, 140)))
        assert second is not first and all(a is b for a, b in zip(first, second))
        other = build_device_workloads(plan, sub, samples_per_block=16)
        assert not any(a is b for a, b in zip(first, other))
        fresh = build_device_workloads(TableWiseSharding(WL.table_configs(), 4), sub)
        assert not any(a is b for a, b in zip(first, fresh))

    def test_equals_a_build_of_constant_rows(self):
        plan, pool = plan_and_pool()
        sub = pool.take(np.arange(130))
        got = build_device_workloads(plan, sub)
        want = build_device_workloads(plan, {name: sub[name] for name in sub})
        for a, b in zip(got, want):
            for f in dataclasses.fields(DeviceWorkload):
                np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_a_batch_that_is_not_fixed_builds_every_time(self):
        plan = TableWiseSharding(WL.table_configs(), 4)
        batch = SyntheticDataGenerator(dataclasses.replace(WL, min_pooling=0)).sample_lengths()
        first, second = build_device_workloads(plan, batch), build_device_workloads(plan, batch)
        assert not any(a is b for a, b in zip(first, second))


class TestLaunchPlan:
    def test_a_plan_per_workload_that_dies_with_it(self):
        plan, pool = plan_and_pool()
        pgas = PGASFusedRetrieval(dgx_v100(4))
        workloads = build_device_workloads(plan, pool.take(np.arange(200)))
        first = pgas.run_batch(workloads)
        plans = [pgas._plans[wl] for wl in workloads]
        second = pgas.run_batch(build_device_workloads(plan, pool.take(np.arange(200))))
        assert [pgas._plans[wl] for wl in workloads] == plans
        assert first.as_dict() == second.as_dict()
        del workloads, pool
        gc.collect()
        assert len(pgas._plans) == 0

    def test_a_plan_does_not_refer_to_its_workload(self):
        plan, pool = plan_and_pool()
        pgas = PGASFusedRetrieval(dgx_v100(4))
        workloads = build_device_workloads(plan, pool)
        pgas.run_batch(workloads)
        for wl in workloads:
            launch = pgas._plans[wl]
            reached = gc.get_referents(launch.kspec, launch.waves_dst, launch.others)
            assert not any(obj is wl for obj in reached)
