"""One batch's lookup counts and destination tiles, derived once and shared.

A :class:`LengthsBatch` memoizes each table's per-chunk lookup counts, so a
second backend running the same batch reads the first build's counts; the
destination tile and its reductions are cached per batch shape.  Both must
be invisible: every simulated number, every event count and every
:class:`DeviceWorkload` field equals what fresh plain dicts give.  Bad
lengths fail with :class:`InvalidLengthsError` naming the feature.

The lengths live in a few row blocks of at most ``_BLOCK_BYTES`` each:
a block is drawn with one call and bit-equals per-table draws, no call
allocates more than a block, and a batch costs numpy calls per block, not
per table.  A drawn batch stores its blocks in the narrowest unsigned type
the generator's declared range allows, yet reads as int64.

A generator's ``lengths_batch`` is its lookup counts per
``EMB_SAMPLES_PER_BLOCK`` samples only, each chunk's drawn from the exact
law of its samples' sum, and every per-sample read of it raises
:class:`CountsOnlyError`.  ``sample_lengths`` draws the per-sample values,
which equal per-table reference draws.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.hier import HierSpec
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.sharding import RowWiseSharding, TableWiseSharding
from repro.core.workload import (
    DeviceWorkload,
    _dst_tile,
    build_device_workloads,
    build_rowwise_workloads,
)
from repro.dlrm import data as data_mod
from repro.dlrm.data import (
    STRONG_SCALING_TOTAL,
    CountsOnlyError,
    InvalidLengthsError,
    LengthsBatch,
    SyntheticDataGenerator,
    WorkloadConfig,
)
from repro.dlrm.heterogeneous import (
    HeterogeneousDataGenerator,
    HeterogeneousWorkload,
    TableProfile,
    criteo_like,
)
from repro.simgpu.cluster import multinode

SMALL = WorkloadConfig(num_tables=12, dim=16, batch_size=200, max_pooling=9, seed=5)


def shape(num_tables, batch_size, max_pooling=16):
    return WorkloadConfig(
        num_tables=num_tables, dim=32, batch_size=batch_size, max_pooling=max_pooling, seed=3
    )


def hier_2x4():
    return {"cluster": multinode(2, 4), "features": FeatureSpec(hier=HierSpec(devices_per_node=4))}


# (config, GPUs, backend suffix, fresh extra DistributedEmbedding arguments)
SHARING_CASES = {
    "g2": (shape(8, 512), 2, "", dict),
    "g4": (shape(13, 700), 4, "", dict),  # 13 tables: two tile shapes
    "g64": (shape(128, 1024, max_pooling=8), 64, "", dict),
    "hier-2x4": (shape(16, 512), 8, "+hier", hier_2x4),
}


def plain(lengths):
    """A fresh writeable plain-dict copy of a batch: nothing to share."""
    return {name: np.array(arr) for name, arr in lengths.items()}


def run_both(case, batch_for):
    """pgas then baseline, each fed ``batch_for()``; timings, events, workloads."""
    cfg, n_devices, suffix, extra = SHARING_CASES[case]
    out = []
    for base in ("pgas", "baseline"):
        emb = DistributedEmbedding(cfg, n_devices, backend=base + suffix, **extra())
        batch = batch_for()
        workloads = emb.build_workloads(batch)
        timing = emb.forward_timed(batch)
        out.append((timing.as_dict(), emb.cluster.engine._seq, workloads))
    return out


def assert_same_workloads(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(DeviceWorkload):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, f.name
                np.testing.assert_array_equal(x, y, err_msg=f.name)
            else:
                assert x == y, f.name
        np.testing.assert_array_equal(a.output_bytes_by_dst, b.output_bytes_by_dst)


class TestSharingIsInvisible:
    @pytest.mark.parametrize("case", sorted(SHARING_CASES))
    def test_one_batch_through_both_backends_equals_fresh_dicts(self, case):
        shared = SyntheticDataGenerator(SHARING_CASES[case][0]).sample_lengths()
        got = run_both(case, lambda: shared)
        want = run_both(case, lambda: plain(shared))
        for (t_got, seq_got, wl_got), (t_want, seq_want, wl_want) in zip(got, want):
            assert t_got == t_want
            assert seq_got == seq_want
            assert_same_workloads(wl_got, wl_want)

    def test_second_build_reads_the_first_builds_counts(self):
        plan = TableWiseSharding(SMALL.table_configs(), 4)
        lengths = SyntheticDataGenerator(SMALL).sample_lengths()
        first = build_device_workloads(plan, lengths, samples_per_block=16)
        counts = lengths.chunk_counts(16)
        build_device_workloads(plan, lengths, samples_per_block=16)
        assert lengths.chunk_counts(16) is counts
        assert_same_workloads(
            build_device_workloads(plan, lengths, samples_per_block=16), first
        )

    @pytest.mark.parametrize("batch_size", [3, 200, 8192, 9001, 2**17 + 1])
    def test_grouped_and_single_reductions_match_per_table(self, batch_size):
        # Small batches hold every feature in one block, the largest one
        # feature per block.
        rng = np.random.default_rng(batch_size)
        dtypes = [np.int64, np.int32, np.uint8, np.int16, np.uint64, np.int64, np.int8]
        arrays = {
            f"f{i}": rng.integers(0, 100, size=batch_size).astype(d) for i, d in enumerate(dtypes)
        }
        lengths = LengthsBatch(arrays)
        for spb in (1, 7, 64, 500, 4096):
            starts = np.arange(0, batch_size, spb)
            counts = lengths.chunk_counts(spb)
            assert counts.dtype == np.int64 and counts.shape == (len(dtypes), len(starts))
            for name, arr in arrays.items():
                np.testing.assert_array_equal(
                    counts[lengths.layout.rows[name]],
                    np.add.reduceat(arr.astype(np.int64), starts),
                )


class TestFrozen:
    def test_generated_lengths_and_counts_raise_on_write(self):
        with pytest.raises(ValueError):
            SyntheticDataGenerator(SMALL).lengths_batch().chunk_counts(64)[0, 0] = 1
        lengths = SyntheticDataGenerator(SMALL).sample_lengths()
        assert isinstance(lengths, Mapping) and not isinstance(lengths, dict)
        name = next(iter(lengths))
        with pytest.raises(ValueError):
            lengths[name][0] = 1
        with pytest.raises(ValueError):
            lengths.chunk_counts(16)[lengths.layout.rows[name], 0] = 1
        with pytest.raises(TypeError):
            lengths[name] = np.zeros(SMALL.batch_size, dtype=np.int64)
        with pytest.raises(ValueError):
            lengths.chunk_counts(16)[lengths.layout.rows[name]] = np.zeros(13, dtype=np.int64)

    def test_heterogeneous_generator_returns_a_frozen_batch(self):
        gen = HeterogeneousDataGenerator(criteo_like(num_tables=4, batch_size=64))
        counted = gen.lengths_batch()
        assert isinstance(counted, LengthsBatch)
        assert not counted.chunk_counts(64).flags.writeable

    def test_wrapping_leaves_the_callers_arrays_writeable(self):
        mine = np.arange(8, dtype=np.int64)
        lengths = LengthsBatch({"f": mine})
        assert mine.flags.writeable
        with pytest.raises(ValueError):
            lengths["f"][0] = 1

    def test_the_callers_arrays_cannot_change_the_batch(self):
        mine = np.arange(8, dtype=np.int32)
        lengths = LengthsBatch({"f": mine})
        counts = lengths.chunk_counts(4)
        mine[:] = -1
        assert lengths["f"].tolist() == list(range(8))
        assert lengths["f"].dtype == np.int64
        assert lengths.chunk_counts(4) is counts and counts.tolist() == [[6, 22]]

    def test_take_selects_rows_into_a_new_frozen_batch(self):
        lengths = SyntheticDataGenerator(SMALL).sample_lengths()
        rows = np.array([5, 0, 199, 5])
        sub = lengths.take(rows)
        assert isinstance(sub, LengthsBatch) and sub.batch_size == 4
        assert list(sub) == list(lengths)
        for name, arr in sub.items():
            np.testing.assert_array_equal(arr, lengths[name][rows])
            assert not arr.flags.writeable
        # The values are still checked when the sub-batch's counts are derived.
        pool = LengthsBatch({"f": np.array([1, 2, -3, 4])})
        assert pool.take([0, 1]).chunk_counts(64)[0].tolist() == [3]
        with pytest.raises(InvalidLengthsError, match="'f'"):
            pool.take([2, 3]).chunk_counts(64)

    def test_lists_of_ints_work(self):
        emb = DistributedEmbedding(SMALL, 2, backend="pgas")
        arrays = SyntheticDataGenerator(SMALL).sample_lengths()
        as_lists = {name: [int(v) for v in arr] for name, arr in arrays.items()}
        want = DistributedEmbedding(SMALL, 2, backend="pgas").forward_timed(arrays)
        assert emb.forward_timed(as_lists).as_dict() == want.as_dict()


# -- the shape-keyed destination tile -------------------------------------------


def built(spb=16, n_devices=4):
    plan = TableWiseSharding(SMALL.table_configs(), n_devices)
    lengths = SyntheticDataGenerator(SMALL).sample_lengths()
    return build_device_workloads(plan, lengths, samples_per_block=spb)


class TestDstTile:
    def test_everything_the_cache_hands_out_is_read_only(self):
        wls = built()
        tile = _dst_tile(SMALL.batch_size, 4, 16, 3, wls[0].row_bytes)
        assert all(wl.block_dst_bytes is tile.block_dst_bytes for wl in wls)
        arrays = [tile.block_dst_bytes, tile.by_dst, wls[0].output_bytes_by_dst]
        arrays += [wls[0].wave_dst_bytes(c) for c in (1, 5, 640)]
        assert wls[1].wave_dst_bytes(5) is wls[0].wave_dst_bytes(5)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_one_tile_per_shape_across_batches(self):
        assert built()[0].block_dst_bytes is built()[0].block_dst_bytes
        assert built(spb=8)[0].block_dst_bytes is not built()[0].block_dst_bytes

    def test_tile_must_reduce_the_workloads_own_bytes(self):
        wl = built()[0]
        tile = _dst_tile(SMALL.batch_size, 4, 16, 3, wl.row_bytes)
        fields = {f.name: getattr(wl, f.name) for f in dataclasses.fields(wl)}
        fields["block_dst_bytes"] = np.array(wl.block_dst_bytes)
        with pytest.raises(ValueError, match="tile"):
            DeviceWorkload(**fields, tile=tile)


# -- bad lengths fail with a typed error naming the feature -----------------------


def bad(kind, good):
    if kind == "negative":
        arr = good.copy()
        arr[3] = -1
        return arr
    if kind == "fractional":
        return good.astype(np.float64) + 0.7
    if kind == "nan":
        arr = good.astype(np.float64)
        arr[0] = np.nan
        return arr
    if kind == "bool":
        return good > 2
    if kind == "object":
        return np.array([int(v) for v in good], dtype=object)
    if kind == "2-d":
        return good.reshape(-1, 2)
    raise AssertionError(kind)


class TestBadLengths:
    @pytest.mark.parametrize("kind", ["negative", "fractional", "nan", "bool", "object", "2-d"])
    def test_forward_timed_raises_a_typed_error(self, kind):
        lengths = plain(SyntheticDataGenerator(SMALL).sample_lengths())
        lengths["sparse_7"] = bad(kind, lengths["sparse_7"])
        emb = DistributedEmbedding(SMALL, 2, backend="pgas")
        with pytest.raises(InvalidLengthsError, match="sparse_7"):
            emb.forward_timed(lengths)
        rowwise = RowWiseSharding(SMALL.table_configs(), 2)
        with pytest.raises(InvalidLengthsError, match="sparse_7"):
            build_rowwise_workloads(rowwise, lengths)
        assert issubclass(InvalidLengthsError, ValueError)

    @pytest.mark.parametrize("batch_size", [200, 9001])
    def test_the_error_names_the_negative_feature(self, batch_size):
        arrays = {f"f{i}": np.ones(batch_size, dtype=np.int64) for i in range(5)}
        arrays["f3"] = arrays["f3"].copy()
        arrays["f3"][-1] = -4
        with pytest.raises(InvalidLengthsError, match="'f3': negative pooling factor -4"):
            LengthsBatch(arrays).chunk_counts(64)

    @pytest.mark.parametrize("batch_size", [200, 9000])
    def test_uint64_beyond_int64_names_the_feature_and_value(self, batch_size):
        arrays = {f"f{i}": np.ones(batch_size, dtype=np.uint64) for i in range(3)}
        arrays["f1"] = np.full(batch_size, 2**63 + 5, dtype=np.uint64)
        with pytest.raises(InvalidLengthsError, match="'f1': pooling factor 9223372036854775813"):
            LengthsBatch(arrays)
        emb = DistributedEmbedding(WorkloadConfig(num_tables=3, dim=16, batch_size=batch_size), 2)
        with pytest.raises(InvalidLengthsError, match="'sparse_1': pooling factor 9223372036854775813"):
            emb.forward_timed({f"sparse_{i}": arr for i, arr in enumerate(arrays.values())})
        arrays["f1"][:] = 2**63 - 1  # the largest that fits is fine
        assert LengthsBatch(arrays)["f1"][0] == 2**63 - 1

    def test_negative_lengths_fail_on_a_generated_batch_too(self):
        good = SyntheticDataGenerator(SMALL).sample_lengths()
        lengths = LengthsBatch({**good, "sparse_0": bad("negative", np.array(good["sparse_0"]))})
        with pytest.raises(InvalidLengthsError, match="sparse_0"):
            lengths.chunk_counts(16)


# -- row blocks: drawn like per-table draws, small, few calls --------------------


def per_table_reference(seed, ranges, batch_sizes, scales=None):
    """Per-table ``rng.integers`` draws of successive batches, and the rng."""
    rng = np.random.default_rng(seed)
    batches = []
    for B in batch_sizes:
        out = []
        for t, (lo, hi) in enumerate(ranges):
            arr = rng.integers(lo, hi + 1, size=B, dtype=np.int64)
            if scales is not None:
                arr = np.rint(arr.astype(np.float64) * scales[t]).astype(np.int64)
            out.append(arr)
        batches.append(out)
    return batches, rng


#: odd and even B; 40 tables span several blocks from B = 1001 up.  An odd
#: B draws an odd number of 32-bit words, so the next batch starts on a
#: half-word the generator still holds.
DRAW_SIZES = [(3, 1001), (256, 8193), (1, 2), (16384, 3)]


class TestBlockDraws:
    @pytest.mark.parametrize("sizes", DRAW_SIZES, ids=str)
    @pytest.mark.parametrize(
        "pooling, skew",
        [((0, 128), None), ((8, 8), None), ((0, 2**31), None), ((0, 32), 1.2)],
        ids=["uniform", "fixed", "rejection", "skewed"],
    )
    def test_synthetic_blocks_equal_per_table_draws(self, sizes, pooling, skew):
        cfg = WorkloadConfig(
            num_tables=40, min_pooling=pooling[0], max_pooling=pooling[1],
            table_skew_alpha=skew, seed=11,
        )
        gen = SyntheticDataGenerator(cfg)
        got = [gen.sample_lengths(batch_size=B) for B in sizes]
        want, rng = per_table_reference(
            11, [pooling] * 40, sizes, cfg.table_skew_scales()
        )
        for batch, arrays in zip(got, want):
            if pooling[0] == pooling[1]:
                # A one-value range draws the fixed form: no blocks at all.
                assert batch._pooling is not None and batch._kept is None
            else:
                assert len(batch._blocks) == -(-40 // data_mod._block_rows(batch.batch_size))
            for name, arr in zip(cfg.feature_names, arrays):
                np.testing.assert_array_equal(batch[name], arr)
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("sizes", DRAW_SIZES, ids=str)
    def test_heterogeneous_blocks_equal_per_table_draws(self, sizes):
        """Ranges past the law's cap make ``lengths_batch`` draw every
        sample in row blocks and reduce them."""
        ranges = [(0, 64), (1, 1), (0, 2**31), (3, 9), (0, 2**33)] * 8
        wl = HeterogeneousWorkload(
            tables=tuple(
                TableProfile(f"t{i}", 1000, max_pooling=hi, min_pooling=lo)
                for i, (lo, hi) in enumerate(ranges)
            ),
            seed=13,
        )
        gen = HeterogeneousDataGenerator(wl)
        got = [gen.lengths_batch(batch_size=B) for B in sizes]
        want, rng = per_table_reference(13, ranges, sizes)
        for batch, arrays in zip(got, want):
            for counts, arr in zip(batch.chunk_counts(64), arrays):
                chunks = np.arange(0, arr.size, 64)
                np.testing.assert_array_equal(counts, np.add.reduceat(arr, chunks))
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    def test_one_generator_shares_one_layout_with_its_takes(self):
        gen = SyntheticDataGenerator(SMALL)
        first, second = gen.sample_lengths(), gen.lengths_batch(batch_size=7)
        assert first.layout is second.layout is first.take([1, 2]).layout
        assert first.layout.names == tuple(SMALL.feature_names)
        assert LengthsBatch(plain(first)).layout is not first.layout


def numpy_allocations(fn):
    """``fn()``, the largest numpy buffer it leaves allocated, and how far
    its peak traced memory rose above what it leaves allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        after, peak = tracemalloc.get_traced_memory()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        )
    finally:
        tracemalloc.stop()
    largest = max((trace.size for trace in snap.traces), default=0)
    return out, largest, peak - before - (after - before)


#: the block budget DESIGN §17 measured; a larger one raised peak RSS
BLOCK_BUDGET = 256 * 1024


class TestBlockBudget:
    """No array a batch allocates is larger than one block: a per-batch
    ``(T, B)`` matrix is what pushed peak RSS up (DESIGN §17)."""

    @pytest.mark.parametrize(
        "num_tables, batch_size, skew",
        [(64, 16_384, None), (64, 16_384, 1.1), (308, 5000, None), (3, 70_000, None)],
    )
    def test_no_allocation_exceeds_a_block(self, num_tables, batch_size, skew):
        cfg = WorkloadConfig(
            num_tables=num_tables, batch_size=batch_size, table_skew_alpha=skew, seed=2
        )
        limit = max(BLOCK_BUDGET, 8 * batch_size)
        gen = SyntheticDataGenerator(cfg)
        het = HeterogeneousDataGenerator(criteo_like(num_tables, batch_size=batch_size))
        for draw in (het.lengths_batch, gen.lengths_batch, gen.sample_lengths):
            batch, largest, transient = numpy_allocations(draw)
            assert 0 < largest <= limit
            assert transient <= 4 * limit
        arrays = plain(batch)
        _, largest, transient = numpy_allocations(lambda: LengthsBatch(arrays))
        assert largest <= limit and transient <= 4 * limit
        rows = np.arange(0, batch_size, 3)
        _, largest, transient = numpy_allocations(lambda: batch.take(rows))
        assert 0 < largest <= max(BLOCK_BUDGET, 8 * len(rows))
        assert transient <= 4 * limit


def numpy_calls(fn):
    """``fn()`` and the numpy functions and methods called from this
    module's source file while it runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == data_mod.__file__:
            owner = getattr(arg, "__self__", None)
            if isinstance(owner, (np.ndarray, np.ufunc)) or (
                getattr(arg, "__module__", None) or ""
            ).startswith("numpy"):
                calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


class CountingRng:
    """A generator that records the ``size`` of each ``integers`` call.
    numpy's Generator methods are Cython functions, which raise no
    profiler events, so :func:`numpy_calls` cannot see them."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, *args, size, **kwargs):
        self.sizes.append(size)
        return self.rng.integers(*args, size=size, **kwargs)


#: the serve-prod-g8 pool's shape with a ranged pooling factor, so it keeps
#: its uint8 blocks (52 of them); at fixed pooling 8 it is the fixed form
RANGED_POOL = WorkloadConfig(
    num_tables=308, batch_size=5000, min_pooling=0, max_pooling=8, seed=1
)


class TestCallsPerBlock:
    def test_a_308_table_sub_batch_costs_calls_per_block(self):
        """A 256-sample sub-batch of a 5000-sample pool of the serve-prod-g8
        shape.  ``take`` gathers each source block once per destination
        block it overlaps; ``chunk_counts`` checks and reduces each block
        with one call apiece."""
        pool = SyntheticDataGenerator(RANGED_POOL).sample_lengths()
        rows = np.sort(np.random.default_rng(0).choice(5000, 256, replace=False))
        sub, calls = numpy_calls(lambda: pool.take(rows))
        src, dst = len(pool._blocks), len(sub._blocks)
        assert (src, dst) == (52, 3)
        assert calls.count("take") <= src + dst - 1
        assert calls.count("empty") == dst
        assert len(calls) - calls.count("take") - dst <= 3  # asarray, min, max
        counts, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert sorted(calls) == sorted(["arange", "empty"] + ["min", "reduceat"] * dst)
        assert counts.shape == (308, 4)
        np.testing.assert_array_equal(counts, LengthsBatch(plain(sub)).chunk_counts(64))
        _, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert calls == []

    def test_sample_lengths_costs_one_draw_and_one_cast_per_block(self):
        gen = SyntheticDataGenerator(RANGED_POOL)
        gen._rng = counting = CountingRng(gen._rng)
        blocks, calls = numpy_calls(lambda: gen.sample_lengths()._blocks)
        assert len(blocks) == 52
        assert len(counting.sizes) == 52 and calls == ["astype"] * 52

    @pytest.mark.parametrize("num_tables", [1, 308, 4096])
    def test_a_fixed_pool_costs_calls_per_batch_not_per_table(self, num_tables):
        """At fixed pooling the pool is the fixed form: ``take`` checks the
        rows and cuts the fixed sub-batch once per size, ``chunk_counts``
        multiplies the factors by the chunk sizes.  Neither costs a call
        per table or per block."""
        cfg = dataclasses.replace(RANGED_POOL, num_tables=num_tables, min_pooling=8)
        pool = SyntheticDataGenerator(cfg).sample_lengths()
        assert pool._pooling is not None
        rows = np.sort(np.random.default_rng(0).choice(5000, 256, replace=False))
        sub, calls = numpy_calls(lambda: pool.take(rows))
        # The rows' checks, and the cut sharing the pool's factors.
        assert sorted(calls) == ["asarray", "asarray", "max", "min"]
        counts, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert sorted(calls) == ["arange", "outer"]
        assert counts.shape == (num_tables, 4) and (counts == 8 * 64).all()
        again, calls = numpy_calls(lambda: pool.take(rows[::-1]))
        assert again is sub and sorted(calls) == ["asarray", "max", "min"]
        _, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert calls == []


# -- narrow storage: the type comes from the declared range ---------------------


def narrow_config(max_pooling, min_pooling=0, skew=None, num_tables=40):
    return WorkloadConfig(
        num_tables=num_tables, min_pooling=min_pooling, max_pooling=max_pooling,
        table_skew_alpha=skew, batch_size=1001, seed=17,
    )


def block_dtypes(batch):
    return {block.dtype for block in batch._blocks}


def assert_reads_match(batch, arrays, names):
    """Every ``batch[name]`` is a read-only int64 row equal to ``arrays``;
    ``take`` keeps the stored type; counts equal an int64 ``reduceat``."""
    for name, arr in zip(names, arrays):
        row = batch[name]
        assert row.dtype == np.int64 and row.shape == (batch.batch_size,)
        assert not row.flags.writeable
        np.testing.assert_array_equal(row, arr)
    rows = np.array([5, 0, batch.batch_size - 1, 5, -2])
    sub = batch.take(rows)
    assert block_dtypes(sub) == block_dtypes(batch)
    for name, arr in zip(names, arrays):
        np.testing.assert_array_equal(sub[name], arr[rows])
    for spb in (1, 7, 64, 4096):
        starts = np.arange(0, batch.batch_size, spb)
        counts = batch.chunk_counts(spb)
        assert counts.dtype == np.int64
        for name, arr in zip(names, arrays):
            np.testing.assert_array_equal(
                counts[batch.layout.rows[name]], np.add.reduceat(arr, starts)
            )


class TestNarrowStorage:
    @pytest.mark.parametrize(
        "pooling, dtype",
        [
            ((0, 8), np.uint8), ((0, 32), np.uint8), ((0, 128), np.uint8),
            ((0, 255), np.uint8), ((0, 256), np.uint16), ((0, 65535), np.uint16),
            ((0, 2**31), np.uint32),
        ],
        ids=str,
    )
    def test_stored_type_is_the_narrowest_that_holds_max_pooling(self, pooling, dtype):
        cfg = narrow_config(pooling[1], pooling[0])
        batch = SyntheticDataGenerator(cfg).sample_lengths()
        assert block_dtypes(batch) == {np.dtype(dtype)}
        (want,), _ = per_table_reference(17, [pooling] * 40, [1001])
        assert_reads_match(batch, want, cfg.feature_names)

    def test_a_skewed_top_past_255_is_stored_as_uint16(self):
        cfg = narrow_config(128, skew=1.2)
        scales = cfg.table_skew_scales()
        top = int(np.rint(cfg.max_pooling * scales.max()))
        assert top > 255
        batch = SyntheticDataGenerator(cfg).sample_lengths()
        assert block_dtypes(batch) == {np.dtype(np.uint16)}
        assert max(int(block.max()) for block in batch._blocks) == top
        (want,), _ = per_table_reference(17, [(0, 128)] * 40, [1001], scales)
        assert_reads_match(batch, want, cfg.feature_names)

    def test_a_skewed_top_within_255_stays_uint8(self):
        cfg = narrow_config(20, skew=1.2)
        top = int(np.rint(20 * cfg.table_skew_scales().max()))
        assert top == 249
        batch = SyntheticDataGenerator(cfg).sample_lengths()
        assert block_dtypes(batch) == {np.dtype(np.uint8)}
        assert max(int(block.max()) for block in batch._blocks) == top

    @pytest.mark.parametrize(
        "top, dtype", [(1, np.uint8), (64, np.uint8), (300, np.uint16), (2**31, np.uint32)]
    )
    def test_heterogeneous_type_follows_the_largest_table_range(self, top, dtype):
        ranges = [(1, 1), (0, top), (3, 9)] * 5
        wl = HeterogeneousWorkload(
            tables=tuple(
                TableProfile(f"t{i}", 1000, max_pooling=hi, min_pooling=lo)
                for i, (lo, hi) in enumerate(ranges)
            ),
            batch_size=1001,
            seed=13,
        )
        draw = HeterogeneousDataGenerator(wl)._block_draw(1001)
        block = draw(np.random.default_rng(13), 0, len(ranges))
        assert block.dtype == np.dtype(dtype)
        (want,), _ = per_table_reference(13, ranges, [1001])
        np.testing.assert_array_equal(block, want)

    def test_heterogeneous_past_uint32_is_int64(self):
        wl = HeterogeneousWorkload(
            tables=(TableProfile("a", 10, max_pooling=8), TableProfile("b", 10, max_pooling=2**33)),
            batch_size=64,
        )
        draw = HeterogeneousDataGenerator(wl)._block_draw(64)
        assert draw(np.random.default_rng(0), 0, 2).dtype == np.dtype(np.int64)

    def test_a_copied_mapping_keeps_int64_blocks(self):
        batch = SyntheticDataGenerator(SMALL).sample_lengths()
        assert block_dtypes(batch) == {np.dtype(np.uint8)}
        copied = LengthsBatch(batch)
        assert block_dtypes(copied) == {np.dtype(np.int64)}
        assert copied["sparse_3"].base is not None  # a view of its block, not a copy

    def test_a_strong_preset_batch_holds_one_byte_per_factor(self):
        batch = SyntheticDataGenerator(STRONG_SCALING_TOTAL).sample_lengths()
        assert sum(block.nbytes for block in batch._blocks) == 96 * 16384


# -- a drawn batch is its counts only ----------------------------------------------


def exact_pmf(span, n):
    """The pmf of the sum of ``n`` draws uniform on ``0..span``, exactly."""
    p = [Fraction(1)]
    for _ in range(n):
        q = [Fraction(0)] * (len(p) + span)
        for s, v in enumerate(p):
            for k in range(span + 1):
                q[s + k] += v / (span + 1)
        p = q
    return p


def law_reference(rng, ranges, batch_size):
    """Counts drawn from ``rng`` table by table: one uniform per chunk of
    each table with more than one value, inverted with ``np.searchsorted``
    through the law of its chunk's size."""
    starts = np.arange(0, batch_size, 64)
    sizes = np.diff(np.append(starts, batch_size))
    rows = []
    for lo, hi in ranges:
        row = lo * sizes
        if hi > lo:
            u = rng.random(len(starts))
            for n in np.unique(sizes).tolist():
                at = sizes == n
                cdf = data_mod._chunk_law(hi - lo, n).cdf
                row[at] += np.searchsorted(cdf, u[at], side="right")
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def profiles(ranges):
    return tuple(
        TableProfile(f"t{i}", 1000, max_pooling=hi, min_pooling=lo)
        for i, (lo, hi) in enumerate(ranges)
    )


class TestChunkLaw:
    @pytest.mark.parametrize(
        "lo, hi, n", [(3, 3, 5), (0, 1, 1), (2, 9, 1), (0, 3, 7), (1, 2, 64), (4, 8, 64)]
    )
    def test_pmf_equals_exact_enumeration(self, lo, hi, n):
        exact = exact_pmf(hi - lo, n)
        pmf = data_mod._sum_pmf(hi - lo, n)
        assert len(pmf) == n * (hi - lo) + 1
        assert np.abs(pmf - np.array([float(x) for x in exact])).max() <= 1e-15
        law = data_mod._chunk_law(hi - lo, n)
        assert law.cdf[-1] == 1.0 and (np.diff(law.cdf) >= 0).all()
        offsets = np.arange(len(pmf))
        mean = float(sum(k * x for k, x in enumerate(exact)))
        assert pmf @ offsets == pytest.approx(mean, rel=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(lo=st.integers(0, 50), span=st.one_of(st.integers(1, 300), st.just(2048)))
    def test_counts_match_the_sum_moments(self, lo, span):
        """A 256 x 256 draw of chunk counts has the mean and variance of a
        sum of 64 uniform draws.  The seed is fixed: at this size the
        variance's standard error is about 0.55 %, so a free seed would
        miss 1 % now and then; the ranges vary."""
        cfg = WorkloadConfig(
            num_tables=256, batch_size=256 * 64, min_pooling=lo, max_pooling=lo + span, seed=0
        )
        counts = SyntheticDataGenerator(cfg).lengths_batch().chunk_counts(64)
        assert counts.shape == (256, 256)
        assert counts.mean() == pytest.approx(64 * (2 * lo + span) / 2, rel=0.01)
        assert counts.var() == pytest.approx(64 * ((span + 1) ** 2 - 1) / 12, rel=0.01)

    @pytest.mark.parametrize("span, n", [(1, 1), (8, 64), (32, 41), (128, 64), (2048, 64)])
    def test_guide_inverse_equals_searchsorted(self, span, n):
        law = data_mod._chunk_law(span, n)
        cdf = law.cdf
        drawn = np.random.default_rng(span).random(65536)
        steps = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
        edges = np.arange(law.buckets) / law.buckets
        u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], drawn, steps[steps < 1.0], edges))
        np.testing.assert_array_equal(law.invert(u), np.searchsorted(cdf, u, side="right"))
        grid = drawn.reshape(256, 256)
        np.testing.assert_array_equal(
            law.invert(grid), np.searchsorted(cdf, grid, side="right")
        )
        # Few draws land in a bucket that needs the search.
        assert law.wide[(drawn * law.buckets).astype(np.intp)].mean() < 0.02


class TestLawDraws:
    @settings(max_examples=30, deadline=None)
    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, 20), st.sampled_from([0, 1, 8, 128, 300])).map(
                lambda r: (r[0], r[0] + r[1])
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.sampled_from([1, 63, 64, 65, 1001, 8193, 65536 + 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_heterogeneous_counts_equal_a_per_table_law_reference(
        self, ranges, batch_size, seed
    ):
        """One law per distinct range, the last partial chunk's for its own
        size, a single-valued table draws nothing, and row blocks of
        uniforms draw what per-table draws would."""
        gen = HeterogeneousDataGenerator(HeterogeneousWorkload(tables=profiles(ranges), seed=seed))
        batch = gen.lengths_batch(batch_size=batch_size)
        rng = np.random.default_rng(seed)
        want = law_reference(rng, ranges, batch_size)
        np.testing.assert_array_equal(batch.chunk_counts(64), want)
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("batch_size", [16384, 1001, 5])
    def test_synthetic_counts_equal_a_per_table_law_reference(self, batch_size):
        # 64 tables x 256 chunks of uniforms are two 64 KiB row blocks.
        cfg = WorkloadConfig(num_tables=64, batch_size=batch_size, max_pooling=128, seed=9)
        gen = SyntheticDataGenerator(cfg)
        first, second = gen.lengths_batch(), gen.lengths_batch(batch_size=7)
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(
            first.chunk_counts(64), law_reference(rng, [(0, 128)] * 64, batch_size)
        )
        np.testing.assert_array_equal(
            second.chunk_counts(64), law_reference(rng, [(0, 128)] * 64, 7)
        )
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    def test_a_point_mass_draws_nothing(self):
        cfg = WorkloadConfig(
            num_tables=308, batch_size=5000, min_pooling=8, max_pooling=8, seed=1
        )
        gen = SyntheticDataGenerator(cfg)
        before = gen._rng.bit_generator.state
        counts = gen.lengths_batch().chunk_counts(64)
        assert gen._rng.bit_generator.state == before
        want = np.add.reduceat(np.full(5000, 8), np.arange(0, 5000, 64))
        assert counts.shape == (308, 79) and (counts == want).all()
        het = HeterogeneousDataGenerator(criteo_like(num_tables=6, multivalued_fraction=0.0))
        before = het._rng.bit_generator.state
        assert (het.lengths_batch(batch_size=100).chunk_counts(64) == [64, 36]).all()
        assert het._rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "pooling, skew", [((0, 2**31), None), ((0, 32), 1.2)], ids=["wide", "skewed"]
    )
    def test_other_ranges_reduce_sample_draws(self, pooling, skew):
        """A range past the law's cap, or a table skew, draws every sample
        (what ``sample_lengths`` draws) and reduces it, quickly."""
        cfg = WorkloadConfig(
            num_tables=40, min_pooling=pooling[0], max_pooling=pooling[1],
            table_skew_alpha=skew, batch_size=8193, seed=11,
        )
        gen, ref = SyntheticDataGenerator(cfg), SyntheticDataGenerator(cfg)
        start = time.perf_counter()
        batch = gen.lengths_batch()
        assert time.perf_counter() - start < 1.0
        assert batch._kept is None
        np.testing.assert_array_equal(batch.chunk_counts(64), ref.sample_lengths().chunk_counts(64))
        assert gen._rng.bit_generator.state == ref._rng.bit_generator.state

    @pytest.mark.parametrize("span, by_law", [(2048, True), (2049, False)])
    def test_the_law_covers_spans_up_to_2048(self, span, by_law):
        cfg = WorkloadConfig(
            num_tables=3, min_pooling=5, max_pooling=5 + span, batch_size=130, seed=4
        )
        gen = SyntheticDataGenerator(cfg)
        gen.lengths_batch()
        if by_law:
            rng = np.random.default_rng(4)
            law_reference(rng, [(5, 5 + span)] * 3, 130)
        else:
            _, rng = per_table_reference(4, [(5, 5 + span)] * 3, [130])
        assert gen._rng.bit_generator.state == rng.bit_generator.state


COUNTS_ONLY_READS = {
    "getitem": lambda batch: batch["sparse_0" if "sparse_0" in batch else "cat_0"],
    "values": lambda batch: list(batch.values()),
    "items": lambda batch: dict(batch.items()),
    "take": lambda batch: batch.take([0, 1]),
    "chunk_counts-16": lambda batch: batch.chunk_counts(16),
    "copy": LengthsBatch,
}


class TestCountsOnly:
    @pytest.mark.parametrize("read", sorted(COUNTS_ONLY_READS))
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SyntheticDataGenerator(SMALL),
            lambda: HeterogeneousDataGenerator(criteo_like(num_tables=4, batch_size=64)),
        ],
        ids=["synthetic", "heterogeneous"],
    )
    def test_each_per_sample_read_raises_the_typed_error(self, make, read):
        batch = make().lengths_batch()
        with pytest.raises(CountsOnlyError, match=r"sample_lengths\(\)"):
            COUNTS_ONLY_READS[read](batch)
        assert issubclass(CountsOnlyError, TypeError)

    def test_the_keys_and_the_counts_still_read(self):
        batch = SyntheticDataGenerator(SMALL).lengths_batch()
        assert list(batch) == SMALL.feature_names and len(batch) == 12
        assert "sparse_3" in batch and "sparse_12" not in batch
        with pytest.raises(KeyError):
            batch["sparse_12"]
        assert batch.batch_size == 200 and batch.chunk_counts(64).shape == (12, 4)
        assert batch.chunk_counts(np.int64(64)) is batch.chunk_counts(64)


def retained(fn):
    """``fn()`` and the bytes of traced memory it leaves allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, after - before


class TestDrawnMemory:
    def test_a_drawn_batch_holds_its_counts_until_a_sample_is_read(self):
        T, B = 1024, 16384
        gen = SyntheticDataGenerator(WorkloadConfig(num_tables=T, batch_size=B, max_pooling=32))
        gen.lengths_batch()  # builds the law, which the process keeps
        batch, kept = retained(gen.lengths_batch)
        counts_bytes = T * (B // 64) * 8
        assert counts_bytes == 2 * 1024 * 1024
        assert kept <= counts_bytes + 64 * 1024
        assert batch.chunk_counts(64).nbytes == counts_bytes
        # A sample read raises rather than drawing the samples after all.
        with pytest.raises(CountsOnlyError):
            batch["sparse_5"]
        assert batch._kept is None


class TestTakeArgument:
    """``take`` accepts only 1-D integer rows, checked before any block
    is read: a counts-only batch, which has no blocks, still reports the
    bad argument."""

    def batch(self):
        return SyntheticDataGenerator(SMALL).lengths_batch()

    def test_a_boolean_mask_is_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"rows must be integer indices, got dtype bool"):
            batch.take([True, False, True])

    def test_floats_are_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"rows must be integer indices, got dtype float64"):
            batch.take([1.9])

    def test_2d_rows_are_rejected(self):
        batch = self.batch()
        with pytest.raises(ValueError, match=r"rows must be 1-D, got shape \(1, 2\)"):
            batch.take([[0, 1]])

    def test_any_integer_type_indexes_as_intp(self):
        batch = SyntheticDataGenerator(SMALL).sample_lengths()
        want = batch.take([3, 0, 199])
        for dtype in (np.uint8, np.int32, np.uint64):
            rows = np.array([3, 0, 199], dtype=dtype)
            np.testing.assert_array_equal(batch.take(rows)["sparse_2"], want["sparse_2"])
        with pytest.raises(IndexError):
            batch.take(np.array([2**63], dtype=np.uint64))
        assert len(batch.take([])) == len(batch) and batch.take([]).batch_size == 0


GENERATORS = {
    "synthetic": lambda: SyntheticDataGenerator(SMALL),
}


class TestBatchesCount:
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_float_is_rejected(self, kind):
        with pytest.raises(TypeError, match=r"batches\.n must be an int, got float"):
            GENERATORS[kind]().batches(2.5)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_bool_is_rejected(self, kind):
        with pytest.raises(TypeError, match=r"batches\.n must be an int, got bool"):
            GENERATORS[kind]().batches(True)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_negative_is_rejected(self, kind):
        with pytest.raises(ValueError, match=r"batches\.n must be >= 0"):
            GENERATORS[kind]().batches(-1)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_counts_yield_that_many_pairs(self, kind):
        assert list(GENERATORS[kind]().batches(0)) == []
        assert len(list(GENERATORS[kind]().batches(np.int64(2)))) == 2


# -- argument checks ----------------------------------------------------------------


def generator_methods():
    syn = SyntheticDataGenerator(SMALL)
    het = HeterogeneousDataGenerator(criteo_like(num_tables=4, batch_size=64))
    methods = {
        f"SyntheticDataGenerator.{name}": getattr(syn, name)
        for name in ("sparse_batch", "lengths_batch", "sample_lengths", "dense_batch")
    }
    methods["HeterogeneousDataGenerator.lengths_batch"] = het.lengths_batch
    return methods


def batch_size_of(out):
    if isinstance(out, np.ndarray):
        return out.shape[0]
    return out.batch_size


METHODS = sorted(generator_methods())


class TestBatchSizeArgument:
    @pytest.mark.parametrize("method", METHODS)
    def test_none_draws_the_configured_size(self, method):
        fn = generator_methods()[method]
        want = 64 if method.startswith("Heterogeneous") else SMALL.batch_size
        assert batch_size_of(fn(None)) == batch_size_of(fn()) == want
        assert batch_size_of(fn(batch_size=3)) == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_is_rejected(self, method):
        with pytest.raises(ValueError, match=r"batch_size must be >= 1"):
            generator_methods()[method](batch_size=0)

    @pytest.mark.parametrize("method", METHODS)
    def test_negative_is_rejected(self, method):
        with pytest.raises(ValueError, match=r"batch_size must be >= 1"):
            generator_methods()[method](batch_size=-3)

    @pytest.mark.parametrize("method", METHODS)
    def test_float_is_rejected(self, method):
        with pytest.raises(TypeError, match=r"batch_size must be an int, got float"):
            generator_methods()[method](batch_size=2.5)

    @pytest.mark.parametrize("method", METHODS)
    def test_bool_is_rejected(self, method):
        with pytest.raises(TypeError, match=r"batch_size must be an int, got bool"):
            generator_methods()[method](batch_size=True)


class TestChunkCountsArgument:
    def batch(self):
        return SyntheticDataGenerator(SMALL).sample_lengths()

    def test_zero_is_rejected(self):
        batch = self.batch()
        with pytest.raises(ValueError, match=r"samples_per_block must be >= 1"):
            batch.chunk_counts(0)
        assert batch._counts == {}

    def test_negative_is_rejected_and_not_memoized(self):
        batch = self.batch()
        with pytest.raises(ValueError, match=r"samples_per_block must be >= 1"):
            batch.chunk_counts(-1)
        assert batch._counts == {}

    def test_bool_is_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"samples_per_block must be an int, got bool"):
            batch.chunk_counts(True)
        assert batch._counts == {}

    def test_float_is_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"samples_per_block must be an int, got float"):
            batch.chunk_counts(2.5)
        assert batch._counts == {}

    def test_a_numpy_int_shares_the_memo(self):
        batch = self.batch()
        assert batch.chunk_counts(np.int64(16)) is batch.chunk_counts(16)
