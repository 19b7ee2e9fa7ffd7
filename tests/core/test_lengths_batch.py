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

A drawn batch is its lookup counts per ``EMB_SAMPLES_PER_BLOCK`` samples
and the generator's state: its first per-sample read replays the draw once,
and the replay equals per-table reference draws.
"""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc
from collections.abc import Mapping

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
        shared = SyntheticDataGenerator(SHARING_CASES[case][0]).lengths_batch()
        got = run_both(case, lambda: shared)
        want = run_both(case, lambda: plain(shared))
        for (t_got, seq_got, wl_got), (t_want, seq_want, wl_want) in zip(got, want):
            assert t_got == t_want
            assert seq_got == seq_want
            assert_same_workloads(wl_got, wl_want)

    def test_second_build_reads_the_first_builds_counts(self):
        plan = TableWiseSharding(SMALL.table_configs(), 4)
        lengths = SyntheticDataGenerator(SMALL).lengths_batch()
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
        lengths = SyntheticDataGenerator(SMALL).lengths_batch()
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
        lengths = gen.lengths_batch()
        assert isinstance(lengths, LengthsBatch)
        assert all(not arr.flags.writeable for arr in lengths.values())

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
        lengths = SyntheticDataGenerator(SMALL).lengths_batch()
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
        arrays = SyntheticDataGenerator(SMALL).lengths_batch()
        as_lists = {name: [int(v) for v in arr] for name, arr in arrays.items()}
        want = DistributedEmbedding(SMALL, 2, backend="pgas").forward_timed(arrays)
        assert emb.forward_timed(as_lists).as_dict() == want.as_dict()


# -- the shape-keyed destination tile -------------------------------------------


def built(spb=16, n_devices=4):
    plan = TableWiseSharding(SMALL.table_configs(), n_devices)
    lengths = SyntheticDataGenerator(SMALL).lengths_batch()
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
        lengths = plain(SyntheticDataGenerator(SMALL).lengths_batch())
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
        good = SyntheticDataGenerator(SMALL).lengths_batch()
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
        got = [gen.lengths_batch(batch_size=B) for B in sizes]
        want, rng = per_table_reference(
            11, [pooling] * 40, sizes, cfg.table_skew_scales()
        )
        for batch, arrays in zip(got, want):
            assert len(batch._blocks) == -(-40 // data_mod._block_rows(batch.batch_size))
            for name, arr in zip(cfg.feature_names, arrays):
                np.testing.assert_array_equal(batch[name], arr)
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("sizes", DRAW_SIZES, ids=str)
    def test_heterogeneous_blocks_equal_per_table_draws(self, sizes):
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
            for name, arr in zip(wl.feature_names, arrays):
                np.testing.assert_array_equal(batch[name], arr)
        assert gen._rng.bit_generator.state == rng.bit_generator.state

    def test_one_generator_shares_one_layout_with_its_takes(self):
        gen = SyntheticDataGenerator(SMALL)
        first, second = gen.lengths_batch(), gen.lengths_batch(batch_size=7)
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
        for draw in (
            gen.lengths_batch,
            lambda: HeterogeneousDataGenerator(criteo_like(num_tables, batch_size=batch_size)).lengths_batch(),
        ):
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


def count_draws(batch):
    """Wrap an unreplayed drawn batch's block draw so that the list
    returned records one ``(lo, hi)`` entry per ``rng.integers`` call of
    its replay.  numpy's Generator methods are Cython functions, which
    raise no profiler events, so :func:`numpy_calls` cannot see them."""
    kind, state, block = batch._replay
    draws = []

    class Counting:
        def __init__(self, rng, lo, hi):
            self.rng, self.span = rng, (lo, hi)

        def integers(self, *args, **kwargs):
            draws.append(self.span)
            return self.rng.integers(*args, **kwargs)

    batch._replay = (kind, state, lambda rng, lo, hi: block(Counting(rng, lo, hi), lo, hi))
    return draws


class TestCallsPerBlock:
    def test_a_308_table_sub_batch_costs_calls_per_block(self):
        """The serve-prod-g8 shape: a 256-sample sub-batch of a 5000-sample
        pool.  ``take`` gathers each source block once per destination
        block it overlaps; ``chunk_counts`` checks and reduces each block
        with one call apiece."""
        cfg = WorkloadConfig(
            num_tables=308, batch_size=5000, min_pooling=8, max_pooling=8, seed=1
        )
        pool = SyntheticDataGenerator(cfg).lengths_batch()
        rows = np.sort(np.random.default_rng(0).choice(5000, 256, replace=False))
        pool.take(rows)  # the first per-sample read replays the draw
        sub, calls = numpy_calls(lambda: pool.take(rows))
        src, dst = len(pool._blocks), len(sub._blocks)
        assert (src, dst) == (52, 3)
        assert calls.count("take") <= src + dst - 1
        assert calls.count("empty") == dst
        assert len(calls) - calls.count("take") - dst <= 3  # asarray, min, max
        counts, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert sorted(calls) == sorted(["arange", "empty"] + ["min", "reduceat"] * dst)
        assert counts.shape == (308, 4) and (counts == 8 * 64).all()
        _, calls = numpy_calls(lambda: sub.chunk_counts(64))
        assert calls == []

    def test_a_replay_costs_one_draw_and_one_cast_per_block(self):
        cfg = WorkloadConfig(
            num_tables=308, batch_size=5000, min_pooling=8, max_pooling=8, seed=1
        )
        pool = SyntheticDataGenerator(cfg).lengths_batch()
        draws = count_draws(pool)
        blocks, calls = numpy_calls(lambda: pool._blocks)
        assert len(blocks) == 52
        assert len(draws) == 52 and calls == ["astype"] * 52


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
        batch = SyntheticDataGenerator(cfg).lengths_batch()
        assert block_dtypes(batch) == {np.dtype(dtype)}
        (want,), _ = per_table_reference(17, [pooling] * 40, [1001])
        assert_reads_match(batch, want, cfg.feature_names)

    def test_a_skewed_top_past_255_is_stored_as_uint16(self):
        cfg = narrow_config(128, skew=1.2)
        scales = cfg.table_skew_scales()
        top = int(np.rint(cfg.max_pooling * scales.max()))
        assert top > 255
        batch = SyntheticDataGenerator(cfg).lengths_batch()
        assert block_dtypes(batch) == {np.dtype(np.uint16)}
        assert max(int(block.max()) for block in batch._blocks) == top
        (want,), _ = per_table_reference(17, [(0, 128)] * 40, [1001], scales)
        assert_reads_match(batch, want, cfg.feature_names)

    def test_a_skewed_top_within_255_stays_uint8(self):
        cfg = narrow_config(20, skew=1.2)
        top = int(np.rint(20 * cfg.table_skew_scales().max()))
        assert top == 249
        batch = SyntheticDataGenerator(cfg).lengths_batch()
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
        batch = HeterogeneousDataGenerator(wl).lengths_batch()
        assert block_dtypes(batch) == {np.dtype(dtype)}
        (want,), _ = per_table_reference(13, ranges, [1001])
        assert_reads_match(batch, want, wl.feature_names)

    def test_heterogeneous_past_uint32_is_int64(self):
        wl = HeterogeneousWorkload(
            tables=(TableProfile("a", 10, max_pooling=8), TableProfile("b", 10, max_pooling=2**33)),
            batch_size=64,
        )
        assert block_dtypes(HeterogeneousDataGenerator(wl).lengths_batch()) == {
            np.dtype(np.int64)
        }

    def test_a_copied_mapping_keeps_int64_blocks(self):
        batch = SyntheticDataGenerator(SMALL).lengths_batch()
        assert block_dtypes(batch) == {np.dtype(np.uint8)}
        copied = LengthsBatch(batch)
        assert block_dtypes(copied) == {np.dtype(np.int64)}
        assert copied["sparse_3"].base is not None  # a view of its block, not a copy

    def test_a_strong_preset_batch_holds_one_byte_per_factor(self):
        batch = SyntheticDataGenerator(STRONG_SCALING_TOTAL).lengths_batch()
        assert sum(block.nbytes for block in batch._blocks) == 96 * 16384


# -- a drawn batch is its counts; per-sample reads replay the draw once ----------


#: odd and even B, below, at and above one 64-sample chunk; from 1001 up,
#: 40 tables span several blocks
REPLAY_BATCH_SIZES = [1, 2, 3, 63, 64, 65, 1001, 4096, 8193]


@st.composite
def replay_cases(draw):
    """A generator, its seed, per-table ranges and skew, and two batch sizes."""
    T = draw(st.integers(1, 40))
    sizes = [draw(st.sampled_from(REPLAY_BATCH_SIZES)) for _ in range(2)]
    seed = draw(st.integers(0, 2**32 - 1))
    widths = st.sampled_from([0, 1, 8, 128, 300])  # 0: min_pooling == max_pooling
    if draw(st.booleans()):
        lo, width = draw(st.integers(0, 20)), draw(widths)
        skew = draw(st.sampled_from([None, 0.8, 1.2]))
        cfg = WorkloadConfig(
            num_tables=T, min_pooling=lo, max_pooling=lo + width,
            table_skew_alpha=skew, seed=seed,
        )
        ranges = [(lo, lo + width)] * T
        return SyntheticDataGenerator(cfg), seed, ranges, cfg.table_skew_scales(), sizes
    ranges = []
    for _ in range(T):
        lo = draw(st.integers(0, 20))
        ranges.append((lo, lo + draw(widths)))
    wl = HeterogeneousWorkload(
        tables=tuple(
            TableProfile(f"t{i}", 1000, max_pooling=hi, min_pooling=lo)
            for i, (lo, hi) in enumerate(ranges)
        ),
        seed=seed,
    )
    return HeterogeneousDataGenerator(wl), seed, ranges, None, sizes


class TestReplay:
    @settings(max_examples=40, deadline=None)
    @given(replay_cases())
    def test_a_replay_equals_per_table_draws(self, case):
        gen, seed, ranges, scales, sizes = case
        (want, want_next), rng = per_table_reference(seed, ranges, sizes, scales)
        batch = gen.lengths_batch(batch_size=sizes[0])
        names = list(batch)
        assert batch._kept is None
        np.testing.assert_array_equal(
            batch.chunk_counts(64), LengthsBatch(dict(zip(names, want))).chunk_counts(64)
        )
        assert batch._kept is None
        # The next batch is drawn before this one replays: the replay reads
        # its own snapshot, not the generator.
        following = gen.lengths_batch(batch_size=sizes[1])
        draws = count_draws(batch)
        for name, arr in zip(names, want):
            np.testing.assert_array_equal(batch[name], arr)
        for name, arr in zip(names, want_next):
            np.testing.assert_array_equal(following[name], arr)
        assert gen._rng.bit_generator.state == rng.bit_generator.state
        blocks = batch._blocks
        stacked = np.concatenate([block.astype(np.int64) for block in blocks])
        for spb in (1, 7, 128):
            starts = np.arange(0, sizes[0], spb)
            np.testing.assert_array_equal(
                batch.chunk_counts(spb), np.add.reduceat(stacked, starts, axis=1)
            )
        batch.take([0, sizes[0] - 1])
        LengthsBatch(batch)
        # One replay: one draw per block (per table for the heterogeneous
        # generator), and the blocks it made are the ones kept.
        per_block = isinstance(gen, SyntheticDataGenerator)
        assert len(draws) == (len(blocks) if per_block else len(names))
        assert batch._blocks is blocks


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
        batch, kept = retained(gen.lengths_batch)
        counts_bytes = T * (B // 64) * 8
        assert counts_bytes == 2 * 1024 * 1024
        assert kept <= counts_bytes + 64 * 1024
        assert batch.chunk_counts(64).nbytes == counts_bytes
        _, grown = retained(lambda: batch["sparse_5"])
        assert sum(block.nbytes for block in batch._blocks) == T * B
        assert grown >= T * B


class TestTakeArgument:
    """``take`` accepts only 1-D integer rows, checked before any block
    is read, so a bad argument neither replays nor mis-indexes."""

    def batch(self):
        return SyntheticDataGenerator(SMALL).lengths_batch()

    def test_a_boolean_mask_is_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"rows must be integer indices, got dtype bool"):
            batch.take([True, False, True])
        assert batch._kept is None

    def test_floats_are_rejected(self):
        batch = self.batch()
        with pytest.raises(TypeError, match=r"rows must be integer indices, got dtype float64"):
            batch.take([1.9])
        assert batch._kept is None

    def test_2d_rows_are_rejected(self):
        batch = self.batch()
        with pytest.raises(ValueError, match=r"rows must be 1-D, got shape \(1, 2\)"):
            batch.take([[0, 1]])
        assert batch._kept is None

    def test_any_integer_type_indexes_as_intp(self):
        batch = self.batch()
        want = batch.take([3, 0, 199])
        for dtype in (np.uint8, np.int32, np.uint64):
            rows = np.array([3, 0, 199], dtype=dtype)
            np.testing.assert_array_equal(batch.take(rows)["sparse_2"], want["sparse_2"])
        with pytest.raises(IndexError):
            batch.take(np.array([2**63], dtype=np.uint64))
        assert len(batch.take([])) == len(batch) and batch.take([]).batch_size == 0


GENERATORS = {
    "synthetic": lambda: SyntheticDataGenerator(SMALL),
    "heterogeneous": lambda: HeterogeneousDataGenerator(criteo_like(num_tables=4, batch_size=64)),
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
    return {
        f"{type(gen).__name__}.{name}": getattr(gen, name)
        for gen in (syn, het)
        for name in ("sparse_batch", "lengths_batch", "dense_batch")
    }


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
        return SyntheticDataGenerator(SMALL).lengths_batch()

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
