"""One batch's lookup counts and destination tiles, derived once and shared.

A :class:`LengthsBatch` memoizes each table's per-chunk lookup counts, so a
second backend running the same batch reads the first build's counts; the
destination tile and its reductions are cached per batch shape.  Both must
be invisible: every simulated number, every event count and every
:class:`DeviceWorkload` field equals what fresh plain dicts give.  Bad
lengths fail with :class:`InvalidLengthsError` naming the feature.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

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
from repro.dlrm.data import (
    InvalidLengthsError,
    LengthsBatch,
    SyntheticDataGenerator,
    WorkloadConfig,
)
from repro.dlrm.heterogeneous import HeterogeneousDataGenerator, criteo_like
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

    @pytest.mark.parametrize("batch_size", [3, 200, 8192, 9001])
    def test_grouped_and_single_reductions_match_per_table(self, batch_size):
        # Small batches reduce many features per call, large ones one each.
        rng = np.random.default_rng(batch_size)
        dtypes = [np.int64, np.int32, np.uint8, np.int16, np.uint64, np.int64, np.int8]
        lengths = LengthsBatch(
            {f"f{i}": rng.integers(0, 100, size=batch_size).astype(d) for i, d in enumerate(dtypes)}
        )
        for spb in (1, 7, 64, 500, 4096):
            starts = np.arange(0, batch_size, spb)
            for name, arr in lengths.items():
                got = lengths.chunk_counts(spb)[name]
                assert got.dtype == np.int64
                np.testing.assert_array_equal(
                    got, np.add.reduceat(arr.astype(np.int64), starts)
                )


class TestFrozen:
    def test_generated_lengths_and_counts_raise_on_write(self):
        lengths = SyntheticDataGenerator(SMALL).lengths_batch()
        assert isinstance(lengths, Mapping) and not isinstance(lengths, dict)
        name = next(iter(lengths))
        with pytest.raises(ValueError):
            lengths[name][0] = 1
        with pytest.raises(ValueError):
            lengths.chunk_counts(16)[name][0] = 1
        with pytest.raises(TypeError):
            lengths[name] = np.zeros(SMALL.batch_size, dtype=np.int64)
        with pytest.raises(TypeError):
            lengths.chunk_counts(16)[name] = np.zeros(13, dtype=np.int64)

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
        assert pool.take([0, 1]).chunk_counts(64)["f"].tolist() == [3]
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

    def test_negative_lengths_fail_on_a_generated_batch_too(self):
        good = SyntheticDataGenerator(SMALL).lengths_batch()
        lengths = LengthsBatch({**good, "sparse_0": bad("negative", np.array(good["sparse_0"]))})
        with pytest.raises(InvalidLengthsError, match="sparse_0"):
            lengths.chunk_counts(16)
