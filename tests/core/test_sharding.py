"""Tests for sharding plans and sample ownership."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sharding import (
    RowWiseSharding,
    TableWiseSharding,
    minibatch_bounds,
    sample_owner,
)
from repro.dlrm.embedding import EmbeddingTableConfig


def configs(n=6, rows=100, dim=8):
    return [EmbeddingTableConfig(f"t{i}", rows, dim) for i in range(n)]


class TestMinibatchBounds:
    def test_even_split(self):
        assert minibatch_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_to_leading(self):
        assert minibatch_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_devices_than_samples(self):
        bounds = minibatch_bounds(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            minibatch_bounds(0, 2)
        with pytest.raises(ValueError):
            minibatch_bounds(4, 0)

    @given(
        batch=st.integers(min_value=1, max_value=1000),
        parts=st.integers(min_value=1, max_value=16),
    )
    def test_partition_properties(self, batch, parts):
        bounds = minibatch_bounds(batch, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        sizes = [hi - lo for lo, hi in bounds]
        assert all(s >= 0 for s in sizes)
        assert max(sizes) - min(sizes) <= 1


class TestSampleOwner:
    def test_matches_bounds(self):
        owners = sample_owner(10, 3)
        for dev, (lo, hi) in enumerate(minibatch_bounds(10, 3)):
            assert (owners[lo:hi] == dev).all()

    def test_single_device(self):
        assert (sample_owner(5, 1) == 0).all()

    @given(
        batch=st.integers(min_value=1, max_value=500),
        parts=st.integers(min_value=1, max_value=8),
    )
    def test_owner_in_range_and_monotone(self, batch, parts):
        owners = sample_owner(batch, parts)
        assert owners.shape == (batch,)
        assert (owners >= 0).all() and (owners < parts).all()
        assert (np.diff(owners) >= 0).all()  # contiguous mini-batches


class TestTableWise:
    def test_contiguous_blocks(self):
        plan = TableWiseSharding(configs(6), 3)
        assert [t.name for t in plan.tables_on(0)] == ["t0", "t1"]
        assert [t.name for t in plan.tables_on(2)] == ["t4", "t5"]

    def test_uneven_tables(self):
        plan = TableWiseSharding(configs(7), 3)
        sizes = [len(plan.tables_on(d)) for d in range(3)]
        assert sorted(sizes) == [2, 2, 3]
        plan.validate()

    def test_feature_indices(self):
        plan = TableWiseSharding(configs(6), 3)
        assert list(plan.feature_indices_on(1)) == [2, 3]

    def test_memory_bytes(self):
        plan = TableWiseSharding(configs(4, rows=10, dim=4), 2)
        assert plan.memory_bytes(0) == 2 * 10 * 4 * 4

    def test_validate_passes(self):
        TableWiseSharding(configs(9), 4).validate()
        striped = {f"t{i}": i % 4 for i in range(9)}
        TableWiseSharding.from_assignment(configs(9), 4, striped).validate()

    @pytest.mark.parametrize("owner", [1.5, 1.0, True, False, np.float64(1.0), "1", None])
    def test_an_owner_that_is_not_a_device_id_names_its_table(self, owner):
        with pytest.raises(TypeError, match=r"owner of table 't1' must be a device id"):
            TableWiseSharding.from_assignment(configs(2), 2, {"t0": 0, "t1": owner})

    def test_the_first_bad_owner_raises(self):
        with pytest.raises(TypeError, match=r"table 't0'.*got 1\.5"):
            TableWiseSharding.from_assignment(configs(2), 2, {"t0": 1.5, "t1": True})

    def test_numpy_integer_owners_are_device_ids(self):
        owners = {"t0": np.int64(1), "t1": np.int32(0)}
        plan = TableWiseSharding.from_assignment(configs(2), 2, owners)
        assert [plan.owner_of("t0"), plan.owner_of("t1")] == [1, 0]
        assert all(type(plan.owner_of(name)) is int for name in owners)

    def test_duplicate_names_rejected(self):
        cfgs = [EmbeddingTableConfig("x", 10, 4)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            TableWiseSharding(cfgs, 2)

    def test_tables_on_returns_a_fresh_list(self):
        plan = TableWiseSharding(configs(4), 2)
        plan.tables_on(0).clear()  # callers may mutate what they get
        assert [t.name for t in plan.tables_on(0)] == ["t0", "t1"]

    def test_more_devices_than_tables(self):
        plan = TableWiseSharding(configs(2), 4)
        plan.validate()
        assert plan.tables_on(3) == []

    @given(
        n_tables=st.integers(min_value=1, max_value=30),
        n_devices=st.integers(min_value=1, max_value=8),
        striped=st.booleans(),
    )
    def test_exact_partition_property(self, n_tables, n_devices, striped):
        if striped:
            owners = {f"t{i}": i % n_devices for i in range(n_tables)}
            plan = TableWiseSharding.from_assignment(configs(n_tables), n_devices, owners)
        else:
            plan = TableWiseSharding(configs(n_tables), n_devices)
        plan.validate()
        all_tables = [t.name for d in range(n_devices) for t in plan.tables_on(d)]
        assert sorted(all_tables) == sorted(f"t{i}" for i in range(n_tables))
        for d in range(n_devices):
            for t in plan.tables_on(d):
                assert plan.owner_of(t.name) == d


class TestRowWise:
    def test_every_device_holds_every_table(self):
        plan = RowWiseSharding(configs(3, rows=100), 4)
        assert len(plan.tables_on(2)) == 3
        plan.validate()

    def test_shards_tile_rows(self):
        plan = RowWiseSharding(configs(1, rows=10), 3)
        shards = plan.shards_of("t0")
        assert [(s.row_lo, s.row_hi) for s in shards] == [(0, 4), (4, 7), (7, 10)]
        assert shards[0].num_rows == 4

    def test_memory_split_evenly(self):
        plan = RowWiseSharding(configs(2, rows=100, dim=8), 4)
        for name in ("t0", "t1"):
            rows = [s.num_rows for s in plan.shards_of(name)]
            assert sum(rows) == 100 and max(rows) - min(rows) <= 1

    @given(
        rows=st.integers(min_value=1, max_value=1000),
        n_devices=st.integers(min_value=1, max_value=8),
    )
    def test_shards_tile_rows_for_any_size(self, rows, n_devices):
        plan = RowWiseSharding(configs(1, rows=rows), n_devices)
        plan.validate()
        shards = plan.shards_of("t0")
        assert [s.row_lo for s in shards[1:]] == [s.row_hi for s in shards[:-1]]
        assert (shards[0].row_lo, shards[-1].row_hi) == (0, rows)
        assert [s.device_id for s in shards] == list(range(n_devices))
