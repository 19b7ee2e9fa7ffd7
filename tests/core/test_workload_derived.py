"""Derived arrays of :class:`DeviceWorkload`: cached totals and wave sums.

The per-destination totals are computed once per (frozen) instance, and
the per-wave reductions run without a Python loop per wave.  These tests pin
both against the straightforward definitions: a fresh
``block_dst_bytes.sum(0)`` on every construction path, and the per-wave
Python loops the vectorized code replaced.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import CompressionSpec, DistributedEmbedding, FeatureSpec
from repro.core.sharding import TableWiseSharding
from repro.core.workload import (
    DeviceWorkload,
    build_device_workloads,
    rehome_workloads,
)
from repro.dlrm.data import SyntheticDataGenerator, WorkloadConfig
from repro.faults.resilient import ResilienceSpec
from repro.simgpu.device import V100_SPEC
from repro.simgpu.kernel import KernelSpec, _wave_fractions

CFG = WorkloadConfig(
    num_tables=12, rows_per_table=100, dim=16, batch_size=200, max_pooling=9, seed=5
)
G = 4


def built(spb=16):
    plan = TableWiseSharding(CFG.table_configs(), G)
    lengths = SyntheticDataGenerator(CFG).sample_lengths()
    return plan, lengths, build_device_workloads(plan, lengths, samples_per_block=spb)


def workload(dst, weights=None, device_id=0):
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, G)
    n = dst.shape[0]
    return DeviceWorkload(
        device_id=device_id,
        n_devices=G,
        batch_size=64,
        row_bytes=4,
        num_local_tables=1,
        nnz=n,
        num_blocks=n,
        samples_per_block=16,
        block_weights=np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64),
        block_dst_bytes=dst,
    )


def assert_totals_fresh(workloads):
    for wl in workloads:
        np.testing.assert_array_equal(wl.output_bytes_by_dst, wl.block_dst_bytes.sum(axis=0))


# -- reference loops (the code the vectorized versions replaced) ---------------


def ref_wave_dst_bytes(wl, concurrent_blocks):
    n_waves = math.ceil(wl.num_blocks / concurrent_blocks) if wl.num_blocks else 0
    out = np.zeros((n_waves, wl.n_devices), dtype=np.float64)
    for w in range(n_waves):
        lo = w * concurrent_blocks
        hi = min(lo + concurrent_blocks, wl.num_blocks)
        out[w] = wl.block_dst_bytes[lo:hi].sum(axis=0)
    return out


def ref_wave_fractions(kspec, conc):
    if kspec.num_blocks == 0:
        return []
    n_waves = math.ceil(kspec.num_blocks / conc)
    bounds = [(w * conc, min(w * conc + conc, kspec.num_blocks)) for w in range(n_waves)]
    if kspec.block_weights is None:
        return [(hi - lo) / kspec.num_blocks for lo, hi in bounds]
    weights = [float(w) for w in kspec.block_weights]
    total = sum(weights)
    if total <= 0:
        return [1.0 / n_waves] * n_waves
    return [sum(weights[lo:hi]) / total for lo, hi in bounds]


def spec_with(concurrent_blocks):
    return dataclasses.replace(V100_SPEC, sm_count=concurrent_blocks, max_blocks_per_sm=1)


# -- cached per-destination totals ---------------------------------------------


class TestOutputBytesByDst:
    def test_build_device_workloads(self):
        _, _, wls = built()
        assert_totals_fresh(wls)

    def test_rehome_workloads(self):
        plan, _, wls = built()
        # Shift every table one device over; drop the first table entirely.
        owners = {t.name: (plan.owner_of(t.name) + 1) % G for t in plan.table_configs}
        owners[plan.table_configs[0].name] = None
        moved = rehome_workloads(plan, wls, owners)
        assert_totals_fresh(moved)
        assert moved[1].output_bytes_by_dst.sum() > 0

    def test_dataclasses_replace(self):
        _, _, wls = built()
        wl = wls[1]
        halved = dataclasses.replace(wl, block_dst_bytes=wl.block_dst_bytes / 2)
        assert_totals_fresh([halved])
        np.testing.assert_array_equal(halved.output_bytes_by_dst * 2, wl.output_bytes_by_dst)
        # replace drops the shape's cached sums: the new bytes are reduced again.
        for conc in (5, 13, 640):
            np.testing.assert_array_equal(
                halved.wave_dst_bytes(conc), ref_wave_dst_bytes(halved, conc)
            )

    @pytest.mark.parametrize("base", ["pgas", "baseline"])
    def test_compress_scaled(self, base):
        emb = DistributedEmbedding(
            CFG, G, backend=f"{base}+compress",
            features=FeatureSpec(compression=CompressionSpec(codec="int8")),
        )
        wls = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        scaled = emb.backend_adapter()._scaled_workloads(wls)
        assert_totals_fresh(scaled)
        assert sum(s.remote_output_bytes for s in scaled) < sum(
            w.remote_output_bytes for w in wls
        )

    def test_resilience_stripped(self):
        emb = DistributedEmbedding(
            CFG, G, backend="pgas+resilient",
            features=FeatureSpec(resilience=ResilienceSpec()),
        )
        wls = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        stripped = emb.backend_adapter()._strip_remote(wls)
        assert_totals_fresh(stripped)
        assert all(s.remote_output_bytes == 0 for s in stripped)

    def test_empty_device(self):
        wl = workload(np.zeros((0, G)), weights=[])
        np.testing.assert_array_equal(wl.output_bytes_by_dst, np.zeros(G))

    def test_cached_vector_is_read_only(self):
        _, _, wls = built()
        by_dst = wls[0].output_bytes_by_dst
        assert by_dst is wls[0].output_bytes_by_dst
        with pytest.raises(ValueError):
            by_dst[0] = 1.0

    def test_workload_is_frozen(self):
        _, _, wls = built()
        with pytest.raises(dataclasses.FrozenInstanceError):
            wls[0].block_dst_bytes = np.zeros((0, G))

    def test_output_bytes_by_dst_stays_a_property(self):
        assert isinstance(DeviceWorkload.__dict__["output_bytes_by_dst"], property)


# -- one read-only destination tile per (tables, row bytes) --------------------


class TestSharedTile:
    def test_same_shape_devices_share_one_read_only_tile(self):
        _, _, wls = built()
        assert {wl.num_local_tables for wl in wls} == {3}
        tile = wls[0].block_dst_bytes
        assert all(wl.block_dst_bytes is tile for wl in wls)
        assert not tile.flags.writeable
        with pytest.raises(ValueError):
            tile[0, 0] = 1.0

    def test_different_table_counts_get_their_own_tile(self):
        cfg = dataclasses.replace(CFG, num_tables=13)
        plan = TableWiseSharding(cfg.table_configs(), G)
        wls = build_device_workloads(plan, SyntheticDataGenerator(cfg).lengths_batch())
        by_shape = {}
        for wl in wls:
            by_shape.setdefault(wl.num_local_tables, set()).add(id(wl.block_dst_bytes))
        assert len(by_shape) == 2
        assert all(len(ids) == 1 for ids in by_shape.values())
        assert_totals_fresh(wls)

    def tile_snapshot(self, wls):
        tile = wls[0].block_dst_bytes
        return tile, tile.copy(), [wl.output_bytes_by_dst.copy() for wl in wls]

    def assert_tile_untouched(self, wls, snapshot):
        tile, before, totals = snapshot
        np.testing.assert_array_equal(tile, before)
        assert_totals_fresh(wls)
        for wl, total in zip(wls, totals):
            np.testing.assert_array_equal(wl.output_bytes_by_dst, total)

    def test_rehome_leaves_tile_and_totals_intact(self):
        plan, _, wls = built()
        snap = self.tile_snapshot(wls)
        owners = {t.name: (plan.owner_of(t.name) + 1) % G for t in plan.table_configs}
        moved = rehome_workloads(plan, wls, owners)
        assert_totals_fresh(moved)
        assert all(m.block_dst_bytes.flags.writeable for m in moved)
        self.assert_tile_untouched(wls, snap)

    def test_compress_leaves_tile_and_totals_intact(self):
        emb = DistributedEmbedding(
            CFG, G, backend="pgas+compress",
            features=FeatureSpec(compression=CompressionSpec(codec="int8")),
        )
        wls = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        snap = self.tile_snapshot(wls)
        scaled = emb.backend_adapter()._scaled_workloads(wls)
        assert_totals_fresh(scaled)
        assert all(s.block_dst_bytes is not snap[0] for s in scaled)
        self.assert_tile_untouched(wls, snap)

    def test_resilience_leaves_tile_and_totals_intact(self):
        emb = DistributedEmbedding(
            CFG, G, backend="pgas+resilient",
            features=FeatureSpec(resilience=ResilienceSpec()),
        )
        wls = emb.build_workloads(SyntheticDataGenerator(CFG).lengths_batch())
        snap = self.tile_snapshot(wls)
        # Strip only the first device: the others keep sharing the tile.
        stripped = emb.backend_adapter()._strip_remote(wls[:1]) + wls[1:]
        assert stripped[0].remote_output_bytes == 0
        assert all(s.block_dst_bytes is snap[0] for s in stripped[1:])
        assert_totals_fresh(stripped)
        self.assert_tile_untouched(wls, snap)


# -- build_device_workloads against the per-table formulas ---------------------


class TestBuild:
    @pytest.mark.parametrize("spb", [1, 7, 16, 64, 500])
    def test_matches_per_table_reference(self, spb):
        plan, lengths, wls = built(spb)
        n_chunks = math.ceil(CFG.batch_size / spb)
        starts = np.arange(n_chunks) * spb
        for wl in wls:
            tables = plan.tables_on(wl.device_id)
            weights = np.concatenate(
                [np.add.reduceat(np.asarray(lengths[t.name], dtype=np.int64), starts)
                 for t in tables]
            ).astype(np.float64)
            np.testing.assert_array_equal(wl.block_weights, weights)
            assert wl.block_weights.dtype == np.float64
            assert wl.nnz == sum(int(np.sum(lengths[t.name])) for t in tables)
            # Per-table segments repeat the same chunk -> owner byte counts.
            segs = wl.block_dst_bytes.reshape(len(tables), n_chunks, G)
            np.testing.assert_array_equal(segs, np.broadcast_to(segs[0], segs.shape))
            assert wl.block_dst_bytes.dtype == np.float64


# -- vectorized per-wave reductions vs the reference loops ---------------------

GEOMETRIES = [
    pytest.param(10, 4, id="ragged-last-wave"),
    pytest.param(3, 8, id="fewer-blocks-than-concurrent"),
    pytest.param(1, 1, id="single-block"),
    pytest.param(64, 16, id="even-waves"),
    pytest.param(301, 40, id="wide-waves"),
]


class TestWaveDstBytes:
    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_integer_bytes_exact(self, n_blocks, conc):
        rng = np.random.default_rng(n_blocks)
        wl = workload(rng.integers(0, 5, size=(n_blocks, G)) * 256.0)
        got = wl.wave_dst_bytes(conc)
        np.testing.assert_array_equal(got, ref_wave_dst_bytes(wl, conc))
        assert got.shape == (math.ceil(n_blocks / conc), G)

    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_non_integer_bytes_exact(self, n_blocks, conc):
        # Same row-by-row summation order as the loop, so exact for any values.
        rng = np.random.default_rng(n_blocks)
        wl = workload(rng.uniform(0.0, 1e3, size=(n_blocks, G)))
        np.testing.assert_array_equal(wl.wave_dst_bytes(conc), ref_wave_dst_bytes(wl, conc))

    def test_no_blocks(self):
        wl = workload(np.zeros((0, G)), weights=[])
        got = wl.wave_dst_bytes(8)
        assert got.shape == (0, G) and got.dtype == np.float64

    def test_all_zero_bytes(self):
        wl = workload(np.zeros((9, G)))
        np.testing.assert_array_equal(wl.wave_dst_bytes(4), np.zeros((3, G)))

    def test_rejects_non_positive_concurrency(self):
        with pytest.raises(ValueError):
            workload(np.ones((2, G))).wave_dst_bytes(0)

    def test_built_workloads_exact(self):
        # 39 blocks: C=5 leaves a ragged last wave, 13 divides evenly, 640
        # exceeds the grid.  Built workloads read their shape's cached sums.
        _, _, wls = built()
        for wl in wls:
            assert wl.num_blocks == 39
            for conc in (1, 5, 13, 640):
                np.testing.assert_array_equal(
                    wl.wave_dst_bytes(conc), ref_wave_dst_bytes(wl, conc)
                )


class TestWaveFractions:
    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_uniform_blocks_exact(self, n_blocks, conc):
        kspec = KernelSpec(name="k", num_blocks=n_blocks)
        got = _wave_fractions(kspec, spec_with(conc))
        assert got == ref_wave_fractions(kspec, conc)
        assert all(type(f) is float for f in got)

    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_integer_weights_exact(self, n_blocks, conc):
        weights = np.random.default_rng(n_blocks).integers(0, 33, size=n_blocks)
        weights[0] += 1  # keep the total positive
        kspec = KernelSpec(name="k", num_blocks=n_blocks, block_weights=weights.astype(float))
        got = _wave_fractions(kspec, spec_with(conc))
        assert got == ref_wave_fractions(kspec, conc)
        assert all(type(f) is float for f in got)

    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_non_integer_weights(self, n_blocks, conc):
        # reduceat sums pairwise: exact for the integer lookup counts every
        # workload carries, within rounding for arbitrary weights.
        weights = np.random.default_rng(n_blocks).uniform(0.1, 3.0, size=n_blocks)
        kspec = KernelSpec(name="k", num_blocks=n_blocks, block_weights=weights)
        got = _wave_fractions(kspec, spec_with(conc))
        np.testing.assert_allclose(got, ref_wave_fractions(kspec, conc), rtol=1e-13)
        assert math.isclose(sum(got), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("n_blocks,conc", GEOMETRIES)
    def test_all_zero_weights_split_evenly(self, n_blocks, conc):
        kspec = KernelSpec(name="k", num_blocks=n_blocks, block_weights=[0.0] * n_blocks)
        got = _wave_fractions(kspec, spec_with(conc))
        assert got == ref_wave_fractions(kspec, conc)

    def test_no_blocks(self):
        for weights in (None, []):
            kspec = KernelSpec(name="k", num_blocks=0, block_weights=weights)
            assert _wave_fractions(kspec, spec_with(4)) == []

    def test_plain_sequence_weights(self):
        kspec = KernelSpec(name="k", num_blocks=5, block_weights=[1, 2, 3, 4, 5])
        assert _wave_fractions(kspec, spec_with(2)) == ref_wave_fractions(kspec, 2)
