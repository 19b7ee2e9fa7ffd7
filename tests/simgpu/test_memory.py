"""Unit + property tests for the device memory allocator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simgpu.memory import Buffer, MemoryPool, OutOfDeviceMemory


class TestAlloc:
    def test_basic_accounting(self):
        pool = MemoryPool(capacity=1000, device_id=3)
        buf = pool.alloc((10, 10), np.float32)  # 400 B
        assert buf.nbytes == 400
        assert pool.used == 400
        assert pool.free_bytes == 600
        assert buf.device_id == 3

    def test_oom_raises_with_details(self):
        pool = MemoryPool(capacity=100)
        with pytest.raises(OutOfDeviceMemory) as ei:
            pool.alloc((1000,), np.float32)
        assert ei.value.requested == 4000
        assert ei.value.free == 100

    def test_exact_fit_allowed(self):
        pool = MemoryPool(capacity=400)
        pool.alloc((100,), np.float32)
        assert pool.free_bytes == 0

    def test_materialized_buffer_has_array(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc((5, 4), np.float32, materialize=True, fill=2.5)
        arr = buf.array()
        assert arr.shape == (5, 4)
        assert np.all(arr == 2.5)

    def test_virtual_buffer_array_raises(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc((5,), np.float32)
        with pytest.raises(ValueError, match="not materialized"):
            buf.array()

    def test_negative_shape_rejected(self):
        pool = MemoryPool(capacity=1000)
        with pytest.raises(ValueError):
            pool.alloc((-1, 4))

    def test_int_shape_accepted(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc(10, np.int64)
        assert buf.shape == (10,) and buf.nbytes == 80

    def test_peak_tracking(self):
        pool = MemoryPool(capacity=1000)
        a = pool.alloc((100,), np.uint8)
        b = pool.alloc((200,), np.uint8)
        pool.free(a)
        pool.alloc((50,), np.uint8)
        assert pool.peak_used == 300

    def test_dtype_itemsize_respected(self):
        pool = MemoryPool(capacity=1000)
        assert pool.alloc((10,), np.float64).nbytes == 80
        assert pool.alloc((10,), np.int8).nbytes == 10


class TestFree:
    def test_free_returns_bytes(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc((100,), np.uint8)
        pool.free(buf)
        assert pool.used == 0
        assert buf.freed

    def test_double_free_raises(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc((100,), np.uint8)
        pool.free(buf)
        with pytest.raises(ValueError, match="double free"):
            pool.free(buf)

    def test_use_after_free_raises(self):
        pool = MemoryPool(capacity=1000)
        buf = pool.alloc((10,), np.float32, materialize=True)
        pool.free(buf)
        with pytest.raises(ValueError, match="use-after-free"):
            buf.array()

    def test_foreign_buffer_rejected(self):
        pool_a = MemoryPool(capacity=1000)
        pool_b = MemoryPool(capacity=1000)
        buf = pool_a.alloc((10,), np.uint8)
        with pytest.raises(ValueError, match="does not belong"):
            pool_b.free(buf)

    def test_coalescing_allows_realloc(self):
        """Free neighbours merge back into one hole usable by a big alloc."""
        pool = MemoryPool(capacity=300)
        a = pool.alloc((100,), np.uint8)
        b = pool.alloc((100,), np.uint8)
        c = pool.alloc((100,), np.uint8)
        pool.free(a)
        pool.free(c)
        pool.free(b)  # middle last: must merge all three
        big = pool.alloc((300,), np.uint8)
        assert big.nbytes == 300

    def test_reset_frees_everything(self):
        pool = MemoryPool(capacity=1000)
        for _ in range(5):
            pool.alloc((10,), np.float32)
        pool.reset()
        assert pool.used == 0
        assert pool.alloc((250,), np.float32).nbytes == 1000  # the whole pool is free


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 200)),
            min_size=1,
            max_size=60,
        )
    )
    def test_conservation_and_no_overlap(self, ops):
        """used + free == capacity; live buffers never overlap."""
        pool = MemoryPool(capacity=4096)
        live = []
        for kind, size in ops:
            if kind == "alloc":
                try:
                    live.append(pool.alloc((size,), np.uint8))
                except OutOfDeviceMemory:
                    pass
            elif live:
                idx = size % len(live)
                pool.free(live.pop(idx))
            # conservation
            assert pool.used + pool.free_bytes == pool.capacity
            assert pool.used == sum(b.nbytes for b in live)
            # no overlap between live allocations
            spans = sorted((b.offset, b.offset + b.nbytes) for b in live if b.nbytes)
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                assert hi1 <= lo2

    @given(sizes=st.lists(st.integers(1, 100), min_size=1, max_size=40))
    def test_alloc_all_free_all_returns_to_pristine(self, sizes):
        pool = MemoryPool(capacity=100 * len(sizes))
        bufs = [pool.alloc((s,), np.uint8) for s in sizes]
        for b in bufs:
            pool.free(b)
        assert pool.free_bytes == pool.capacity
        # a single hole remains (fully coalesced)
        assert pool._holes == [(0, pool.capacity)]
