"""Unit + property tests for the device memory allocator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_overflowing_shape_raises_its_true_size(self):
        """2**64 float32 elements: an int64 product would wrap to 0 bytes."""
        pool = MemoryPool(capacity=1 << 30, device_id=2)
        with pytest.raises(OutOfDeviceMemory) as ei:
            pool.alloc((2**32, 2**32))
        assert ei.value.requested == 2**64 * 4
        assert (ei.value.device_id, ei.value.free) == (2, 1 << 30)
        assert pool.used == 0 and not pool._live

    @pytest.mark.parametrize(
        "shape, axis, kind",
        [((2.7, 3), 0, "float"), ((True, 3), 0, "bool"), ((3, 2.0), 1, "float"),
         ((4, np.float32(2)), 1, "float32"), ((np.bool_(True), 2), 0, "bool"),
         ((2, 3, "4"), 2, "str"), (False, 0, "bool")],
    )
    def test_non_integer_dimension_rejected(self, shape, axis, kind):
        pool = MemoryPool(capacity=1000)
        with pytest.raises(TypeError, match=rf"shape axis {axis} must be an int, got {kind}"):
            pool.alloc(shape)
        assert pool.used == 0 and not pool._live

    @pytest.mark.parametrize("dim", [np.int64(3), np.uint16(3), np.int8(3)])
    def test_numpy_integer_dimension_accepted(self, dim):
        buf = MemoryPool(capacity=1000).alloc((dim, 4), np.float32)
        assert buf.shape == (3, 4) and buf.nbytes == 48
        assert all(type(d) is int for d in buf.shape)


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


def _replayed(capacity, ops):
    """A pool after replaying ``(alloc?, size)`` ops: an alloc that does not
    fit is skipped, a free drops live buffer ``size % len(live)``."""
    pool = MemoryPool(capacity=capacity, device_id=5)
    live = []
    for is_alloc, size in ops:
        if is_alloc:
            try:
                live.append(pool.alloc((size,), np.uint8, label=f"pre{size}"))
            except OutOfDeviceMemory:
                pass
        elif live:
            pool.free(live.pop(size % len(live)))
    return pool


def _state(pool):
    return list(pool._holes), list(pool._live.items()), pool.used, pool.peak_used


def _oom(exc):
    return None if exc is None else (exc.device_id, exc.requested, exc.free)


_DTYPES = [np.dtype(t) for t in (np.uint8, np.float16, np.float32, np.float64)]


class TestAllocMany:
    """``alloc_many`` equals one ``alloc`` per buffer, in order."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_loop(self, data):
        capacity = data.draw(st.integers(1, 4096), label="capacity")
        ops = data.draw(
            st.lists(st.tuples(st.booleans(), st.integers(1, 600)), max_size=40), label="ops"
        )
        fast, slow = _replayed(capacity, ops), _replayed(capacity, ops)
        assert _state(fast) == _state(slow)
        first = fast._holes[0][1] if fast._holes else 0
        mode = data.draw(
            st.sampled_from(["drawn", "exact fit", "one byte over", "over-commit"]), label="mode"
        )
        if mode == "drawn":
            shapes = data.draw(
                st.lists(st.tuples(st.integers(0, 60), st.integers(1, 4)), max_size=12),
                label="shapes",
            )
            dtypes = [data.draw(st.sampled_from(_DTYPES)) for _ in shapes]
        else:
            # Byte sizes that fill the first hole exactly.
            cuts = data.draw(st.sets(st.integers(1, max(first - 1, 1)), max_size=8))
            edges = [0, *sorted(c for c in cuts if c < first), first]
            shapes = [(hi - lo,) for lo, hi in zip(edges, edges[1:]) if hi > lo]
            at = data.draw(st.integers(0, len(shapes)))
            if mode == "one byte over":  # the first hole is one byte short
                shapes.insert(at, (1,))
            elif mode == "over-commit":
                extra = data.draw(st.integers(1, 64))
                shapes.insert(at, (fast.free_bytes + extra,))
            dtypes = [np.dtype(np.uint8)] * len(shapes)
        labels = [f"w{i}" for i in range(len(shapes))]

        want, want_exc = [], None
        try:
            for shape, dtype, label in zip(shapes, dtypes, labels):
                want.append(slow.alloc(shape, dtype, label=label))
        except OutOfDeviceMemory as exc:
            want_exc = exc
        got, got_exc = None, None
        try:
            got = fast.alloc_many(shapes, dtypes, labels)
        except OutOfDeviceMemory as exc:
            got_exc = exc
        assert _oom(got_exc) == _oom(want_exc)
        if want_exc is None:
            assert got == want
        assert _state(fast) == _state(slow)

    def test_one_carve_at_consecutive_offsets(self):
        pool = MemoryPool(capacity=1000, device_id=1)
        bufs = pool.alloc_many(
            [(10, 2), 5, (3,)], [np.float32, np.float64, np.uint8], ["a", "b", "c"]
        )
        assert [(b.offset, b.nbytes, b.shape, b.label) for b in bufs] == [
            (0, 80, (10, 2), "a"), (80, 40, (5,), "b"), (120, 3, (3,), "c"),
        ]
        assert all(b.device_id == 1 and b.data is None for b in bufs)
        assert pool._holes == [(123, 877)]
        assert list(pool._live.values()) == bufs
        assert pool.used == pool.peak_used == 123

    def test_exact_fit_removes_the_hole(self):
        pool = MemoryPool(capacity=100)
        pool.alloc_many([(60,), (40,)], [np.uint8, np.uint8], ["a", "b"])
        assert pool._holes == [] and pool.free_bytes == 0

    def test_over_commit_keeps_the_buffers_before_it(self):
        pool = MemoryPool(capacity=100, device_id=4)
        with pytest.raises(OutOfDeviceMemory) as ei:
            pool.alloc_many([(60,), (50,), (10,)], [np.uint8] * 3, ["a", "b", "c"])
        assert (ei.value.device_id, ei.value.requested, ei.value.free) == (4, 50, 40)
        assert [b.label for b in pool._live.values()] == ["a"]

    def test_overflowing_shape_raises_its_true_size(self):
        pool = MemoryPool(capacity=1 << 30)
        with pytest.raises(OutOfDeviceMemory) as ei:
            pool.alloc_many([(4,), (2**32, 2**32)], [np.float32] * 2, ["a", "b"])
        assert ei.value.requested == 2**64 * 4
        assert [b.label for b in pool._live.values()] == ["a"]

    def test_malformed_shape_allocates_nothing(self):
        pool = MemoryPool(capacity=1000)
        with pytest.raises(TypeError, match="shape axis 1 must be an int, got float"):
            pool.alloc_many([(4,), (2, 2.5)], [np.uint8] * 2, ["a", "b"])
        assert pool.used == 0 and not pool._live

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="2 shapes, 1 dtypes, 2 labels"):
            MemoryPool(capacity=1000).alloc_many([(1,), (2,)], [np.uint8], ["a", "b"])
