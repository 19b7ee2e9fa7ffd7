"""Device memory: accounting allocator and typed buffers.

The simulator tracks memory two ways at once:

* **Accounting** — every allocation debits a per-device byte budget so that
  paper-scale experiments (64 tables × 1M rows × 64 floats ≈ 16 GiB/GPU)
  hit the same capacity wall the authors describe, *without* allocating
  host RAM.  A :class:`Buffer` created with ``materialize=False`` costs only
  its metadata.
* **Functional storage** — buffers created with ``materialize=True`` carry a
  real numpy array, used by the functional layer of the retrieval backends
  so tests can assert bit-exact outputs.

The allocator is a simple offset-bump with a free list merged by address —
enough to model fragmentation-free CUDA caching-allocator behaviour while
keeping invariants easy to property-test (see tests/simgpu/test_memory.py).

Sizes are exact Python ints: a shape's byte count never wraps, so an
absurd shape raises :class:`OutOfDeviceMemory` with its true size, and a
dimension must be an integer (a float or a bool raises ``TypeError``
naming its axis).  :meth:`MemoryPool.alloc_many` registers a sequence of
metadata-only buffers — a device's table weights — in one accounting
step, with exactly the result of one :meth:`~MemoryPool.alloc` each.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["OutOfDeviceMemory", "Buffer", "MemoryPool"]

#: An array shape: a tuple of dimensions, or one int for a 1-D array.
Shape = Union[int, Sequence[int]]


def _dims(shape: Shape) -> Tuple[int, ...]:
    """``shape`` as a tuple of Python ints >= 0.

    A numpy integer is accepted; a float or a bool dimension raises
    ``TypeError`` and a negative one ``ValueError``, each naming the axis.
    """
    if type(shape) is tuple:
        for d in shape:
            if type(d) is not int or d < 0:
                break
        else:
            return shape  # already a tuple of ints >= 0
    elif isinstance(shape, numbers.Integral):
        shape = (shape,)
    dims = []
    for axis, d in enumerate(shape):
        if type(d) is not int:
            if isinstance(d, (bool, np.bool_)) or not isinstance(d, numbers.Integral):
                raise TypeError(
                    f"shape axis {axis} must be an int, got {type(d).__name__} {d!r}"
                )
            d = operator.index(d)
        if d < 0:
            raise ValueError(f"negative dimension in shape {tuple(shape)} (axis {axis})")
        dims.append(d)
    return tuple(dims)


class OutOfDeviceMemory(MemoryError):
    """Allocation exceeded the simulated device's HBM capacity."""

    def __init__(self, device_id: int, requested: int, free: int):
        super().__init__(
            f"device {device_id}: out of memory "
            f"(requested {requested} B, {free} B free)"
        )
        self.device_id = device_id
        self.requested = requested
        self.free = free


@dataclass
class Buffer:
    """A device allocation.

    Attributes
    ----------
    device_id:
        Owning simulated device.
    offset:
        Byte offset within the device heap (stable address for the lifetime
        of the buffer; used by the PGAS symmetric-heap layer).
    nbytes:
        Allocation size.
    shape / dtype:
        Logical array view of the buffer.
    data:
        Backing numpy array if materialised, else ``None``.
    label:
        Free-form tag for profiler output ("emb_table_12", "a2a_recv", ...).
    """

    device_id: int
    offset: int
    nbytes: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    data: Optional[np.ndarray] = None
    label: str = ""
    freed: bool = False

    def array(self) -> np.ndarray:
        """The backing array; raises if the buffer is metadata-only or freed."""
        if self.freed:
            raise ValueError(f"use-after-free of buffer {self.label!r}")
        if self.data is None:
            raise ValueError(
                f"buffer {self.label!r} is not materialized; "
                "create it with materialize=True for functional use"
            )
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "virt" if self.data is None else "mat"
        return (
            f"<Buffer dev={self.device_id} {self.label!r} {self.shape} "
            f"{np.dtype(self.dtype).name} {self.nbytes}B {kind}>"
        )


class MemoryPool:
    """Per-device byte-accounting allocator.

    Maintains a sorted free list of ``(offset, size)`` holes; ``alloc`` is
    first-fit, ``free`` coalesces neighbours.  Invariants (property-tested):

    * sum(free holes) + sum(live allocations) == capacity
    * holes are disjoint, sorted, and non-adjacent (always coalesced)
    * live allocations never overlap
    """

    def __init__(self, capacity: int, device_id: int = 0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.device_id = device_id
        self._holes: List[Tuple[int, int]] = [(0, self.capacity)]  # (offset, size)
        self._live: Dict[int, Buffer] = {}  # offset -> Buffer
        self.peak_used = 0

    # -- queries -----------------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self.capacity - self.free_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return sum(size for _, size in self._holes)

    # -- alloc / free --------------------------------------------------------------

    def alloc(
        self,
        shape: Shape,
        dtype: np.dtype = np.dtype(np.float32),
        *,
        materialize: bool = False,
        label: str = "",
        fill: Optional[float] = None,
    ) -> Buffer:
        """Allocate a buffer for an array of ``shape``/``dtype``.

        ``materialize=True`` attaches a real numpy array (zero-initialised,
        or ``fill``-initialised).  Raises :class:`OutOfDeviceMemory` when the
        accounting budget is exhausted.
        """
        shape = _dims(shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        offset = self._take_hole(nbytes)
        data: Optional[np.ndarray] = None
        if materialize:
            data = np.zeros(shape, dtype=dtype)
            if fill is not None:
                data[...] = fill
        buf = Buffer(
            device_id=self.device_id,
            offset=offset,
            nbytes=nbytes,
            shape=shape,
            dtype=dtype,
            data=data,
            label=label,
        )
        self._live[offset] = buf
        self.peak_used = max(self.peak_used, self.used)
        return buf

    def alloc_many(
        self, shapes: Sequence[Shape], dtypes: Sequence[np.dtype], labels: Sequence[str]
    ) -> List[Buffer]:
        """Metadata-only buffers ``shapes[i]``/``dtypes[i]`` labelled
        ``labels[i]``, in order: one accounting step for many.

        When the first hole holds them all, it is carved once and the
        buffers sit at consecutive offsets; otherwise each takes its own
        :meth:`alloc`.  Either way the offsets, holes, ``used``,
        ``peak_used``, live-map order and any :class:`OutOfDeviceMemory`
        (raised with the buffers before it still allocated) equal one
        ``alloc`` per buffer.  A malformed shape raises before anything is
        allocated.
        """
        if not len(shapes) == len(dtypes) == len(labels):
            raise ValueError(
                f"alloc_many: {len(shapes)} shapes, {len(dtypes)} dtypes, {len(labels)} labels"
            )
        shapes = [_dims(shape) for shape in shapes]
        dtypes = [np.dtype(dtype) for dtype in dtypes]
        sizes = [math.prod(shape) * dtype.itemsize for shape, dtype in zip(shapes, dtypes)]
        total = sum(sizes)
        holes = self._holes
        # A zero-size buffer's pseudo-offset depends on the buffers before
        # it, so only all-positive sizes take the one carve.
        if not holes or holes[0][1] < total or 0 in sizes:
            return [
                self.alloc(shape, dtype, label=label)
                for shape, dtype, label in zip(shapes, dtypes, labels)
            ]
        start, size = holes[0]
        if size == total:
            del holes[0]
        else:
            holes[0] = (start + total, size - total)
        live, device_id = self._live, self.device_id
        bufs = []
        for offset, nbytes, shape, dtype, label in zip(
            accumulate(sizes, initial=start), sizes, shapes, dtypes, labels
        ):
            buf = live[offset] = Buffer(device_id, offset, nbytes, shape, dtype, None, label)
            bufs.append(buf)
        self.peak_used = max(self.peak_used, self.used)
        return bufs

    def free(self, buf: Buffer) -> None:
        """Return a buffer's bytes to the pool; double-free raises."""
        if buf.freed:
            raise ValueError(f"double free of buffer {buf.label!r}")
        if self._live.get(buf.offset) is not buf:
            raise ValueError(f"buffer {buf.label!r} does not belong to this pool")
        del self._live[buf.offset]
        buf.freed = True
        buf.data = None
        self._insert_hole(buf.offset, buf.nbytes)

    # -- internals ---------------------------------------------------------------

    def _take_hole(self, nbytes: int) -> int:
        """First-fit: carve ``nbytes`` out of the free list."""
        if nbytes == 0:
            # Zero-size allocations get a unique non-conflicting pseudo-offset
            # just past any live allocation; they consume no budget.
            nbytes_max = max((b.offset + b.nbytes for b in self._live.values()), default=0)
            offset = nbytes_max
            while offset in self._live:
                offset += 1
            return offset
        for i, (offset, size) in enumerate(self._holes):
            if size >= nbytes:
                if size == nbytes:
                    del self._holes[i]
                else:
                    self._holes[i] = (offset + nbytes, size - nbytes)
                return offset
        raise OutOfDeviceMemory(self.device_id, nbytes, self.free_bytes)

    def _insert_hole(self, offset: int, nbytes: int) -> None:
        """Insert a hole, merging with adjacent holes."""
        if nbytes == 0:
            return
        holes = self._holes
        # binary-search insertion point by offset
        lo, hi = 0, len(holes)
        while lo < hi:
            mid = (lo + hi) // 2
            if holes[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        holes.insert(lo, (offset, nbytes))
        # merge with next
        if lo + 1 < len(holes):
            o, s = holes[lo]
            no, ns_ = holes[lo + 1]
            if o + s == no:
                holes[lo] = (o, s + ns_)
                del holes[lo + 1]
        # merge with previous
        if lo > 0:
            po, ps = holes[lo - 1]
            o, s = holes[lo]
            if po + ps == o:
                holes[lo - 1] = (po, ps + s)
                del holes[lo]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MemoryPool dev={self.device_id} used={self.used}/{self.capacity}B "
            f"allocs={len(self._live)}>"
        )
