"""NCCL-style collective communication (the paper's baseline scheme).

Bulk-synchronous semantics, faithfully reproduced:

* the caller launches a collective *after* its compute kernel has finished
  (separate compute / communicate phases);
* the call itself costs a control-path overhead — NCCL enqueue, CUDA kernel
  synchronisation, rendezvous — before any byte moves (paper §III-A's
  "false dependencies" and "communication control path" costs), and the
  host's ``wait()`` one more: :data:`LAUNCH_OVERHEAD_NS` and
  :data:`WAIT_OVERHEAD_NS`;
* payloads move in large chunks that use bandwidth efficiently (per-chunk
  protocol overhead, :data:`PER_CHUNK_HEADER_BYTES`, is small relative to
  chunk size), at :data:`NCCL_ALLTOALL_EFFICIENCY` of the raw link rate;
* completion is observed via a :class:`WorkHandle` — the analogue of the
  request object returned by ``all_to_all_single(..., async_op=True)``,
  whose ``wait()`` the baseline calls to synchronise all GPUs.

Chunking matters for the figures: because each (src, dst) payload is cut
into ``chunk_bytes`` pieces that complete one by one, the comm-volume
counter ramps smoothly *within* the communication phase — but only starts
after compute ends, which is exactly the flat-then-steep baseline curve of
Figs. 7 and 10.  The chunks are booked when the control path ends, one
:meth:`~repro.simgpu.interconnect.Interconnect.book_wave` per source, and
stamped at their delivery instants; nothing waits on a chunk, so the only
engine entry a collective adds is its completion at the latest delivery.
Every pair of a call is cut in one numpy pass (:func:`chunk_waves`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..checks import check_bytes, checked_count
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.units import MiB, us

__all__ = [
    "CollectiveSpec",
    "WorkHandle",
    "CollectiveContext",
    "chunk_waves",
    "LAUNCH_OVERHEAD_NS",
    "NCCL_ALLTOALL_EFFICIENCY",
    "PER_CHUNK_HEADER_BYTES",
    "WAIT_OVERHEAD_NS",
]

# The control path and framing of NCCL 2.x on an NVLink node.

#: host-side control path per collective call: enqueue + kernel launch +
#: rendezvous across ranks
LAUNCH_OVERHEAD_NS = 30 * us
#: protocol framing per chunk (negligible for MiB chunks, which is the
#: point of collectives)
PER_CHUNK_HEADER_BYTES = 512
#: cost of the ``wait()`` observed by the host (CUDA event sync)
WAIT_OVERHEAD_NS = 8 * us
#: fraction of the raw link bandwidth the collective *algorithm* achieves
#: end to end; its derivation is in :mod:`repro.core.calibration`, which
#: re-exports it.  The PGAS layer does not pay it: bypassing it is the
#: point of one-sided writes.
NCCL_ALLTOALL_EFFICIENCY = 0.1875


@dataclass(frozen=True)
class CollectiveSpec:
    """Tunables of the collective layer.

    Attributes
    ----------
    chunk_bytes:
        Pipelining granularity of each pairwise transfer.
    """

    chunk_bytes: int = 4 * MiB
    #: all-to-all schedule: "direct" fires every pairwise transfer at once
    #: (NCCL's p2p schedule on NVLink); "pairwise" runs G-1 synchronised
    #: exchange rounds (partner = (rank ± r) mod G), the classic
    #: torus-friendly schedule — cheaper on contended fabrics, slower here
    #: because every round ends with a barrier.
    alltoall_algorithm: str = "direct"

    def __post_init__(self) -> None:
        checked_count("CollectiveSpec", "chunk_bytes", self.chunk_bytes)
        if self.alltoall_algorithm not in ("direct", "pairwise"):
            raise ValueError(
                f"unknown alltoall_algorithm {self.alltoall_algorithm!r}"
            )


def chunk_waves(
    spec: CollectiveSpec,
    srcs: Sequence[int],
    dsts: np.ndarray,
    nbytes: np.ndarray,
    *,
    derate: bool = True,
) -> List[Tuple[int, List[int], List[float], List[int]]]:
    """Each source's chunk columns ``(src, dsts, sizes, headers)``, in one pass.

    Row ``i`` of the ``(S, k)`` arrays lists the pairs ``srcs[i]`` sends,
    in send order: ``nbytes[i, j]`` to ``dsts[i, j]``.  A pair is cut into
    ``n = ceil(nbytes / chunk_bytes)`` chunks, all full but the last,
    ``nbytes - (n-1) chunk``.  With an integer ``chunk_bytes`` and byte
    counts below 2**53 that subtraction is exact, so the sizes are bit for
    bit those of a sequential ``min(chunk, remaining)`` split.  Every
    pair's chunks go in order, then the next destination's; a zero-byte
    pair has no chunk, and a row with none is left out.  Each chunk pays
    :data:`PER_CHUNK_HEADER_BYTES`; with ``derate`` the algorithm-efficiency
    derate is charged as extra header bytes too, so it also stretches the
    link's busy window (which the comm-volume figures observe).  Negative
    or NaN byte counts are a caller bug and raise ``ValueError``.
    """
    chunk = spec.chunk_bytes
    nbytes = np.asarray(nbytes, dtype=np.float64)
    if not (nbytes >= 0).all():
        raise ValueError(f"transfer bytes must be non-negative, got {nbytes.min()}")
    counts = np.ceil(nbytes / chunk).astype(np.int64)
    flat = counts.ravel()
    sizes = np.full(int(flat.sum()), float(chunk))
    moved = flat > 0
    sizes[np.cumsum(flat)[moved] - 1] = nbytes.ravel()[moved] - (flat[moved] - 1) * chunk
    extra = 1.0 / NCCL_ALLTOALL_EFFICIENCY - 1.0 if derate else 0.0
    headers = (sizes * extra).astype(np.int64) + PER_CHUNK_HEADER_BYTES
    dst_col = np.repeat(np.asarray(dsts).ravel(), flat).tolist()
    size_col, header_col = sizes.tolist(), headers.tolist()
    waves = []
    lo = 0
    for src, hi in zip(srcs, np.cumsum(counts.sum(axis=1)).tolist()):
        if hi > lo:
            waves.append((src, dst_col[lo:hi], size_col[lo:hi], header_col[lo:hi]))
        lo = hi
    return waves


class WorkHandle:
    """Async handle for an in-flight collective (``async_op=True`` analogue)."""

    def __init__(self, cluster: Cluster, done: Event, name: str):
        self._cluster = cluster
        self._done = done
        self.name = name
        self.issued_at = cluster.engine.now
        self.completed_at: Optional[float] = None
        done.add_callback(self._on_done)

    def _on_done(self) -> None:
        self.completed_at = self._cluster.engine.now

    def wait(self) -> Event:
        """One event: completion, then the host's :data:`WAIT_OVERHEAD_NS`.

        It fires in the entry the overhead's delay schedules, like a
        ``call_in`` continuation.
        """
        engine = self._cluster.engine
        waited = Event(engine, f"{self.name}.wait")
        fire = partial(engine.call_in, WAIT_OVERHEAD_NS, waited._run_callbacks)
        if self._done.triggered:
            fire()
        else:
            self._done.add_callback(fire)
        return waited


class CollectiveContext:
    """Issues NCCL-like collectives on a cluster."""

    def __init__(self, cluster: Cluster, spec: Optional[CollectiveSpec] = None):
        self.cluster = cluster
        self.spec = spec or CollectiveSpec()

    # -- internals -------------------------------------------------------------

    def _book(
        self, waves: Iterable[Tuple[int, List[int], List[float], List[int]]]
    ) -> Optional[float]:
        """Book each :func:`chunk_waves` wave ``(src, dsts, sizes, headers)``.

        Returns the latest delivery instant, or None if nothing moved.
        """
        interconnect = self.cluster.interconnect
        prof = interconnect.profiler
        last = None
        for src, dsts, sizes, headers in waves:
            if prof is not None and prof.enabled:
                # The fabric total heads its per-pair entries in the counters.
                prof.counter(interconnect.COUNTER)
            done = max(
                interconnect.book_wave(src, dsts, sizes, 0, headers, interconnect.COUNTER)
            )
            if last is None or done > last:
                last = done
        return last

    def _start(self, name: str, waves: Callable[[], Iterable]) -> WorkHandle:
        """Common control path: overhead, then book every chunk at once.

        The control callback books the chunk waves ``waves()`` returns
        (see :meth:`_book`); ``done`` succeeds at the latest delivery
        instant, or at once if nothing moved.
        """
        engine = self.cluster.engine
        done = engine.event(name)

        def control() -> None:
            last = self._book(waves())
            if last is None:
                done.succeed()
            else:
                engine.call_at(last, done.succeed)

        engine.call_in(LAUNCH_OVERHEAD_NS, control)
        return WorkHandle(self.cluster, done, name)

    # -- collectives -------------------------------------------------------------

    def all_to_all_single(self, split_bytes: np.ndarray) -> WorkHandle:
        """All-to-all with per-pair byte matrix ``split_bytes[src, dst]``.

        Diagonal entries (local copies) are free — they stay in HBM, and
        the baseline's *unpack* step (modelled by the caller) is what
        touches them.  The schedule follows
        :attr:`CollectiveSpec.alltoall_algorithm`.
        """
        split = np.asarray(split_bytes, dtype=np.float64)
        G = self.cluster.n_devices
        if split.shape != (G, G):
            raise ValueError(f"split_bytes must be ({G}, {G}), got {split.shape}")
        bad = ~((split >= 0) & (split < math.inf))  # True for NaN
        if bad.any():
            src, dst = np.argwhere(bad)[0]
            check_bytes(f"all_to_all_single: split_bytes[{src}, {dst}]", split[src, dst])
        if not split.any():
            # Degenerate all-zero split: complete after the control path
            # alone (launch + wait are still charged — the call happened);
            # no zero-length transfers or exchange rounds are booked.
            return self._start("all_to_all_single", lambda: [])

        if self.spec.alltoall_algorithm == "pairwise":
            return self._pairwise_rounds_alltoall(split)
        # Every source sends to every other device, in device order.
        off = ~np.eye(G, dtype=bool)
        dsts = np.broadcast_to(np.arange(G), (G, G))[off].reshape(G, G - 1)
        return self._start(
            "all_to_all_single",
            lambda: chunk_waves(self.spec, range(G), dsts, split[off].reshape(G, G - 1)),
        )

    def _pairwise_rounds_alltoall(self, split: np.ndarray) -> WorkHandle:
        """G-1 synchronised exchange rounds (round r: dst = (src + r) mod G)."""
        name = "all_to_all_single[pairwise]"
        done = self.cluster.engine.event(name)
        self.cluster.engine.call_in(LAUNCH_OVERHEAD_NS, partial(self._round, split, 1, done))
        return WorkHandle(self.cluster, done, name)

    def _round(self, split: np.ndarray, r: int, done: Event) -> None:
        """Book exchange round ``r`` and schedule the next at its barrier.

        The barrier is the round's latest delivery instant: nobody starts
        round r+1 early.  A round that moves nothing passes straight on.
        """
        G = self.cluster.n_devices
        srcs = np.arange(G)
        while r < G:
            dsts = (srcs + r) % G
            last = self._book(
                chunk_waves(self.spec, range(G), dsts[:, None], split[srcs, dsts][:, None])
            )
            r += 1
            if last is not None:
                self.cluster.engine.call_at(last, partial(self._round, split, r, done))
                return
        done.succeed()

    def all_reduce(self, total_bytes: float) -> WorkHandle:
        """Ring all-reduce: reduce-scatter + all-gather volume (2(G-1)/G)."""
        G = self.cluster.n_devices
        check_bytes("all_reduce: total_bytes", total_bytes)
        share = total_bytes / G if G else 0.0
        # Reduce-scatter then all-gather: 2(G-1) ring steps, each source to
        # its ring neighbour.  One wave per source: each link carries only
        # its source's steps, so their order across sources does not matter.
        steps = 2 * (G - 1)
        nxt = np.repeat((np.arange(G) + 1) % G, steps).reshape(G, steps)
        return self._start(
            "all_reduce", lambda: chunk_waves(self.spec, range(G), nxt, np.full((G, steps), share))
        )
