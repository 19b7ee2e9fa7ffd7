"""PGAS one-sided GPU communication (NVSHMEM-style), the paper's scheme.

The programming model of Listing 2: a CUDA thread that has finished pooling
an embedding vector writes it *directly* to the output array — locally if
the sample belongs to the local mini-batch, remotely via a one-sided RDMA
write otherwise.  No collective call, no packing, no staging buffer.

This module models that with three pieces:

* :class:`SymmetricHeap` — lockstep allocation across all devices, so a
  buffer has the same "address" (offset) everywhere; remote writes name
  ``(peer, offset)`` exactly like NVSHMEM's symmetric objects.
* :meth:`PGASContext.put` — non-blocking one-sided write of a payload that
  is carried as many small messages (default 256 B — one d=64 fp32
  embedding vector per message, the paper's counter unit) each paying a
  header; injected into the interconnect *at the simulated instant the
  kernel wave retires*, which is what produces the fine-grained overlap.
* :meth:`PGASContext.quiet` / :meth:`PGASContext.barrier_all` — NVSHMEM
  completion semantics: ``quiet`` drains a PE's outstanding puts,
  ``barrier_all`` synchronises everyone.  A put is one scheduled delivery
  callback, not an event: the PE keeps an in-flight count and the latest
  delivery instant it has booked, which is all ``quiet`` needs.

``atomic_add`` models the backward-pass extension (§V): gradient
contributions scatter-added into remote tables without rounds of
collectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event, ProcessGenerator
from ..simgpu.memory import Buffer
from ..simgpu.units import us

__all__ = ["PGASSpec", "SymmetricHeap", "PGASContext"]


def _delivered(in_flight: Dict[int, int], pe: int, t: float) -> None:
    """One put or atomic from ``pe`` landed at ``t``."""
    in_flight[pe] -= 1


@dataclass(frozen=True)
class PGASSpec:
    """Tunables of the one-sided messaging layer.

    Attributes
    ----------
    message_bytes:
        Payload per one-sided write.  256 B = one 64-float embedding vector,
        matching the paper's communication-counter unit.
    header_bytes:
        Wire framing per message — the "message header takes a good portion
        of bandwidth" inefficiency of §IV-A2d.  32 B/256 B ⇒ 12.5% overhead.
    issue_overhead_ns:
        GPU-side cost of triggering a batch of remote writes from a kernel
        wave ("it is faster to trigger communication on the CPU than on the
        GPU", §III-B2 — nonzero, but tiny and off the critical path).
    quiet_overhead_ns:
        Cost of the memory-fence/quiet operation at kernel end.
    atomic_payload_bytes:
        Payload of one remote atomic (for gradient adds / counters).
    """

    message_bytes: int = 256
    header_bytes: int = 32
    issue_overhead_ns: float = 0.5 * us
    quiet_overhead_ns: float = 2 * us
    atomic_payload_bytes: int = 8

    def __post_init__(self) -> None:
        if self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")

    @property
    def wire_efficiency(self) -> float:
        """payload / (payload + header) — fraction of wire carrying data."""
        return self.message_bytes / (self.message_bytes + self.header_bytes)


class SymmetricHeap:
    """Lockstep allocator: one buffer per device at identical offsets.

    NVSHMEM's symmetric heap invariant — every PE holds the allocation at
    the same offset — lets a one-sided write address remote memory with a
    local pointer.  We enforce it by allocating on all devices in the same
    order and asserting the offsets agree.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._allocs: List[List[Buffer]] = []

    def alloc(
        self,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.dtype(np.float32),
        *,
        materialize: bool = False,
        label: str = "symmetric",
    ) -> List[Buffer]:
        """Allocate ``shape`` on every device; returns buffers by device id."""
        buffers = [
            dev.memory.alloc(shape, dtype, materialize=materialize, label=label)
            for dev in self.cluster.devices
        ]
        offsets = {b.offset for b in buffers}
        if len(offsets) != 1:
            # Heaps diverged (asymmetric prior allocations): roll back.
            for dev, b in zip(self.cluster.devices, buffers):
                dev.memory.free(b)
            raise RuntimeError(
                "symmetric allocation failed: device heaps have diverged "
                f"(offsets {sorted(offsets)}); allocate symmetric buffers "
                "before any per-device ones"
            )
        self._allocs.append(buffers)
        return buffers

    def free(self, buffers: List[Buffer]) -> None:
        """Free a symmetric allocation on every device."""
        if buffers not in self._allocs:
            raise ValueError("not a live symmetric allocation")
        self._allocs.remove(buffers)
        for dev, b in zip(self.cluster.devices, buffers):
            dev.memory.free(b)


class PGASContext:
    """One-sided communication endpoint set over a cluster."""

    #: profiler counter for one-sided payload bytes (paper's RDMA counter)
    COUNTER = "pgas_bytes"

    def __init__(self, cluster: Cluster, spec: Optional[PGASSpec] = None):
        self.cluster = cluster
        self.spec = spec or PGASSpec()
        self.heap = SymmetricHeap(cluster)
        ids = [d.id for d in cluster.devices]
        # Completion state per PE.  A put is one booked delivery callback,
        # not an Event: quiet only needs "every earlier put has landed",
        # i.e. the latest delivery instant booked so far.
        self._in_flight: Dict[int, int] = dict.fromkeys(ids, 0)
        self._last_done: Dict[int, float] = dict.fromkeys(ids, float("-inf"))
        # Delivery callbacks close over the count only: a bound method here
        # would tie the context into a cycle through the interconnect.
        self._on_delivered = {pe: partial(_delivered, self._in_flight, pe) for pe in ids}
        # Externally-created transfers (aggregator flushes, hier chains).
        self._outstanding: Dict[int, List[Event]] = {pe: [] for pe in ids}
        self.puts_issued = 0
        self.payload_bytes_issued = 0.0

    # -- one-sided ops ---------------------------------------------------------

    def put(self, src: int, dst: int, payload_bytes: float) -> None:
        """Non-blocking one-sided write of ``payload_bytes`` from src to dst.

        The payload is carried as ``ceil(payload / message_bytes)`` small
        messages injected into the interconnect *now*; :meth:`quiet` waits
        for it.  An empty put is a no-op.

        Requires peer access (NVLink-mapped memory), as on the testbed.
        """
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        if src == dst:
            raise ValueError("put to self: write locally instead (no wire cost)")
        if not self.cluster.device(src).can_access_peer(dst):
            raise PermissionError(f"device {src} has no peer access to device {dst}")
        if payload_bytes == 0:
            return
        self._send(src, dst, payload_bytes, self.spec.message_bytes)
        self.puts_issued += 1
        self.payload_bytes_issued += payload_bytes

    def atomic_add(self, src: int, dst: int, n_elements: int) -> None:
        """``n_elements`` remote atomic adds (backward-pass gradient scatter)."""
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        payload = float(n_elements * self.spec.atomic_payload_bytes)
        if payload == 0:
            return
        self._send(src, dst, payload, self.spec.atomic_payload_bytes)

    def register_outstanding(self, src: int, ev: Event) -> None:
        """Track an externally-created transfer so :meth:`quiet` drains it.

        Used by the §V aggregator, whose flushes are ordinary transfers but
        must still participate in NVSHMEM completion semantics.
        """
        self._outstanding[src].append(ev)

    def _send(self, src: int, dst: int, payload: float, message_bytes: int) -> None:
        done_at = self.cluster.interconnect.send(
            src,
            dst,
            payload,
            message_bytes=message_bytes,
            header_bytes=self.spec.header_bytes,
            counter=self.COUNTER,
            on_delivered=self._on_delivered[src],
        )
        self._in_flight[src] += 1
        if done_at > self._last_done[src]:
            self._last_done[src] = done_at

    def issue_cost(self, n_batches: int = 1) -> float:
        """GPU-side time charged inside the kernel for issuing writes."""
        return self.spec.issue_overhead_ns * n_batches

    # -- completion --------------------------------------------------------------

    def pending_puts(self, device_id: int) -> int:
        """Outstanding (undelivered) one-sided ops from one PE.

        In-flight puts and atomics plus still-pending registered events.
        """
        self._gc(device_id)
        return self._in_flight[device_id] + len(self._outstanding[device_id])

    def quiet(self, device_id: int) -> ProcessGenerator:
        """Process generator: drain all outstanding puts from ``device_id``.

        NVSHMEM ``nvshmem_quiet`` semantics: returns when every previously
        issued one-sided op from this PE is complete at its target.  The
        snapshot is taken at entry, so ops issued after ``quiet`` starts
        are not waited for.  Puts drain at the latest delivery instant
        booked so far; the wake-up is scheduled at that absolute instant
        (``now + (last - now)`` could round past it).
        """
        engine = self.cluster.engine
        self._gc(device_id)
        waits = list(self._outstanding[device_id])
        last = self._last_done[device_id]
        if last > engine.now:
            wake = Event(engine, "quiet")
            engine.call_at(last, wake.succeed)
            waits.append(wake)
        if waits:
            yield waits[0] if len(waits) == 1 else engine.all_of(waits)
        yield engine.timeout(self.spec.quiet_overhead_ns)

    def barrier_all(self) -> ProcessGenerator:
        """Process generator: quiet on every PE + device-wide rendezvous."""
        engine = self.cluster.engine
        procs = [
            engine.process(self.quiet(dev.id), name=f"quiet{dev.id}")
            for dev in self.cluster.devices
        ]
        yield engine.all_of(procs)

    def _gc(self, device_id: int) -> None:
        """Drop delivered events from the outstanding list."""
        self._outstanding[device_id] = [
            ev for ev in self._outstanding[device_id] if not ev.triggered
        ]
