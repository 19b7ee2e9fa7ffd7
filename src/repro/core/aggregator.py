"""Asynchronous communication aggregator — the paper's §V multi-node plan.

Over NVLink, 256-byte one-sided messages are cheap; over an inter-node NIC
their headers and per-message latency dominate.  The paper proposes (citing
its authors' SC'22 aggregator) replacing ``sum.store(outputs[idx], pe)``
with ``aggregator.store(outputs[idx], sum, pe)``: writes land in a local
per-destination staging buffer, and the buffer is flushed as one large
message when it reaches a size threshold (:data:`FLUSH_BYTES`) **or** when
the oldest entry has waited too long (:data:`MAX_WAIT_NS`).

:class:`AsyncAggregator` implements exactly that contract on the
simulator: :meth:`store` accumulates payload bytes per destination;
flushes happen on the size trigger, on the max-wait timer, or explicitly
via :meth:`flush_all` (called before ``quiet``).  Flushed batches travel
as a single large-framed transfer (:data:`FLUSHED_MESSAGE_BYTES` frames,
:data:`FLUSHED_HEADER_BYTES` each), amortising headers — the ablation bench
shows the small-message vs. aggregated crossover as the link gets slower
(NVLink → PCIe → NIC).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..comm.pgas import PGASContext
from ..simgpu.engine import Event
from ..simgpu.units import KiB, us

__all__ = ["AsyncAggregator", "FLUSH_BYTES", "MAX_WAIT_NS"]

#: Wire framing of an aggregated flush: large frames, one header each
FLUSHED_MESSAGE_BYTES = 64 * KiB
FLUSHED_HEADER_BYTES = 64

# The paper's "user-defined aggregation size and maximum wait time".
#: size trigger: a destination's buffer flushes when it holds this many
#: payload bytes
FLUSH_BYTES = 512 * KiB
#: time trigger: a buffer holding data flushes at most this long after its
#: first (oldest) pending byte arrived
MAX_WAIT_NS = 50 * us


class AsyncAggregator:
    """Per-source staging buffers that batch one-sided writes."""

    def __init__(self, pgas: PGASContext):
        self.pgas = pgas
        self.cluster = pgas.cluster
        # (src, dst) -> pending payload bytes
        self._pending: Dict[Tuple[int, int], float] = {}
        # (src, dst) -> engine time of the oldest pending byte
        self._oldest: Dict[Tuple[int, int], float] = {}
        # (src, dst) -> scheduled timer entry (cancellable)
        self._timers: Dict[Tuple[int, int], object] = {}
        self.flushes = 0
        self.stores = 0

    # -- the Listing-2 replacement call ------------------------------------------

    def store(self, src: int, dst: int, payload_bytes: float) -> None:
        """Buffer a one-sided write (``aggregator.store(..., pe)``).

        Raises the typed errors of :meth:`PGASContext.put
        <repro.comm.pgas.PGASContext.put>`, through its validator: local
        destinations (local stores never needed aggregation in the first
        place), out-of-range devices, and negative, NaN or infinite
        payloads.
        """
        self.pgas.check_put("store", src, dst, payload_bytes)
        if payload_bytes == 0:
            return
        key = (src, dst)
        engine = self.cluster.engine
        self.stores += 1
        if key not in self._pending:
            self._pending[key] = 0.0
            self._oldest[key] = engine.now
            self._arm_timer(key)
        self._pending[key] += payload_bytes
        if self._pending[key] >= FLUSH_BYTES:
            self.flush(src, dst)

    # -- flushing --------------------------------------------------------------------

    def flush(self, src: int, dst: int) -> Optional[Event]:
        """Send a destination buffer now as one large-framed transfer."""
        key = (src, dst)
        payload = self._pending.pop(key, 0.0)
        self._oldest.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            self.cluster.engine.cancel(timer)
        if payload <= 0:
            return None
        self.flushes += 1
        ev = self.cluster.interconnect.transfer(
            src,
            dst,
            payload,
            message_bytes=FLUSHED_MESSAGE_BYTES,
            header_bytes=FLUSHED_HEADER_BYTES,
            counter=PGASContext.COUNTER,
        )
        # Register with the PGAS outstanding set so quiet() drains flushes.
        self.pgas.register_outstanding(src, ev)
        return ev

    def flush_all(self, src: Optional[int] = None) -> List[Event]:
        """Flush every pending buffer (of one source, or all)."""
        keys = [k for k in list(self._pending) if src is None or k[0] == src]
        events = []
        for s, d in keys:
            ev = self.flush(s, d)
            if ev is not None:
                events.append(ev)
        return events

    # -- internals --------------------------------------------------------------------

    def _arm_timer(self, key: Tuple[int, int]) -> None:
        """Schedule the max-wait flush for a freshly non-empty buffer."""
        engine = self.cluster.engine

        def on_timer(k: Tuple[int, int] = key) -> None:
            # Fire only if the buffer is still the same generation (a flush
            # removes the key; a new store re-arms a new timer).
            if k in self._pending:
                self.flush(*k)

        self._timers[key] = engine.call_in(MAX_WAIT_NS, on_timer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AsyncAggregator pending_pairs={len(self._pending)} "
            f"stores={self.stores} flushes={self.flushes}>"
        )
