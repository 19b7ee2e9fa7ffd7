"""Sliding-window traffic observation feeding the reshard planner.

The :class:`LoadTracker` is the telemetry half of the load balancer: it
consumes what the retrieval layer already knows about every batch — the
per-table retrieval bytes implied by the jagged lengths, and (when a
hot-row cache is layered underneath) the per-table hit rates that shrink
a table's *effective* remote traffic — and maintains per-table exponents
over a sliding window of recent batches.  The planner reads
:meth:`table_traffic` and never touches raw batches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Mapping, Optional

__all__ = ["LoadTracker"]


class LoadTracker:
    """Per-table traffic over a sliding window of recent batches.

    ``window_batches`` bounds how much history influences planning; the
    tracker is pure Python bookkeeping (no simulated time, no profiler
    writes), so observing a batch can never perturb trace bit-identity.
    """

    def __init__(self, window_batches: int):
        if window_batches < 1:
            raise ValueError("window_batches must be >= 1")
        self.window_batches = window_batches
        self._window: Deque[Dict[str, float]] = deque(maxlen=window_batches)
        self._totals: Dict[str, float] = {}
        self.batches_observed = 0

    def observe(
        self,
        table_bytes: Mapping[str, float],
        hit_rates: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record one batch's per-table retrieval bytes.

        ``table_bytes`` maps table name → bytes its lookups moved this
        batch (``nnz * row_bytes``).  ``hit_rates`` optionally maps table
        name → cache hit fraction in ``[0, 1]``; a hit is served locally,
        so the table's *tracked* traffic shrinks to ``(1 - hit_rate)`` of
        its raw bytes — a hot-but-well-cached table should not trigger a
        pointless migration.
        """
        entry: Dict[str, float] = {}
        for name, nbytes in table_bytes.items():
            b = float(nbytes)
            if b < 0:
                raise ValueError(f"negative traffic for table {name!r}")
            if hit_rates is not None and name in hit_rates:
                rate = float(hit_rates[name])
                if not (0.0 <= rate <= 1.0):
                    raise ValueError(
                        f"hit rate for table {name!r} outside [0, 1]: {rate}"
                    )
                b *= 1.0 - rate
            entry[name] = b
        if len(self._window) == self._window.maxlen:
            evicted = self._window[0]
            for name, b in evicted.items():
                self._totals[name] -= b
        self._window.append(entry)
        for name, b in entry.items():
            self._totals[name] = self._totals.get(name, 0.0) + b
        self.batches_observed += 1

    @property
    def window_fill(self) -> int:
        """Batches currently in the window (≤ ``window_batches``)."""
        return len(self._window)

    def table_traffic(self) -> Dict[str, float]:
        """Per-table bytes summed over the current window."""
        # Guard against float drift from the incremental eviction updates.
        return {name: max(0.0, b) for name, b in self._totals.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LoadTracker window={self.window_fill}/{self.window_batches} "
            f"tables={len(self._totals)}>"
        )
