"""Timeline profiler: spans, counters, and comm-volume sampling.

Two instruments matter for the paper's evaluation:

* **Spans** — named intervals (kernel, collective, unpack, sync) per device,
  from which the runtime breakdowns of Figs. 6 and 9 are computed.
* **Counters** — monotonically accumulating quantities stamped with the
  simulation time at which they changed.  The communication counter
  reproduces the paper's instrument for Figs. 7 and 10: "with each RDMA
  write, that thread also atomically adds to that counter ... sequential
  reads of the communication counter show the communication volume over
  time" (§IV-A2b).  :meth:`Counter.sample` re-reads the counter on a fixed
  period, exactly like the paper's every-hundred-GPU-clock-cycles poll.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Span", "Counter", "Profiler", "TraceRef"]


@dataclass(frozen=True)
class TraceRef:
    """Trace context: which request/batch a span belongs to.

    ``trace_id`` identifies the run-level trace (one per
    :class:`~repro.obs.TraceSpec`); ``batch_id`` identifies the dispatched
    batch within it.  Spans recorded while a trace is active carry the ref,
    which the Chrome exporter turns into Perfetto flow arrows and the
    critical-path analyser uses to group spans per batch.
    """

    trace_id: int
    batch_id: int


@dataclass(frozen=True)
class Span:
    """One named interval on the timeline."""

    name: str
    category: str
    device_id: int
    t_start: float
    t_end: float
    # Trace context, stamped from Profiler.active_trace.  Last field with a
    # default so positional construction (and equality for untraced spans)
    # is unchanged from the pre-obs layout.
    trace: Optional[TraceRef] = None

    @property
    def duration(self) -> float:
        """Span length in nanoseconds."""
        return self.t_end - self.t_start


class Counter:
    """A time-stamped cumulative counter.

    ``add(t, delta)`` and ``extend`` may be called in any time order:
    one-sided puts stamp their delivery instant when they are issued, so
    samples arrive in issue order.  Writes only append.  Every read —
    :attr:`total` included — first checks the samples written since the
    previous read and, if any is out of time order, sorts all samples by
    time with one stable permutation, so ties keep their insertion order and
    sums run in time order whatever order the samples came in.  Samples live
    in two ``array('d')`` columns, 16 bytes per sample instead of a tuple
    object each.
    """

    def __init__(self, name: str, unit: str = "bytes"):
        self.name = name
        self.unit = unit
        self._times = array("d")
        self._deltas = array("d")
        # The first _in_order samples are known to be in time order.
        self._in_order = 0

    def add(self, t: float, delta: float) -> None:
        """Record ``delta`` units at simulation time ``t``."""
        self._times.append(t)
        self._deltas.append(delta)

    def extend(self, times: Sequence[float], deltas: Sequence[float]) -> None:
        """Record ``deltas[i]`` at ``times[i]`` for every i, as :meth:`add` in order."""
        self._times.extend(times)
        self._deltas.extend(deltas)

    @property
    def total(self) -> float:
        """Grand total accumulated, summed in time order."""
        self._ensure_sorted()
        return sum(self._deltas)

    def _ensure_sorted(self) -> None:
        n = len(self._times)
        k = self._in_order
        if k == n:
            return
        # Only samples added since the last read can be out of order.
        times = np.frombuffer(self._times)
        new = times[max(k - 1, 0):]
        if (new[1:] < new[:-1]).any():
            order = np.argsort(times, kind="stable")
            self._times = array("d", times[order].tobytes())
            self._deltas = array("d", np.frombuffer(self._deltas)[order].tobytes())
        self._in_order = n

    def value_at(self, t: float) -> float:
        """Cumulative value at time ``t`` (inclusive)."""
        self._ensure_sorted()
        total = 0.0
        for et, d in zip(self._times, self._deltas):
            if et > t:
                break
            total += d
        return total

    def events(self) -> List[Tuple[float, float]]:
        """Time-sorted ``(time, delta)`` events (a copy; safe to iterate)."""
        self._ensure_sorted()
        return list(zip(self._times, self._deltas))

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value_at` over an array of sample instants."""
        times = np.asarray(times, dtype=np.float64)
        self._ensure_sorted()
        if not self._times:
            return np.zeros_like(times)
        # Views on the columns; none outlives this call (an exported buffer
        # would block the next append).
        ev_t = np.frombuffer(self._times)
        ev_c = np.cumsum(np.frombuffer(self._deltas))
        idx = np.searchsorted(ev_t, times, side="right") - 1
        return np.where(idx >= 0, ev_c[np.maximum(idx, 0)], 0.0)

    def sample(
        self, t_start: float, t_end: float, period: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Poll the counter every ``period`` ns over ``[t_start, t_end]``.

        Returns ``(times, cumulative_values)`` — the paper's Figs. 7/10
        series.  The final sample lands exactly on ``t_end``.  A zero-width
        window (``t_start == t_end``) or an empty counter yields a single
        zero sample at ``t_start`` rather than an empty or degenerate
        series, so downstream rate/occupancy math never divides by a
        zero-width bin.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if t_end < t_start:
            raise ValueError("t_end < t_start")
        self._ensure_sorted()
        if t_end == t_start or not self._times:
            return np.array([t_start], dtype=np.float64), np.array([0.0])
        times = np.arange(t_start, t_end, period, dtype=np.float64)
        times = np.append(times, t_end)
        return times, self.values_at(times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name!r} total={self.total:.0f}{self.unit}>"


class _PairColumns:
    """One ``(counter, src)``'s per-pair samples, as three parallel columns.

    A wave appends with one ``extend`` per column.  ``dsts`` holds the
    destinations that already have a view.  The columns hold no reference
    to their views, so a view and its columns never form a cycle.
    """

    __slots__ = ("times", "dst", "delta", "dsts", "_split")

    def __init__(self) -> None:
        self.times = array("d")
        self.dst = array("q")
        self.delta = array("d")
        self.dsts: set = set()
        # (start, stop, {dst: (times, deltas)}): the last partition of rows
        # [start, stop) by destination, shared by the views that read next.
        self._split: Optional[Tuple[int, int, Dict[int, Tuple[np.ndarray, np.ndarray]]]] = None

    def rows(self, dst: int, start: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``dst``'s ``(times, deltas)`` among the rows from ``start`` on, in row order.

        Views usually read one after another over the same rows (a report
        after a run), so the rows are partitioned by destination once, with
        one stable sort, and each view takes its slice.
        """
        stop = len(self.times)
        split = self._split
        if split is None or split[0] != start or split[1] != stop:
            # Views on the columns; none outlives this call (an exported
            # buffer would block the next extend).
            order = np.argsort(np.frombuffer(self.dst, dtype=np.int64)[start:], kind="stable")
            dsts = np.frombuffer(self.dst, dtype=np.int64)[start:][order]
            times = np.frombuffer(self.times)[start:][order]
            deltas = np.frombuffer(self.delta)[start:][order]
            keys, first = np.unique(dsts, return_index=True)
            ends = np.append(first[1:], len(dsts))
            parts = {
                int(k): (times[a:b], deltas[a:b]) for k, a, b in zip(keys, first, ends)
            }
            split = self._split = (start, stop, parts)
        return split[2].get(dst)


class _PairView(Counter):
    """Read-only :class:`Counter` of one destination's rows in a :class:`_PairColumns`.

    Every read first copies the rows appended since the previous read
    whose destination is this view's, in row order, so the view holds
    exactly the samples a plain counter fed the same writes would.
    """

    def __init__(self, name: str, columns: _PairColumns, dst: int):
        super().__init__(name)
        self._columns = columns
        self._dst = dst
        self._pulled = 0

    def add(self, t: float, delta: float) -> None:
        raise TypeError(f"counter {self.name!r} is read-only: stamp it with Profiler.add_wave")

    def extend(self, times: Sequence[float], deltas: Sequence[float]) -> None:
        raise TypeError(f"counter {self.name!r} is read-only: stamp it with Profiler.add_wave")

    def _ensure_sorted(self) -> None:
        cols = self._columns
        n = len(cols.times)
        if self._pulled < n:
            mine = cols.rows(self._dst, self._pulled)
            if mine is not None:
                self._times.frombytes(mine[0].tobytes())
                self._deltas.frombytes(mine[1].tobytes())
            self._pulled = n
        super()._ensure_sorted()


class Profiler:
    """Collects spans and counters for one simulated run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        # (counter, src) -> that source's per-pair sample columns.
        self._pair_columns: Dict[Tuple[str, int], _PairColumns] = {}
        self.enabled = True
        # Trace context stamped onto every span recorded while set.  None
        # (the default) keeps record_span's output identical to a repo
        # without observability — zero overhead when tracing is off.
        self.active_trace: Optional[TraceRef] = None

    # -- spans -------------------------------------------------------------------

    def record_span(
        self, name: str, category: str, device_id: int, t_start: float, t_end: float
    ) -> None:
        """Append a finished span (no-op when disabled)."""
        if not self.enabled:
            return
        if t_end < t_start:
            raise ValueError(f"span {name!r} ends before it starts")
        self.spans.append(Span(name, category, device_id, t_start, t_end, self.active_trace))

    def spans_by_category(self, category: str, device_id: Optional[int] = None) -> List[Span]:
        """All spans of ``category`` (optionally restricted to one device)."""
        return [
            s
            for s in self.spans
            if s.category == category and (device_id is None or s.device_id == device_id)
        ]

    def category_time(self, category: str, device_id: Optional[int] = None) -> float:
        """Total duration of all spans of ``category`` (per device if given)."""
        return sum(s.duration for s in self.spans_by_category(category, device_id))

    def category_wall_time(self, category: str, device_id: Optional[int] = None) -> float:
        """Wall-clock extent (union, merged) of a category across devices.

        Overlapping spans are merged so concurrent per-device work counts
        once — this is what the paper's per-phase wall times report.  With
        ``device_id`` given, only that device's spans are merged.
        """
        spans = sorted(self.spans_by_category(category, device_id), key=lambda s: s.t_start)
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for s in spans:
            if cur_start is None:
                cur_start, cur_end = s.t_start, s.t_end
            elif s.t_start <= cur_end:
                cur_end = max(cur_end, s.t_end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = s.t_start, s.t_end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    # -- counters ----------------------------------------------------------------

    def counter(self, name: str, unit: str = "bytes") -> Counter:
        """Get (creating on first use) a named counter."""
        c = self.counters.get(name)
        if c is None:
            c = Counter(name, unit)
            self.counters[name] = c
        return c

    def add_count(self, name: str, t: float, delta: float, unit: str = "bytes") -> None:
        """Convenience: ``counter(name).add(t, delta)`` honouring ``enabled``."""
        if self.enabled:
            self.counter(name, unit).add(t, delta)

    def add_wave(
        self,
        counter: str,
        src: int,
        dsts: Sequence[int],
        times: Sequence[float],
        deltas: Sequence[float],
    ) -> None:
        """Record ``deltas[i]`` from ``src`` to ``dsts[i]`` at ``times[i]``.

        ``counter`` gets every sample, and its ``counter.devS->devD``
        per-pair entry the samples to that destination.  The per-pair
        samples go into ``(counter, src)``'s columns; the entry in
        :attr:`counters` is a read-only view of them, added when its pair
        first appears, in wave order, and before ``counter`` itself on a
        first wave.  Honours ``enabled``.
        """
        if not self.enabled:
            return
        key = (counter, src)
        cols = self._pair_columns.get(key)
        if cols is None:
            cols = self._pair_columns[key] = _PairColumns()
        seen = cols.dsts
        if not seen.issuperset(dsts):
            for dst in dsts:
                if dst not in seen:
                    seen.add(dst)
                    name = f"{counter}.dev{src}->dev{dst}"
                    self.counters[name] = _PairView(name, cols, dst)
        cols.times.extend(times)
        cols.dst.extend(dsts)
        cols.delta.extend(deltas)
        self.counter(counter).extend(times, deltas)

    # -- reset -------------------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans, counters and per-pair columns."""
        self.spans.clear()
        self.counters.clear()
        self._pair_columns.clear()
