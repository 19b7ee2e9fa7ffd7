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

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..checks import check_finite

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Span", "Counter", "PairSamples", "Profiler", "TraceRef"]


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
    object each.  A counter of a :class:`Profiler` first runs the
    profiler's :attr:`~Profiler.before_read` callback.
    """

    def __init__(self, name: str, unit: str = "bytes", before_read: Optional["_Hook"] = None):
        self.name = name
        self.unit = unit
        self._times = array("d")
        self._deltas = array("d")
        # The first _in_order samples are known to be in time order.
        self._in_order = 0
        self._before_read = before_read

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
        if self._before_read is not None:
            self._before_read()
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

    def events(self) -> List[Tuple[float, float]]:
        """Time-sorted ``(time, delta)`` events (a copy; safe to iterate)."""
        self._ensure_sorted()
        return list(zip(self._times, self._deltas))

    def samples(self) -> Tuple[np.ndarray, np.ndarray]:
        """Time-sorted ``(times, deltas)`` arrays (copies; :meth:`events` as columns)."""
        self._ensure_sorted()
        return np.array(self._times, dtype=np.float64), np.array(self._deltas, dtype=np.float64)

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Cumulative value at each of ``times`` (inclusive)."""
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
        check_finite("Counter.sample", "t_start", t_start, zero_ok=True)
        check_finite("Counter.sample", "t_end", t_end, zero_ok=True)
        check_finite("Counter.sample", "period", period)
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


class _Hook:
    """A callback slot: calling it calls ``fn``, when one is set."""

    __slots__ = ("fn",)

    def __init__(self) -> None:
        self.fn: Optional[Callable[[], None]] = None

    def __call__(self) -> None:
        if self.fn is not None:
            self.fn()


class _PairColumns:
    """One counter's per-pair samples, as four parallel columns in booking order."""

    __slots__ = ("src", "dst", "times", "delta")

    def __init__(self) -> None:
        self.src = array("q")
        self.dst = array("q")
        self.times = array("d")
        self.delta = array("d")


class PairSamples(NamedTuple):
    """Every per-pair booking of one counter, in booking order."""

    src: np.ndarray  #: source device of each sample (int64)
    dst: np.ndarray  #: destination device of each sample (int64)
    times: np.ndarray  #: delivery instant (ns)
    deltas: np.ndarray  #: payload bytes

    def links(self) -> Tuple[List[Tuple[int, int]], np.ndarray, np.ndarray]:
        """``(links, rows, first)``: the distinct ``(src, dst)`` links in
        sorted order, each sample's index into ``links``, and each link's
        first sample."""
        width = int(self.dst.max()) + 1 if self.dst.size else 1
        keys, first, rows = np.unique(
            self.src * width + self.dst, return_index=True, return_inverse=True
        )
        return [(int(k) // width, int(k) % width) for k in keys], rows, first


class Profiler:
    """Collects spans and counters for one simulated run.

    ``before_read`` is called before every read of a counter, of the
    counter list or of the per-pair columns.  The fabric that books into
    the profiler sets it to book its deferred writes retired by now
    (:meth:`Interconnect.defer_run
    <repro.simgpu.interconnect.Interconnect.defer_run>`), so a read never
    misses a write that has landed.  ``engine`` is the clock that places
    deferred spans (:meth:`defer_span`).  Per-pair samples come in as
    lists (:meth:`add_wave`) or, from a settle's deferred runs booked as
    one array pass, as numpy columns (:meth:`add_columns`).
    """

    def __init__(self, engine: Optional["Engine"] = None) -> None:
        self.engine = engine
        self._spans: List[Span] = []
        # Deferred spans: a heap of (t_end, seq, exits, order, span).
        self._due: List[Tuple[float, int, int, int, Span]] = []
        self._order = count()
        self._counters: Dict[str, Counter] = {}
        # counter -> its per-pair sample columns.
        self._pairs: Dict[str, _PairColumns] = {}
        self.before_read = _Hook()
        self.enabled = True
        # Trace context stamped onto every span recorded while set.  None
        # (the default) keeps record_span's output identical to a repo
        # without observability — zero overhead when tracing is off.
        self.active_trace: Optional[TraceRef] = None

    # -- spans -------------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in recording order (a deferred one from
        its end on, :meth:`defer_span`)."""
        if self._due:
            self._record_due()
        return self._spans

    def record_span(
        self, name: str, category: str, device_id: int, t_start: float, t_end: float
    ) -> None:
        """Append a finished span (no-op when disabled)."""
        if not self.enabled:
            return
        if not t_start <= t_end:
            raise ValueError(
                f"span {name!r} ends before it starts: t_start={t_start!r}, t_end={t_end!r}"
            )
        self.spans.append(Span(name, category, device_id, t_start, t_end, self.active_trace))

    def defer_span(self, span: Span) -> None:
        """Record ``span`` at its end, as an entry scheduled now would (a
        no-op when disabled): now if it ends now, else before a span
        recorded, or a read of :attr:`spans`, after that entry would have
        run (``Engine._passed``).  A traced kernel launch records its span so."""
        if not self.enabled:
            return
        engine = self.engine
        if span.t_end > engine.now:
            heappush(self._due, (span.t_end, engine._seq, engine._exits, next(self._order), span))
        else:
            self.spans.append(span)

    def _record_due(self) -> None:
        """Append the deferred spans whose entries would have run by now."""
        engine, due = self.engine, self._due
        now = engine.now
        while due:
            t_end, seq, exits, _, span = due[0]
            if t_end > now or (t_end == now and not engine._passed(seq, exits)):
                return
            heappop(due)
            self._spans.append(span)

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

    @property
    def counters(self) -> Dict[str, Counter]:
        """Every named counter, in creation order."""
        self.before_read()
        return self._counters

    def counter(self, name: str, unit: str = "bytes") -> Counter:
        """Get (creating on first use) a named counter."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, unit, self.before_read)
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

        ``counter`` gets every sample, and its per-pair columns (read with
        :meth:`pair_samples`) the source and destination of each.  Honours
        ``enabled``.
        """
        if not self.enabled:
            return
        cols = self._pairs.get(counter)
        if cols is None:
            cols = self._pairs[counter] = _PairColumns()
        # array.fromlist takes only lists, and appends about twice as fast
        # as extend.
        dsts = dsts if type(dsts) is list else list(dsts)
        times = times if type(times) is list else list(times)
        deltas = deltas if type(deltas) is list else list(deltas)
        cols.src.fromlist([src] * len(dsts))
        cols.dst.fromlist(dsts)
        cols.times.fromlist(times)
        cols.delta.fromlist(deltas)
        c = self.counter(counter)
        c._times.fromlist(times)
        c._deltas.fromlist(deltas)

    def add_columns(
        self, counter: str, srcs: np.ndarray, dsts: np.ndarray, times: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        """:meth:`add_wave` with contiguous numpy columns (int64 ``srcs``
        and ``dsts``, one source per sample, float64 ``times`` and
        ``deltas``), appended as raw bytes: a settle's stacked deferred
        runs, with no per-sample list and no copy.  Honours ``enabled``."""
        if not self.enabled:
            return
        cols = self._pairs.get(counter)
        if cols is None:
            cols = self._pairs[counter] = _PairColumns()
        times, deltas = memoryview(times).cast("B"), memoryview(deltas).cast("B")
        cols.src.frombytes(memoryview(srcs).cast("B"))
        cols.dst.frombytes(memoryview(dsts).cast("B"))
        cols.times.frombytes(times)
        cols.delta.frombytes(deltas)
        c = self.counter(counter)
        c._times.frombytes(times)
        c._deltas.frombytes(deltas)

    def pair_samples(self, counter: str) -> PairSamples:
        """Every :meth:`add_wave` sample of ``counter``, in booking order (copies).

        Each link's samples are in the order its writes were issued.  A
        deferred run (:meth:`Interconnect.defer_run
        <repro.simgpu.interconnect.Interconnect.defer_run>`) is booked
        when its source is next touched or read, so across sources its
        samples can follow samples of other sources' later writes: sums
        per link (per source, per pair, per bin of one link) run in issue
        order, sums across links in booking order.
        """
        self.before_read()
        cols = self._pairs.get(counter) or _PairColumns()
        return PairSamples(
            np.array(cols.src, dtype=np.int64),
            np.array(cols.dst, dtype=np.int64),
            np.array(cols.times, dtype=np.float64),
            np.array(cols.delta, dtype=np.float64),
        )

    def pair_counters(self, counter: str) -> Dict[str, Counter]:
        """``counter``'s per-pair samples as plain counters, one per link.

        Named ``"{counter}.dev{src}->dev{dst}"`` and listed in the order
        each link was first booked.  Built on every call: for readers that
        want one link's series or total (report sections, Chrome tracks),
        not for a pass over every link.
        """
        samples = self.pair_samples(counter)
        links, rows, first = samples.links()
        order = np.argsort(rows, kind="stable")  # grouped by link, booking order kept
        counts = np.bincount(rows, minlength=len(links))
        starts = np.cumsum(counts) - counts
        out: Dict[str, Counter] = {}
        for k in np.argsort(first):
            mine = order[starts[k]:starts[k] + counts[k]]
            src, dst = links[k]
            name = f"{counter}.dev{src}->dev{dst}"
            c = out[name] = Counter(name)
            c.extend(samples.times[mine].tolist(), samples.deltas[mine].tolist())
        return out

    # -- reset -------------------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans (not deferred ones yet to end), counters
        and per-pair columns."""
        self.spans.clear()
        self._counters.clear()
        self._pairs.clear()
