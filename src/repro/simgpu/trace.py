"""Timeline export: Chrome trace JSON and span summaries.

``chrome_trace`` converts a :class:`~repro.simgpu.profiler.Profiler`'s
spans and counters into the Trace Event Format consumed by
``chrome://tracing`` / Perfetto — one row per device (plus one per named
category for device-less spans like collectives), counters as counter
events.  Handy for eyeballing exactly how the PGAS kernel's waves overlap
the interconnect traffic.

Spans carrying a :class:`~repro.simgpu.profiler.TraceRef` additionally get
Perfetto *flow events* (``s``/``t``/``f``) so arrows connect one request's
batch across devices and rows.

Event ids live in disjoint pid namespaces so merged traces never collide:
device spans use their device id, host/fabric spans :data:`HOST_PID`,
telemetry gauge tracks pid 9998 (see :mod:`repro.telemetry.export`), fault
instants :data:`FAULT_PID`, and raw counter tracks :data:`COUNTER_PID`.
Flow-event ids start at :data:`FLOW_ID_BASE`, far above any pid.

``summarize_spans`` renders the per-category totals as a text table for
quick terminal inspection.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .profiler import Profiler, Span
from .units import to_us

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "summarize_spans",
    "HOST_PID",
    "FAULT_PID",
    "COUNTER_PID",
    "FLOW_ID_BASE",
]

#: pid of host/fabric span rows (device-less spans, device_id == -1)
HOST_PID = 9999
#: pid of fault instant markers (was shared with span rows pre-v4)
FAULT_PID = 9997
#: pid of raw profiler counter tracks (was 9999, colliding with host spans;
#: telemetry's derived gauges keep their own pid 9998)
COUNTER_PID = 9996
#: first flow-event id; trace-ref groups count up from here, far above pids
FLOW_ID_BASE = 0x100000


def _span_pid(span: Span) -> int:
    return span.device_id if span.device_id >= 0 else HOST_PID


def _span_event(span: Span) -> Dict[str, Any]:
    """One complete ('X') trace event; times in microseconds."""
    return {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": to_us(span.t_start),
        "dur": to_us(span.duration),
        "pid": _span_pid(span),
        "tid": 0,
        "args": {"category": span.category},
    }


def _flow_events(spans: List[Span]) -> List[Dict[str, Any]]:
    """Perfetto flow arrows threading each trace ref through its spans.

    One flow per (trace_id, batch_id): a start ('s') at the first span, a
    step ('t') at each middle one, and an end ('f', binding-point "e") at
    the last — each bound to its span's slice by matching pid/tid and the
    slice's start timestamp.  Span order within a flow is chronological with
    deterministic tie-breaks, so identical profiles yield identical arrows.
    """
    groups: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span.trace is not None:
            groups.setdefault((span.trace.trace_id, span.trace.batch_id), []).append(span)

    events: List[Dict[str, Any]] = []
    for flow_idx, key in enumerate(sorted(groups)):
        trace_id, batch_id = key
        chain = sorted(
            groups[key], key=lambda s: (s.t_start, s.t_end, s.device_id, s.name)
        )
        if len(chain) < 2:
            continue  # an arrow needs two endpoints
        flow_id = FLOW_ID_BASE + flow_idx
        name = f"trace{trace_id}.batch{batch_id}"
        for i, span in enumerate(chain):
            ev = {
                "name": name,
                "cat": "trace",
                "id": flow_id,
                "ts": to_us(span.t_start),
                "pid": _span_pid(span),
                "tid": 0,
            }
            if i == 0:
                ev["ph"] = "s"
            elif i == len(chain) - 1:
                ev["ph"] = "f"
                ev["bp"] = "e"
            else:
                ev["ph"] = "t"
            events.append(ev)
    return events


def chrome_trace(
    profiler: Profiler,
    *,
    counters: bool = True,
    counter_period_ns: float = 10_000.0,
    flows: bool = True,
) -> Dict[str, Any]:
    """Build a Trace-Event-Format dict from recorded spans and counters."""
    events: List[Dict[str, Any]] = []
    device_ids = set()
    has_faults = False
    for span in profiler.spans:
        events.append(_span_event(span))
        device_ids.add(_span_pid(span))
        if span.category == "fault":
            # Fault windows also land as instant events, so Perfetto marks
            # the window edge even when the span row is collapsed.  They
            # live on their own pid so their ids never collide with span
            # rows or counter tracks in a merged trace.
            has_faults = True
            events.append(
                {"name": span.name, "cat": "fault", "ph": "i", "s": "g",
                 "ts": to_us(span.t_start), "pid": FAULT_PID, "tid": 0}
            )

    if flows:
        events.extend(_flow_events(profiler.spans))

    # Name metadata rows, one per trace pid.
    for pid in sorted(device_ids):
        name = f"GPU {pid}" if pid != HOST_PID else "host / fabric"
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
    if has_faults:
        events.append(
            {"name": "process_name", "ph": "M", "pid": FAULT_PID, "tid": 0,
             "args": {"name": "faults"}}
        )

    emitted_counters = False
    if counters and profiler.counters:
        t_end = max((s.t_end for s in profiler.spans), default=0.0)
        for base, counter in profiler.counters.items():
            # Keep the bare totals and the name-spaced per-device cache,
            # fault, and serving counters: Perfetto shows hit rate / fault
            # activity / queue depth alongside the comm-volume row.  A
            # name-spaced counter booked on links (rerouted bytes) is
            # followed by one row per link; the bare comm totals' per-link
            # rows would be too many.
            if "." in base and not base.startswith(("cache.", "faults.", "serving.")):
                continue
            if t_end <= 0:
                continue
            emitted_counters = True
            tracks = {base: counter}
            if "." in base:
                tracks.update(profiler.pair_counters(base))
            for cname, track in tracks.items():
                times, vals = track.sample(0.0, t_end, counter_period_ns)
                for t, v in zip(times, vals):
                    events.append(
                        {"name": cname, "ph": "C", "ts": to_us(t), "pid": COUNTER_PID,
                         "args": {cname: float(v)}}
                    )
    if emitted_counters:
        events.append(
            {"name": "process_name", "ph": "M", "pid": COUNTER_PID, "tid": 0,
             "args": {"name": "counters"}}
        )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(profiler: Profiler, path: str, **kwargs: Any) -> None:
    """Serialise :func:`chrome_trace` to a file for chrome://tracing."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(profiler, **kwargs), fh)


def summarize_spans(profiler: Profiler) -> str:
    """Per-category totals (sum and merged wall time) as a text table.

    Each category gets a ``total`` row (all devices merged); categories
    whose spans land on more than one device also get per-device rows, so
    concurrent per-device work keeps its attribution instead of collapsing
    into one aggregate.  Device ``-1`` (host / fabric spans) prints as
    ``host``.
    """
    categories = sorted({s.category for s in profiler.spans})
    lines = [
        f"{'category':16s} {'device':>6s} {'spans':>6s} "
        f"{'sum (us)':>12s} {'wall (us)':>12s}"
    ]

    def row(cat: str, dev_label: str, spans: list, sum_ns: float, wall_ns: float) -> str:
        return (
            f"{cat:16s} {dev_label:>6s} {len(spans):6d} "
            f"{to_us(sum_ns):12.1f} {to_us(wall_ns):12.1f}"
        )

    for cat in categories:
        spans = profiler.spans_by_category(cat)
        lines.append(
            row(cat, "total", spans,
                profiler.category_time(cat), profiler.category_wall_time(cat))
        )
        devices = sorted({s.device_id for s in spans})
        if len(devices) > 1:
            for d in devices:
                dspans = profiler.spans_by_category(cat, device_id=d)
                label = f"dev{d}" if d >= 0 else "host"
                lines.append(
                    row("", label, dspans,
                        profiler.category_time(cat, d),
                        profiler.category_wall_time(cat, d))
                )
    return "\n".join(lines)
