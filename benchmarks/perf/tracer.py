"""Host-time spans recorded from outside the simulator.

A :class:`Tracer` wraps public entry points of ``repro`` (and a few named
private hot spots) for the duration of a ``with tracer.installed():``
block and restores the originals afterwards.  Two kinds of wrapped call:

* **spans** — coarse calls (a batch, a training step, a serving rate, a
  workload build, an engine loop, an all-to-all).  Each keeps its name,
  start, end, parent span and batch id; spans nested inside one batch
  share its id.
* **leaves** — calls made thousands of times per batch (one-sided puts,
  link transfers, profiler records, ``output_bytes_by_dst``).  They are
  aggregated as a call count plus self time under their parent span.

Self time is a call's duration minus the time its wrapped children cover.
Spans stay in memory; :meth:`Tracer.write_chrome` writes them at exit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span names whose calls open a new batch id (unless already inside one)
BATCH_SPANS = ("retrieval.forward", "train.step", "pipeline.batch", "serving.rate")


class Tracer:
    """In-memory span recorder with per-name running totals."""

    def __init__(self) -> None:
        #: recorded spans: [name, start_ns, end_ns, parent, batch, self_ns, leaves]
        self.spans: List[list] = []
        #: name -> [calls, self_ns, duration_ns], over spans and leaves alike
        self.totals: Dict[str, List[int]] = {}
        # Open calls, innermost last: [ns covered by their wrapped children].
        self._stack: List[list] = []
        self._open_spans: List[int] = []
        self._next_batch = 0
        self._batch = -1

    # -- recording ----------------------------------------------------------

    def _finish(self, name: str, frame: list, t0: int, t1: int) -> int:
        dur = t1 - t0
        self_ns = dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += self_ns
        tot[2] += dur
        return self_ns

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        leaf: bool,
        suffix: Optional[Callable[..., str]] = None,
    ) -> Callable:
        """``fn`` timed as a leaf or a span; ``suffix(*args, **kw)`` refines the name."""
        tracer = self

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                frame = [0]
                tracer._stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    tracer._stack.pop()
                    self_ns = tracer._finish(name, frame, t0, t1)
                    if tracer._open_spans:
                        leaves = tracer.spans[tracer._open_spans[-1]][6]
                        agg = leaves.get(name)
                        if agg is None:
                            leaves[name] = [1, self_ns]
                        else:
                            agg[0] += 1
                            agg[1] += self_ns

            return leaf_wrapper

        def span_wrapper(*args, **kwargs):
            label = f"{name}.{suffix(*args, **kwargs)}" if suffix else name
            opened_batch = name in BATCH_SPANS and tracer._batch < 0
            if opened_batch:
                tracer._batch = tracer._next_batch
                tracer._next_batch += 1
            parent = tracer._open_spans[-1] if tracer._open_spans else -1
            index = len(tracer.spans)
            record = [label, 0, 0, parent, tracer._batch, 0, {}]
            tracer.spans.append(record)
            frame = [0]
            tracer._stack.append(frame)
            tracer._open_spans.append(index)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer._open_spans.pop()
                record[1], record[2] = t0, t1
                record[5] = tracer._finish(name, frame, t0, t1)
                if opened_batch:
                    tracer._batch = -1

        return span_wrapper

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced entry point; restore the originals on exit."""
        patches = _patch_list(self)
        saved: List[Tuple[object, str, object]] = []
        try:
            for owner, attr, replacement in patches:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- queries ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        """Copy of the running totals (diff two snapshots for one round)."""
        return {name: tuple(tot) for name, tot in self.totals.items()}

    def write_chrome(self, path: Path) -> None:
        """Write the spans as a Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
        events = []
        for i, (label, t0, t1, parent, batch, self_ns, leaves) in enumerate(self.spans):
            events.append({
                "name": label,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": t0 / 1e3,
                "dur": (t1 - t0) / 1e3,
                "args": {
                    "id": i,
                    "parent": parent,
                    "batch": batch,
                    "self_ms": self_ns / 1e6,
                    "leaves": {
                        name: {"calls": calls, "self_ms": ns / 1e6}
                        for name, (calls, ns) in sorted(leaves.items())
                    },
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _backend(owner, lengths, backend=None) -> str:
    """Backend of a ``forward_timed`` / ``run_step`` call (its label suffix)."""
    return backend or owner.backend


def _patch_list(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every traced entry point."""
    from repro.comm.collective import CollectiveContext
    from repro.comm.pgas import PGASContext
    from repro.core import workload as workload_mod
    from repro.core.pipeline import DLRMInferencePipeline
    from repro.core.retrieval import DistributedEmbedding
    from repro.core.serving import InferenceServer
    from repro.core.train_pipeline import DLRMTrainingPipeline
    from repro.core.workload import DeviceWorkload
    from repro.dlrm.data import SyntheticDataGenerator
    from repro.simgpu import kernel as kernel_mod
    from repro.simgpu.engine import Engine
    from repro.simgpu.interconnect import Interconnect
    from repro.simgpu.profiler import Profiler

    def method(cls, attr, name, leaf, suffix=None):
        return (cls, attr, tracer.wrap(cls.__dict__[attr], name, leaf=leaf, suffix=suffix))

    dst_bytes = DeviceWorkload.__dict__["output_bytes_by_dst"]
    patches = [
        method(DistributedEmbedding, "forward_timed", "retrieval.forward", False, _backend),
        method(DLRMTrainingPipeline, "run_step", "train.step", False, _backend),
        method(DLRMInferencePipeline, "run_batch", "pipeline.batch", False),
        method(InferenceServer, "simulate", "serving.rate", False),
        method(DistributedEmbedding, "telemetry_report", "telemetry.report", False),
        method(DLRMInferencePipeline, "telemetry_report", "telemetry.report", False),
        method(Engine, "run_until_event", "engine.loop", False),
        method(CollectiveContext, "all_to_all_single", "comm.a2a", False),
        method(SyntheticDataGenerator, "lengths_batch", "data.gen", True),
        method(DeviceWorkload, "wave_dst_bytes", "workload.wave_dst", True),
        method(PGASContext, "put", "comm.put", True),
        method(Interconnect, "transfer", "interconnect.transfer", True),
        method(Profiler, "record_span", "profiler.record", True),
        method(Profiler, "add_count", "profiler.record", True),
        (DeviceWorkload, "output_bytes_by_dst",
         property(tracer.wrap(dst_bytes.fget, "workload.dst_bytes", leaf=True))),
        (kernel_mod, "_wave_fractions",
         tracer.wrap(kernel_mod._wave_fractions, "kernel.wave_model", leaf=True)),
    ]
    # build_device_workloads is imported by name into several modules:
    # patch it at every import site, not only where it is defined.
    build = workload_mod.build_device_workloads
    wrapped_build = tracer.wrap(build, "workload.build", leaf=False)
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("repro") and mod.__dict__.get("build_device_workloads") is build:
            patches.append((mod, "build_device_workloads", wrapped_build))
    return patches
