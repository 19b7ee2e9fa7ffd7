"""Trace context propagation for requests and dispatched batches.

The simulator already records spans into one shared
:class:`~repro.simgpu.profiler.Profiler`; what it lacked was *attribution* —
which request or batch a span belongs to.  This module adds it without
touching the engine:

* :class:`TraceSpec` — the user-facing switch.  Attach one to a
  :class:`~repro.core.runspec.RunSpec` (or pass ``features=FeatureSpec(obs=...)``
  to ``DistributedEmbedding`` / ``DLRMInferencePipeline``) and every forward
  call / dispatched serving batch gets a :class:`~repro.simgpu.profiler.TraceRef`.
* :func:`trace_scope` — context manager that sets ``profiler.active_trace``
  for the dynamic extent of a block.  Used around synchronous
  ``cluster.run(...)`` calls, where *everything* the engine executes (kernel
  waves, link transfers, phase spans) belongs to the one in-flight batch.
* :func:`traced` — generator wrapper that re-arms the trace ref around every
  ``send``/``throw`` into a process generator.  Used for serving, where
  multiple batches interleave on one engine: only work performed inside the
  batch's own generator frames is attributed, and spans recorded from engine
  callbacks (shared links, device streams) stay unattributed by design —
  they can serve several batches at once.

Zero overhead when disabled: with ``obs`` off nothing installs a scope or a
wrapper, ``active_trace`` stays ``None``, and every recorded span is
bit-identical to the pre-observability repo.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Generator, Iterator, Optional

from ..simgpu.profiler import Profiler, TraceRef

__all__ = ["TraceSpec", "trace_scope", "traced"]


@dataclass(frozen=True)
class TraceSpec:
    """Observability configuration for a run.

    ``enabled``
        Master switch.  ``TraceSpec(enabled=False)`` is configured-but-off:
        the run behaves bit-identically to one with no spec at all.
    ``trace_id``
        Identifier for this run's trace; batches within the run are
        numbered from 0.  Distinct concurrent runs can pick distinct ids so
        merged traces stay disambiguated.
    """

    enabled: bool = True
    trace_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError(f"TraceSpec.enabled must be a bool, got {self.enabled!r}")
        if not isinstance(self.trace_id, int) or isinstance(self.trace_id, bool):
            raise ValueError(f"TraceSpec.trace_id must be an int, got {self.trace_id!r}")
        if self.trace_id < 0:
            raise ValueError(f"TraceSpec.trace_id must be >= 0, got {self.trace_id}")


@contextmanager
def trace_scope(profiler: Optional[Profiler], ref: Optional[TraceRef]) -> Iterator[None]:
    """Set ``profiler.active_trace = ref`` for the duration of the block.

    Restores the previous context on exit (scopes nest).  A ``None``
    profiler or ref makes this a no-op, so callers don't need to branch.
    """
    if profiler is None or ref is None:
        yield
        return
    prev = profiler.active_trace
    profiler.active_trace = ref
    try:
        yield
    finally:
        profiler.active_trace = prev


def traced(
    gen: Generator, profiler: Optional[Profiler], ref: Optional[TraceRef]
) -> Generator:
    """Wrap a process generator so its frames run under ``ref``.

    The simulation engine drives process generators with ``send`` from
    scheduled callbacks, so a plain ``with trace_scope(...)`` around the
    *launch* would leak the context to unrelated work (or lose it entirely).
    This wrapper re-arms ``active_trace`` around each resumption and restores
    the previous value before yielding control back to the engine — several
    concurrently traced batches therefore never see each other's context.
    """
    if profiler is None or ref is None:
        return gen

    def _traced() -> Generator:
        send_value = None
        while True:
            prev = profiler.active_trace
            profiler.active_trace = ref
            try:
                item = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                profiler.active_trace = prev
            send_value = yield item

    return _traced()
