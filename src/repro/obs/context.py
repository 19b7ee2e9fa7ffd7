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
* :meth:`Cluster.then <repro.simgpu.cluster.Cluster.then>` — registers a
  host-program continuation and restores the ref that was active when it
  was registered.  Used for serving, where multiple batches interleave on
  one engine: only work performed in the batch's own continuations is
  attributed, and spans recorded from shared engine callbacks (kernel
  ends, link bookings) stay unattributed by design — they can serve
  several batches at once.

Zero overhead when disabled: with ``obs`` off nothing installs a scope or
wraps a continuation, ``active_trace`` stays ``None``, and every recorded
span is bit-identical to the pre-observability repo.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..simgpu.profiler import Profiler, TraceRef

__all__ = ["TraceSpec", "trace_scope"]


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
