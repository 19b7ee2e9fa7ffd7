"""Migration execution: stream moving shards over the real interconnect.

The :class:`ReshardExecutor` turns a :class:`~repro.reshard.planner.
MigrationPlan` into background copy streams, one per table move, with
the chunked, bandwidth-share-paced discipline the replication recovery
stream also uses (:meth:`~repro.simgpu.interconnect.Interconnect.paced_copy`): each chunk
occupies the link for its real simulated duration (so migration bytes
compete with, and are visible next to, foreground retrieval traffic in
Chrome traces), then idles long enough that the stream averages
:data:`MIGRATION_BANDWIDTH_SHARE` of the link.

Cutover protocol
----------------
The destination's :class:`~repro.simgpu.memory.MemoryPool` buffer is
reserved *at submit time* (so the space is committed before any bytes
move; a destination without room rejects the move).  While the stream is
in flight the table keeps serving from its old owner — batches snapshot
ownership at batch start, so no batch ever observes a half-migrated
table.  Only when the last chunk lands does the executor invoke the
cutover callback (flipping the serving owner) and free the old owner's
weight buffer.  Functional outputs are bit-identical throughout: weights
are aliased by table name, and the output tensors partition by *sample*,
not by table placement.

Counter names are module constants (also read by
``repro.telemetry.metrics`` — keep the ``reshard.`` prefix stable).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..core.sharding import TableWiseSharding
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.memory import Buffer, OutOfDeviceMemory
from ..simgpu.stream import join
from ..simgpu.units import MiB
from .planner import MigrationPlan, TableMove
from .spec import ReshardSpec

__all__ = [
    "ADVISORIES_COUNTER",
    "MIGRATIONS_COUNTER",
    "MIGRATION_BYTES_COUNTER",
    "MIGRATION_NS_COUNTER",
    "MOVES_COUNTER",
    "PLANS_COUNTER",
    "ReshardExecutor",
    "SPAN_CATEGORY",
]

#: migration plans adopted (stamped once per non-empty plan)
PLANS_COUNTER = "reshard.plans"
#: table moves submitted for execution
MOVES_COUNTER = "reshard.moves"
#: migration bytes streamed (per-link variants appear in Chrome traces)
MIGRATION_BYTES_COUNTER = "reshard.migration_bytes"
#: table migrations completed (cutover reached)
MIGRATIONS_COUNTER = "reshard.migrations"
#: per-migration stream duration, ns
MIGRATION_NS_COUNTER = "reshard.migration_ns"
#: row-split advisories emitted by the planner
ADVISORIES_COUNTER = "reshard.advisories"
#: profiler span category of migration extents
SPAN_CATEGORY = "reshard"

#: Fraction of link bandwidth one migration stream may consume: chunks
#: pace themselves so foreground retrieval traffic keeps the rest, exactly
#: like replication recovery
MIGRATION_BANDWIDTH_SHARE = 0.25
#: Granularity of migration transfers (the pacing quantum)
MIGRATION_CHUNK_BYTES = 4 * MiB


class ReshardExecutor:
    """Background migration streams with reserve-then-cutover semantics."""

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[ReshardSpec] = None,
        *,
        weight_buffers: Optional[Dict[str, Buffer]] = None,
    ):
        """``weight_buffers`` optionally maps table name → the owner's
        current weight :class:`~repro.simgpu.memory.Buffer`; when given,
        cutover frees the old owner's buffer so migrated capacity is
        actually returned to its pool (standalone/test use may omit it,
        leaving the stale copy accounted)."""
        self.cluster = cluster
        self.table_plan = plan
        self.spec = spec or ReshardSpec()
        self._cfg = {cfg.name: cfg for cfg in plan.table_configs}
        self._weight_buffers = weight_buffers
        self._dst_buffers: Dict[str, Buffer] = {}
        self._streams: List[Event] = []
        self.in_flight: set = set()
        self.completed: List[TableMove] = []
        self.bytes_streamed = 0

    def submit(
        self,
        plan: MigrationPlan,
        on_cutover: Callable[[TableMove], None],
    ) -> List[TableMove]:
        """Start one background stream per move; returns the moves begun.

        Destination buffers are reserved immediately; a move whose
        destination pool cannot hold the table is skipped (the planner
        checks capacity too, but foreground allocations may have landed
        since it looked).  ``on_cutover(move)`` runs on the engine clock
        the instant a table's last chunk arrives — that is the only
        point where serving ownership may change.
        """
        started: List[TableMove] = []
        for move in plan.moves:
            if move.table_name in self.in_flight:
                raise ValueError(f"table {move.table_name!r} is already migrating")
            cfg = self._cfg[move.table_name]
            try:
                self._dst_buffers[move.table_name] = self.cluster.device(
                    move.dst
                ).memory.alloc(
                    (cfg.num_rows, cfg.dim),
                    cfg.dtype,
                    materialize=False,
                    label=f"weights.{cfg.name}",
                )
            except OutOfDeviceMemory:
                continue
            self.in_flight.add(move.table_name)
            self._streams.append(self._migrate(move, on_cutover))
            started.append(move)
        return started

    def _migrate(self, move: TableMove, on_cutover: Callable[[TableMove], None]) -> Event:
        """One table's paced stream, then atomic cutover; returns the event
        that fires then."""
        engine = self.cluster.engine
        done = engine.event(f"reshard.migrate.{move.table_name}")
        t0 = engine.now

        def landed() -> None:
            now = engine.now
            prof = self.cluster.profiler
            prof.record_span(
                f"reshard.migrate.{move.table_name}.dev{move.src}->dev{move.dst}",
                SPAN_CATEGORY,
                move.src,
                t0,
                now,
            )
            prof.add_count(MIGRATIONS_COUNTER, now, 1.0, unit="migrations")
            prof.add_count(MIGRATION_NS_COUNTER, now, now - t0, unit="ns")
            self._cutover(move)
            on_cutover(move)
            done.succeed()

        # A background stream: it starts one entry later, outside the batch
        # whose planning round submitted it.
        engine.call_at(t0, partial(
            self.cluster.interconnect.paced_copy, move.src, move.dst, move.nbytes,
            chunk_bytes=MIGRATION_CHUNK_BYTES,
            share=MIGRATION_BANDWIDTH_SHARE,
            counter=MIGRATION_BYTES_COUNTER,
            on_done=landed,
        ))
        return done

    def _cutover(self, move: TableMove) -> None:
        """Retire the old owner's copy; the destination buffer takes over."""
        self.in_flight.discard(move.table_name)
        self.completed.append(move)
        self.bytes_streamed += move.nbytes
        dst_buf = self._dst_buffers.pop(move.table_name)
        if self._weight_buffers is not None:
            old = self._weight_buffers.get(move.table_name)
            if old is not None and not old.freed:
                self.cluster.device(old.device_id).memory.free(old)
            self._weight_buffers[move.table_name] = dst_buf

    def wait_for_migrations(self, limit_ns: Optional[float] = None) -> None:
        """Run the simulated clock forward until pending streams finish.

        Migration streams outlive the batch whose planning round started
        them; call this (e.g. at the end of a benchmark) to let them
        drain.  No-op when nothing is migrating.
        """
        engine = self.cluster.engine
        pending = [done for done in self._streams if not done.triggered]
        if not pending:
            return
        engine.run_until_event(join(engine, pending), limit=limit_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReshardExecutor in_flight={sorted(self.in_flight)} "
            f"completed={len(self.completed)}>"
        )
