"""Skew-aware online resharding: the ``"+reshard"`` backends.

:class:`ReshardRetrieval` wraps either base backend (``pgas`` or
``baseline``) with a closed-loop load balancer over table placement:

* **observe** — after every batch the wrapper feeds the per-table
  retrieval bytes (recovered exactly from the workloads'
  block segments via :func:`~repro.core.workload.table_segments`) into a
  sliding-window :class:`~repro.reshard.tracker.LoadTracker`;
* **plan** — every ``check_interval_batches`` batches the
  :class:`~repro.reshard.planner.ReshardPlanner` compares the windowed
  max/mean per-device traffic against the spec threshold and, when the
  placement is skewed, emits a bounded
  :class:`~repro.reshard.planner.MigrationPlan`;
* **migrate** — the :class:`~repro.reshard.executor.ReshardExecutor`
  streams each moving table's weights over the simulated interconnect in
  background copy streams, chunked and paced to a bandwidth share so
  foreground batches keep the rest of the link;
* **cutover** — a batch snapshots the ownership map when its host
  program starts, and a migrating table flips owner only when its last chunk has
  landed, so **no batch ever observes a half-migrated table**; weights
  are aliased by name and outputs partition by sample, so functional
  outputs are bit-identical before, during, and after any migration.

Under uniform traffic the planner provably proposes nothing (max/mean is
~1.0, below any legal threshold), no counter is stamped and no process is
spawned, so zero-skew runs are event-for-event identical to the bare
base backend.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.baseline import BatchStart, PhaseTiming
from ..core.functional import functional_forward
from ..core.retrieval import BaseRetrieval
from ..core.sharding import TableWiseSharding
from ..core.workload import DeviceWorkload, rehome_workloads, table_segments
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from .executor import (
    ADVISORIES_COUNTER,
    MOVES_COUNTER,
    PLANS_COUNTER,
    ReshardExecutor,
)
from .planner import MigrationPlan, ReshardPlanner, TableMove
from .spec import ReshardSpec
from .tracker import LoadTracker

__all__ = ["ReshardRetrieval"]


class ReshardRetrieval(BaseRetrieval):
    """A base retrieval backend with skew-aware online table migration."""

    suffix = "reshard"
    config_field = "reshard"
    spec_type = ReshardSpec
    descriptions = {
        "pgas": "PGAS retrieval with skew-aware online table migration and "
                "serve-from-old-owner cutover",
        "baseline": "collective retrieval with skew-aware online table migration and "
                    "serve-from-old-owner cutover",
    }

    def __init__(self, cluster: Cluster, plan: TableWiseSharding,
                 spec: Optional[ReshardSpec] = None, *,
                 weight_buffers: Optional[Dict[str, object]] = None, **kwargs):
        """``weight_buffers`` is the host's live table → weight-buffer map,
        which migration cutover updates (see :class:`ReshardExecutor`)."""
        super().__init__(cluster, plan, spec, **kwargs)
        self._static_owners: Dict[str, int] = {
            cfg.name: plan.owner_of(cfg.name) for cfg in plan.table_configs
        }
        #: current serving ownership; only cutover mutates it
        self._owners: Dict[str, int] = dict(self._static_owners)
        self._row_bytes = {cfg.name: cfg.row_bytes for cfg in plan.table_configs}
        self.tracker = LoadTracker(self.spec.window_batches)
        self.planner = ReshardPlanner(plan, self.spec)
        self.executor = ReshardExecutor(
            cluster, plan, self.spec, weight_buffers=weight_buffers
        )
        #: optional hook returning per-table cache hit rates in ``[0, 1]``
        #: (the cache layer's view); tracked traffic shrinks accordingly.
        self.hit_rates_fn: Optional[Callable[[], Mapping[str, float]]] = None
        #: most recent planner verdict (None until the first planning round)
        self.last_plan: Optional[MigrationPlan] = None

    @classmethod
    def from_host(cls, host, base: str) -> "ReshardRetrieval":
        """Bound to ``host``; cutover updates the host's weight buffers."""
        return super().from_host(host, base, weight_buffers=host.weight_buffer_map())

    # -- ownership ---------------------------------------------------------------

    @property
    def owners(self) -> Dict[str, int]:
        """Current serving ownership, table name → device (a copy)."""
        return dict(self._owners)

    def moved_tables(self) -> Dict[str, int]:
        """Tables serving away from their static placement, name → device."""
        return {
            name: dev
            for name, dev in self._owners.items()
            if dev != self._static_owners[name]
        }

    def _on_cutover(self, move: TableMove) -> None:
        self._owners[move.table_name] = move.dst

    # -- timed path --------------------------------------------------------------

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """One batch's host program under the current ownership,
        observed on completion — composable into larger host programs.
        Ownership is snapshotted when the batch starts: a cutover that
        fires mid-batch (in simulated time) only affects the *next*
        batch.  While ownership still matches the static plan this is the
        wrapped backend's program, event for event."""
        base_process = super().batch_process

        def start() -> Event:
            owners = dict(self._owners)
            served = workloads
            if owners != self._static_owners:
                served = rehome_workloads(self.table_plan, list(workloads), owners)
            done = base_process(cluster, served, timing, stream_suffix=stream_suffix)()
            cluster.then(done, lambda: self._after_batch(list(workloads)))
            return done

        return start

    # -- observe / plan loop -----------------------------------------------------

    def _after_batch(self, workloads: List[DeviceWorkload]) -> None:
        """Feed the tracker and, on planning rounds, maybe start migrations."""
        segments = table_segments(self.table_plan, workloads)
        table_bytes = {
            name: float(seg[2]) * self._row_bytes[name]
            for name, seg in segments.items()
        }
        hit_rates = self.hit_rates_fn() if self.hit_rates_fn is not None else None
        self.tracker.observe(table_bytes, hit_rates)
        if self.tracker.batches_observed % self.spec.check_interval_batches != 0:
            return
        if self.tracker.window_fill < self.spec.min_batches:
            return
        self._plan_round()

    def _plan_round(self) -> None:
        """One planning round: propose, stamp, submit migration streams."""
        G = self.table_plan.n_devices
        free = [self.cluster.device(d).memory.free_bytes for d in range(G)]
        plan = self.planner.propose(
            self.tracker.table_traffic(),
            self._owners,
            free,
            frozen=tuple(self.executor.in_flight),
        )
        self.last_plan = plan
        if plan.empty and not plan.advisories:
            return
        # Only rounds that actually act stamp counters, so balanced runs
        # stay byte-identical to the bare base backend.
        if plan.advisories:
            self._count(ADVISORIES_COUNTER, len(plan.advisories), "advisories")
        if plan.empty:
            return
        started = self.executor.submit(plan, self._on_cutover)
        if not started:
            return
        self._count(PLANS_COUNTER, 1.0, "plans")
        self._count(MOVES_COUNTER, len(started), "moves")

    def wait_for_migrations(self, limit_ns: Optional[float] = None) -> None:
        """Run the simulated clock until in-flight migrations cut over."""
        self.executor.wait_for_migrations(limit_ns)

    # -- functional path ---------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward honouring the current serving ownership.

        A migrated table's weights alias the original tensor by name, and
        outputs partition by sample, so results are bit-identical to the
        static-plan reference regardless of how many tables have moved.
        """
        moved = self._owners != self._static_owners
        sharded = self._materialized(dict(self._owners) if moved else None)
        return functional_forward(self.base_name, sharded, batch)
