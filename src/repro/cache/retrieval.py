"""Cache-aware distributed retrieval: the ``"+cache"`` backends.

:class:`CachedRetrieval` wraps either base backend (``pgas`` or
``baseline``) with per-device :class:`~repro.cache.hotrow.HotRowCache`
instances.  Each batch runs one cache pass (:meth:`plan_batch`) that walks
every device's remote lookups in order, classifying hits and installing
misses in LRU order, and produces a :class:`CacheBatchPlan` consumed by both
the timed and the functional path — a single pass, so cache state mutates
exactly once per batch.

Communication model (partial-sum serving)
-----------------------------------------
The owner of table *t* pools what the destination cannot: for a remote
``(sample, t)`` bag it sends **one** partial pooled vector unless *every*
index of the bag hit the destination's cache — fully covered non-empty
bags move zero wire bytes, and the destination pools its cached rows with
a local gather instead.  Empty bags keep their (zero-lookup) output slot
exactly as the uncached backends model it.  Consequences:

* a capacity-0 cache reproduces the uncached per-device workloads
  bit-for-bit, so ``"pgas+cache"`` with no capacity times identically to
  ``"pgas"``;
* total lookup work is conserved (each row is still read exactly once,
  just on the destination for hits), while wire bytes, NVLink drag, and
  unpack volume all shrink with full-bag coverage.

The timed path expresses this as adjusted
:class:`~repro.core.workload.DeviceWorkload` objects — the owner's blocks
keep only miss lookups and only non-covered samples' destination bytes,
and the destination gains *gather blocks* whose output stays local — then
delegates to the unmodified base backend.  The functional path gathers
each lookup's vector (hits from the cache replica, misses from the
owner's weights) in original index order and pools with the same
``segment_pool`` kernel, which keeps outputs bit-identical to the
uncached backends.  No weight update reaches a cached backend (training
runs only the uncached ones), so a replica never goes stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.baseline import BatchStart, PhaseTiming
from ..core.calibration import EMB_SAMPLES_PER_BLOCK
from ..core.retrieval import BaseRetrieval
from ..core.sharding import TableWiseSharding, minibatch_bounds, sample_owner
from ..core.workload import DeviceWorkload
from ..dlrm.batch import SparseBatch
from ..dlrm.embedding import segment_pool
from ..dlrm.hashing import hash_indices
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from .hotrow import CacheConfig, CacheStats, HotRowCache, remote_row_caches

__all__ = ["CacheBatchPlan", "CachedRetrieval", "HIT_COUNTER", "MISS_COUNTER", "EVICT_COUNTER"]

#: Profiler counter name prefixes (suffixed ``.dev{g}`` per device).
HIT_COUNTER = "cache.hits"
MISS_COUNTER = "cache.misses"
EVICT_COUNTER = "cache.evictions"


@dataclass
class CacheBatchPlan:
    """Everything one batch's cache pass decided.

    ``workloads`` are the cache-adjusted per-device simulator workloads;
    ``hit_values`` maps ``(device, feature)`` to the gathered ``(nnz, d)``
    vectors of that device's mini-batch slice (present only when the
    wrapper is materialised); ``stats`` holds per-device counter deltas
    for this batch.
    """

    batch_size: int
    row_bytes: int
    workloads: List[DeviceWorkload]
    hit_values: Dict[Tuple[int, str], np.ndarray] = field(default_factory=dict)
    stats: List[CacheStats] = field(default_factory=list)
    saved_vectors: int = 0  #: fully cache-covered non-empty remote bags

    @property
    def remote_bytes(self) -> float:
        """Wire bytes the adjusted workloads still move."""
        return float(sum(wl.remote_output_bytes for wl in self.workloads))

    @property
    def hits(self) -> int:
        """Cache hits across all devices this batch."""
        return sum(s.hits for s in self.stats)

    @property
    def misses(self) -> int:
        """Cache misses across all devices this batch."""
        return sum(s.misses for s in self.stats)

    @property
    def hit_rate(self) -> float:
        """Hits over remote lookups this batch."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedRetrieval(BaseRetrieval):
    """A base retrieval backend fronted by per-device hot-row caches.

    All tables must share one ``(dim, dtype)`` (one cache slab per device).
    """

    suffix = "cache"
    config_field = "cache"
    spec_type = CacheConfig
    requires_indices = True
    descriptions = {
        "pgas": "PGAS retrieval with the hot-row cache short-circuiting remote reads",
        "baseline": "collective retrieval with the hot-row cache shrinking the all-to-all",
    }

    def __init__(self, cluster: Cluster, plan: TableWiseSharding,
                 config: Optional[CacheConfig] = None, **kwargs):
        super().__init__(cluster, plan, config, **kwargs)

    def _attach(self) -> None:
        row_bytes = {t.row_bytes for t in self.table_plan.table_configs}
        if len(row_bytes) != 1:
            raise ValueError("cached retrieval needs tables sharing one (dim, dtype)")
        self.config: CacheConfig = self.spec
        self._row_bytes = row_bytes.pop()
        self.caches: List[HotRowCache] = remote_row_caches(
            self.cluster, self.table_plan, self.config,
            materialize=self.sharded is not None,
        )

    # -- queries -----------------------------------------------------------------

    def stats(self) -> CacheStats:
        """Aggregated lifetime counters across every device cache."""
        total = CacheStats()
        for cache in self.caches:
            total.add(cache.stats)
        return total

    # -- the per-batch cache pass -------------------------------------------------

    def plan_batch(self, batch: SparseBatch) -> CacheBatchPlan:
        """Run the cache pass for one batch and derive adjusted workloads.

        This mutates cache state (hits refresh recency, misses install) —
        call it once per batch and reuse the plan for both the timed and
        the functional path.
        """
        if batch is None:
            raise ValueError("cached backends need the SparseBatch (index values)")
        plan = self.table_plan
        G = plan.n_devices
        B = batch.batch_size
        bounds = minibatch_bounds(B, G)
        owners = sample_owner(B, G)
        spb = EMB_SAMPLES_PER_BLOCK
        n_chunks = math.ceil(B / spb)
        chunk_ids = np.arange(B) // spb

        before = [cache.stats.copy() for cache in self.caches]
        hit_values: Dict[Tuple[int, str], np.ndarray] = {}
        adj_lengths: Dict[str, np.ndarray] = {}
        sent: Dict[str, np.ndarray] = {}
        hits_per_sample: Dict[str, np.ndarray] = {}
        saved_vectors = 0

        for t in plan.table_configs:
            fld = batch.field(t.name)
            lengths = fld.lengths
            owner = plan.owner_of(t.name)
            adj = lengths.astype(np.int64).copy()
            snt = np.ones(B, dtype=bool)
            hps = np.zeros(B, dtype=np.int64)
            source = self._weights_of(t.name)
            for g in range(G):
                if g == owner:
                    continue
                lo, hi = bounds[g]
                sl = fld.slice_samples(lo, hi)
                rows = hash_indices(sl.indices, t.num_rows)
                acc = self.caches[g].lookup_rows(t.name, rows, source=source)
                if acc.values is not None:
                    hit_values[(g, t.name)] = acc.values
                h, covered = acc.coverage(lengths[lo:hi])
                hps[lo:hi] = h
                adj[lo:hi] = lengths[lo:hi] - h
                snt[lo:hi] = ~covered
                saved_vectors += int(np.count_nonzero(covered))
            adj_lengths[t.name] = adj
            sent[t.name] = snt
            hits_per_sample[t.name] = hps

        workloads = self._build_workloads(
            B, G, bounds, owners, chunk_ids, n_chunks, spb,
            adj_lengths, sent, hits_per_sample,
        )
        deltas = [cache.stats.delta(b) for cache, b in zip(self.caches, before)]
        return CacheBatchPlan(
            batch_size=B,
            row_bytes=self._row_bytes,
            workloads=workloads,
            hit_values=hit_values,
            stats=deltas,
            saved_vectors=saved_vectors,
        )

    def _build_workloads(
        self, B, G, bounds, owners, chunk_ids, n_chunks, spb,
        adj_lengths, sent, hits_per_sample,
    ) -> List[DeviceWorkload]:
        """Cache-adjusted per-device workloads (serve + gather components).

        Mirrors :func:`~repro.core.workload.build_device_workloads` block
        layout exactly when nothing is cached (the zero-capacity
        invariant): per local table, one block per sample chunk whose
        weight is the (miss) lookup count and whose destination bytes count
        only samples whose partial vector is still sent.  Hits reappear as
        *gather blocks* on the destination device — same grid geometry,
        output bytes in the device's own column only (zero wire bytes).
        """
        plan = self.table_plan
        rb = self._row_bytes
        starts = np.arange(n_chunks) * spb
        workloads: List[DeviceWorkload] = []
        for d in range(G):
            tables = plan.tables_on(d)
            weight_parts: List[np.ndarray] = []
            dst_parts: List[np.ndarray] = []
            nnz = 0
            # Serve component: this device's own tables, full batch, misses only.
            for t in tables:
                adj = adj_lengths[t.name]
                weight_parts.append(np.add.reduceat(adj, starts).astype(np.float64))
                nnz += int(adj.sum())
                snt = sent[t.name]
                cd = np.zeros((n_chunks, G), dtype=np.float64)
                np.add.at(cd, (chunk_ids[snt], owners[snt]), 1.0)
                dst_parts.append(cd * rb)
            # Gather component: local pooling of cached rows of remote tables.
            lo, hi = bounds[d]
            for t in plan.table_configs:
                if plan.owner_of(t.name) == d:
                    continue
                h = hits_per_sample[t.name][lo:hi]
                total_hits = int(h.sum())
                if total_hits == 0:
                    continue
                gw = np.zeros(n_chunks, dtype=np.float64)
                np.add.at(gw, chunk_ids[lo:hi], h.astype(np.float64))
                nz = np.flatnonzero(gw)
                gv = np.zeros(n_chunks, dtype=np.float64)
                np.add.at(gv, chunk_ids[lo:hi][h > 0], 1.0)
                gdst = np.zeros((nz.size, G), dtype=np.float64)
                gdst[:, d] = gv[nz] * rb
                weight_parts.append(gw[nz])
                dst_parts.append(gdst)
                nnz += total_hits
            if weight_parts:
                block_weights = np.concatenate(weight_parts)
                block_dst = np.vstack(dst_parts)
            else:
                block_weights = np.empty(0)
                block_dst = np.zeros((0, G))
            workloads.append(
                DeviceWorkload(
                    device_id=d,
                    n_devices=G,
                    batch_size=B,
                    row_bytes=rb,
                    num_local_tables=len(tables),
                    nnz=nnz,
                    num_blocks=len(block_weights),
                    samples_per_block=spb,
                    block_weights=block_weights,
                    block_dst_bytes=block_dst,
                )
            )
        return workloads

    # -- timed path ---------------------------------------------------------------

    def run_plan(self, cplan: CacheBatchPlan) -> PhaseTiming:
        """Simulate an already-planned batch and stamp the cache counters."""
        timing = self.base.run_batch(cplan.workloads)
        self._stamp_counters(cplan)
        return timing

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """One batch's host program — composable into larger host
        programs (the inference pipeline's EMB stage).

        The cache pass runs now, before the host program is returned, so
        cache state advances at batch submission: interleaved batches
        (serving with several in flight) see it in submission order.
        ``workloads`` is ignored — the adjusted workloads come from
        ``batch``."""
        cplan = self.plan_batch(batch)
        base_start = self.base.batch_process(
            cluster, cplan.workloads, timing, stream_suffix=stream_suffix
        )

        def start() -> Event:
            done = base_start()
            cluster.then(done, lambda: self._stamp_counters(cplan))
            return done

        return start

    def _stamp_counters(self, cplan: CacheBatchPlan) -> None:
        for g, delta in enumerate(cplan.stats):
            self._count(f"{HIT_COUNTER}.dev{g}", delta.hits, "rows")
            self._count(f"{MISS_COUNTER}.dev{g}", delta.misses, "rows")
            self._count(f"{EVICT_COUNTER}.dev{g}", delta.evictions, "rows")

    # -- functional path ------------------------------------------------------------

    def functional_forward(
        self, batch: SparseBatch, plan: Optional[CacheBatchPlan] = None
    ) -> List[np.ndarray]:
        """Numpy forward, bit-identical to the uncached backends.

        With the batch's cache ``plan``, local features pool on the owner
        and slice, exactly like the uncached paths; remote features pool
        the per-lookup gather captured by the cache pass (hits from
        replicas, misses from owner weights) with the same
        ``segment_pool`` kernel over the same index order.  Without one —
        the timed path already ran this batch's cache pass — every feature
        gathers from its owner: the replicas hold the same weights, and a
        second pass would advance cache state twice.
        """
        if plan is None:
            return super().functional_forward(batch)
        sharded = self._materialized()
        splan = self.table_plan
        G = splan.n_devices
        bounds = minibatch_bounds(batch.batch_size, G)
        F = splan.num_tables
        dim = sharded.dim
        outputs: List[np.ndarray] = []
        for g, (lo, hi) in enumerate(bounds):
            out = np.zeros((hi - lo, F, dim), dtype=sharded.dtype)
            for f, t in enumerate(splan.table_configs):
                fld = batch.field(t.name)
                if splan.owner_of(t.name) == g:
                    pooled = self._tables[t.name].forward(fld)
                    out[:, f, :] = pooled[lo:hi]
                else:
                    vectors = plan.hit_values[(g, t.name)]
                    sl = fld.slice_samples(lo, hi)
                    out[:, f, :] = segment_pool(vectors, sl.offsets)
            outputs.append(out)
        return outputs

    def forward(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch],
        functional: bool = False,
    ) -> Tuple[PhaseTiming, Optional[List[np.ndarray]]]:
        """One cache pass feeding both the timed and the functional path."""
        cplan = self.plan_batch(batch)
        timing = self.run_plan(cplan)
        outputs = self.functional_forward(batch, plan=cplan) if functional else None
        return timing, outputs

    def release(self) -> None:
        """Free every device's cache slab back to its memory pool."""
        for cache in self.caches:
            cache.release()
