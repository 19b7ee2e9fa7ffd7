"""Inference-serving simulation: continuous batching, tail latency, SLOs.

The paper motivates its optimisation with inference economics (DLRM is
"over 70% of inference time" at Meta, citing DeepRecSys), where what
matters is not batch throughput but *latency under load*: requests arrive
continuously, a batcher groups them, and the EMB layer's exposed
communication sits directly on the tail.

:class:`InferenceServer` runs that loop on the simulator:

* requests arrive as a Poisson process at ``arrival_qps``, drawn up front
  and admitted lazily whenever the scheduler wakes;
* a batch former seals a batch once it holds ``max_batch`` requests or
  ``batch_window_ns`` after its head request, whichever comes first (the
  classic adaptive batcher, recorded as policy ``"hybrid"``).  It sleeps
  until the instant its trigger fires, so serving costs engine events
  per batch, not per request;
* a continuous-batching dispatcher keeps up to ``max_in_flight`` batches
  executing concurrently, each on its own per-batch stream set (see
  :class:`~repro.simgpu.stream.StreamPool`): while batch k's EMB output
  writes drain over the interconnect, batch k+1's kernels are already
  running on the second stream set;
* per-request latency = completion − arrival, decomposed into **form**
  (arrival → batch ready), **queue** (ready → dispatched, i.e. waiting
  for a free in-flight slot), and **execute** (dispatched → done)
  segments that sum to the end-to-end latency exactly.

Request features are pre-drawn once for the whole run, so each request's
inputs — and therefore its functional output under ``materialize=True`` —
are invariant to how the scheduler happens to cut batches: serving with
``max_in_flight=2`` is bit-identical to sequential serving.

Resilient serving (used by the fault sweep) adds three SLO mechanisms:

* **load shedding** — arrivals beyond ``queue_limit`` waiting requests
  are rejected immediately instead of poisoning the whole queue's tail;
* **hedged execution** — a batch still running ``hedge_after_ns`` after
  launch (a straggler suspect) gets an identical hedge batch; the first
  to finish serves the requests, the loser drains in the background,
  occupying real simulated resources;
* **degradation accounting** — with a ``"+resilient"`` EMB backend, each
  batch's :class:`~repro.faults.BatchOutcome` (retries, reroutes,
  zero-filled fraction) is folded into the result.

:meth:`InferenceServer.simulate` returns a :class:`ServingResult` with the
latency distribution and segments, throughput/goodput, the inter-batch
interconnect-idle time, shed/hedge/degradation counters, and an
:meth:`~ServingResult.slo_report` summarising goodput vs. shed vs.
degraded under fault.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..checks import check_finite, checked_count
from ..dlrm.data import SyntheticDataGenerator
from ..obs import trace_scope
from ..simgpu.engine import Event
from ..simgpu.profiler import TraceRef
from ..simgpu.stream import StreamPool
from ..simgpu.units import ms
from ..telemetry.metrics import interconnect_idle_ns as _interconnect_idle
from ..telemetry.report import (
    BATCH_FORMED_COUNTER,
    IN_FLIGHT_COUNTER,
    QUEUE_DEPTH_COUNTER,
)
from ..telemetry.timeline import sample_edges
from .factory import parse_backend_name
from .functional import functional_forward
from .pipeline import DLRMInferencePipeline, PipelineTiming
from .retrieval import BackendName, adapter_class

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from .runspec import RunSpec

__all__ = ["SchedulerSpec", "ServingSpec", "ServingResult", "InferenceServer"]

#: batch-formation trigger names (also the BATCH_FORMED_COUNTER suffixes)
FORMATION_REASONS = ("size", "timeout", "exhausted")


@dataclass(frozen=True)
class SchedulerSpec:
    """Continuous-batching scheduler policy.

    ``max_in_flight`` is K, the number of batches that may execute on the
    cluster concurrently (each on its own stream set).
    """

    max_in_flight: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "max_in_flight",
            checked_count("SchedulerSpec", "max_in_flight", self.max_in_flight),
        )


@dataclass(frozen=True)
class ServingSpec:
    """Load, batching, and SLO policy.

    ``deadline_ns`` is the per-request SLO used for the deadline-hit
    rate; ``queue_limit`` and ``hedge_after_ns`` enable load shedding and
    hedged re-execution.  ``scheduler`` configures continuous batching
    (``None`` = the default sequential scheduler: hybrid formation, one
    batch in flight).  The EMB features a run serves with are the
    pipeline's :class:`~repro.core.factory.FeatureSpec`.  Times and the
    rate must be finite reals, counts and the seed ints; a bad value
    raises at construction, naming the field.
    """

    arrival_qps: float  #: mean request arrival rate (Poisson)
    max_batch: int = 256  #: batcher's size cap
    batch_window_ns: float = 2 * ms  #: max wait after the first queued request
    seed: int = 0
    deadline_ns: Optional[float] = None  #: per-request SLO deadline
    queue_limit: Optional[int] = None  #: shed arrivals beyond this queue depth
    hedge_after_ns: Optional[float] = None  #: re-execute batches slower than this
    scheduler: Optional[SchedulerSpec] = None  #: continuous-batching policy

    def __post_init__(self) -> None:
        check_finite("ServingSpec", "arrival_qps", self.arrival_qps)
        check_finite("ServingSpec", "batch_window_ns", self.batch_window_ns, zero_ok=True)
        for name in ("deadline_ns", "hedge_after_ns"):
            if getattr(self, name) is not None:
                check_finite("ServingSpec", name, getattr(self, name))
        object.__setattr__(
            self, "max_batch", checked_count("ServingSpec", "max_batch", self.max_batch)
        )
        object.__setattr__(
            self, "seed", checked_count("ServingSpec", "seed", self.seed, minimum=0)
        )
        if self.queue_limit is not None:
            object.__setattr__(
                self, "queue_limit", checked_count("ServingSpec", "queue_limit", self.queue_limit)
            )
        if self.scheduler is not None and not isinstance(self.scheduler, SchedulerSpec):
            raise TypeError(
                f"ServingSpec.scheduler must be a SchedulerSpec, "
                f"got {type(self.scheduler).__name__}"
            )

    @property
    def mean_interarrival_ns(self) -> float:
        """Expected gap between requests."""
        return 1e9 / self.arrival_qps

    @property
    def scheduler_spec(self) -> SchedulerSpec:
        """The effective scheduler (default: sequential hybrid)."""
        return self.scheduler if self.scheduler is not None else SchedulerSpec()


@dataclass
class ServingResult:
    """Outcome of one serving simulation."""

    latencies_ns: np.ndarray
    batch_sizes: List[int]
    sim_duration_ns: float
    backend: str
    n_shed: int = 0  #: arrivals rejected by load shedding
    n_hedged: int = 0  #: batches that got a hedge re-execution
    deadline_ns: Optional[float] = None  #: the SLO the run was measured against
    degraded_per_request: Optional[np.ndarray] = None  #: zero-filled bag share
    emb_retries: int = 0  #: EMB deadline retries across all batches
    emb_reroutes: int = 0  #: two-hop reroutes across all batches
    emb_rerouted_bytes: float = 0.0
    emb_deadline_misses: int = 0  #: batches that exhausted EMB retries
    form_ns: Optional[np.ndarray] = None  #: arrival → batch ready, per request
    queue_ns: Optional[np.ndarray] = None  #: ready → dispatched, per request
    execute_ns: Optional[np.ndarray] = None  #: dispatched → done, per request
    interconnect_idle_ns: float = 0.0  #: serving-window time with zero traffic
    max_in_flight: int = 1  #: the scheduler's K the run used
    formed_by: Dict[str, int] = field(default_factory=dict)  #: trigger → batches
    request_outputs: Optional[np.ndarray] = None  #: (served, F, d) when materialized
    request_batch: Optional[np.ndarray] = None  #: per-served-request batch seq (traced runs)

    @property
    def n_requests(self) -> int:
        """Requests served."""
        return int(self.latencies_ns.size)

    @property
    def n_batches(self) -> int:
        """Batches dispatched."""
        return len(self.batch_sizes)

    @property
    def n_offered(self) -> int:
        """Requests offered (served + shed)."""
        return self.n_requests + self.n_shed

    @property
    def shed_fraction(self) -> float:
        """Share of offered requests rejected at admission."""
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    @property
    def degraded_fraction(self) -> float:
        """Mean zero-filled bag share across served requests."""
        if self.degraded_per_request is None or self.degraded_per_request.size == 0:
            return 0.0
        return float(np.mean(self.degraded_per_request))

    @property
    def deadline_hit_rate(self) -> float:
        """Share of served requests finishing within ``deadline_ns``.

        1.0 when no deadline was configured (every request "hits").
        """
        if self.n_requests == 0:
            return 0.0
        if self.deadline_ns is None:
            return 1.0
        return float(np.mean(self.latencies_ns <= self.deadline_ns))

    def percentile_ms(self, q: float) -> float:
        """Latency percentile in milliseconds.

        ``q`` must lie in [0, 100].  A single-sample distribution returns
        that sample for every ``q`` (no interpolation artefacts); an empty
        one (all requests shed) raises instead of returning NaN.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.n_requests == 0:
            raise ValueError(
                "no requests were served (all shed?); latency percentiles undefined"
            )
        if self.n_requests == 1:
            return float(self.latencies_ns[0]) / ms
        return float(np.percentile(self.latencies_ns, q)) / ms

    @property
    def p50_ms(self) -> float:
        """Median latency."""
        return self.percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        """Tail latency."""
        return self.percentile_ms(99)

    @property
    def mean_batch_size(self) -> float:
        """Average formed batch size (0.0 on an all-shed run).

        Robust to ``batch_sizes`` arriving as any sequence type (a bare
        ``if self.batch_sizes`` is ambiguous for numpy arrays and one
        guard away from ``np.mean([])``'s NaN).
        """
        sizes = np.asarray(self.batch_sizes, dtype=np.float64)
        return float(sizes.mean()) if sizes.size else 0.0

    def _segment_mean(self, values: Optional[np.ndarray]) -> float:
        return float(np.mean(values)) if values is not None and values.size else 0.0

    @property
    def mean_form_ns(self) -> float:
        """Mean batch-formation wait across served requests."""
        return self._segment_mean(self.form_ns)

    @property
    def mean_queue_ns(self) -> float:
        """Mean wait for a free in-flight slot across served requests."""
        return self._segment_mean(self.queue_ns)

    @property
    def mean_execute_ns(self) -> float:
        """Mean pipeline execution time across served requests."""
        return self._segment_mean(self.execute_ns)

    @property
    def throughput_qps(self) -> float:
        """Served requests per (simulated) second."""
        if self.sim_duration_ns <= 0:
            return 0.0
        if self.n_requests == 0:
            raise ValueError(
                "no requests were served (all shed?); throughput undefined"
            )
        return self.n_requests / (self.sim_duration_ns / 1e9)

    @property
    def goodput_qps(self) -> float:
        """Fully-served requests meeting the deadline, per second.

        A request counts toward goodput when it was admitted, finished
        within the deadline (if any), and had no zero-filled bags.
        """
        if self.sim_duration_ns <= 0 or self.n_requests == 0:
            return 0.0
        good = np.ones(self.n_requests, dtype=bool)
        if self.deadline_ns is not None:
            good &= self.latencies_ns <= self.deadline_ns
        if self.degraded_per_request is not None and self.degraded_per_request.size:
            good &= self.degraded_per_request == 0.0
        return float(np.count_nonzero(good)) / (self.sim_duration_ns / 1e9)

    def summary(self) -> str:
        """One-line result."""
        if self.n_requests == 0:
            return f"{self.backend}: 0 reqs served ({self.n_shed} shed)"
        return (
            f"{self.backend}: {self.n_requests} reqs, p50 {self.p50_ms:.2f} ms, "
            f"p99 {self.p99_ms:.2f} ms, mean batch {self.mean_batch_size:.0f}, "
            f"{self.throughput_qps:,.0f} qps (K={self.max_in_flight})"
        )

    def slo_report(self) -> str:
        """Multi-line SLO summary: goodput vs. shed vs. degraded."""
        lines = [
            f"backend {self.backend}: offered {self.n_offered}, "
            f"served {self.n_requests}, shed {self.n_shed} "
            f"({100 * self.shed_fraction:.1f}%), hedged {self.n_hedged}"
        ]
        if self.n_requests:
            dl = (
                f"deadline {self.deadline_ns / ms:.2f} ms, "
                f"hit-rate {100 * self.deadline_hit_rate:.1f}%"
                if self.deadline_ns is not None
                else "no deadline"
            )
            lines.append(
                f"latency p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms ({dl})"
            )
            lines.append(
                f"throughput {self.throughput_qps:,.0f} qps, "
                f"goodput {self.goodput_qps:,.0f} qps"
            )
            lines.append(
                f"segments form {self.mean_form_ns / ms:.3f} / queue "
                f"{self.mean_queue_ns / ms:.3f} / execute "
                f"{self.mean_execute_ns / ms:.3f} ms "
                f"(K={self.max_in_flight}, policy hybrid)"
            )
        else:
            lines.append("no requests served")
        lines.append(
            f"degraded {100 * self.degraded_fraction:.2f}% of bags; emb retries "
            f"{self.emb_retries}, reroutes {self.emb_reroutes} "
            f"({self.emb_rerouted_bytes / 1e6:.2f} MB), "
            f"deadline misses {self.emb_deadline_misses}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Plain-dict view for the telemetry :class:`~repro.telemetry.RunReport`."""
        served = self.n_requests > 0
        return {
            "backend": self.backend,
            "n_requests": self.n_requests,
            "n_offered": self.n_offered,
            "n_shed": self.n_shed,
            "n_hedged": self.n_hedged,
            "n_batches": self.n_batches,
            "shed_fraction": self.shed_fraction,
            "sim_duration_ns": float(self.sim_duration_ns),
            "mean_batch_size": self.mean_batch_size,
            "p50_ms": self.p50_ms if served else None,
            "p99_ms": self.p99_ms if served else None,
            "throughput_qps": self.throughput_qps if served else 0.0,
            "goodput_qps": self.goodput_qps,
            "deadline_ns": self.deadline_ns,
            "deadline_hit_rate": self.deadline_hit_rate,
            "degraded_fraction": self.degraded_fraction,
            "emb_retries": self.emb_retries,
            "emb_reroutes": self.emb_reroutes,
            "emb_rerouted_bytes": float(self.emb_rerouted_bytes),
            "emb_deadline_misses": self.emb_deadline_misses,
            "max_in_flight": self.max_in_flight,
            "policy": "hybrid",
            "formed_by": dict(self.formed_by),
            "mean_form_ns": self.mean_form_ns,
            "mean_queue_ns": self.mean_queue_ns,
            "mean_execute_ns": self.mean_execute_ns,
            "interconnect_idle_ns": float(self.interconnect_idle_ns),
        }


class InferenceServer:
    """One model replica serving a Poisson request stream."""

    def __init__(self, pipeline: DLRMInferencePipeline, spec: ServingSpec):
        self.pipeline = pipeline
        self.spec = spec

    @classmethod
    def from_spec(cls, spec: "RunSpec", *, pipeline: Optional[DLRMInferencePipeline] = None):
        """Build a server from a :class:`~repro.core.runspec.RunSpec`.

        The spec must carry a ``serving`` section; the pipeline (built
        from the spec unless given) carries its feature sections.
        """
        if pipeline is None:
            pipeline = DLRMInferencePipeline.from_spec(spec)
        return cls(pipeline, spec.serving_spec())

    # -- functional path ---------------------------------------------------------

    def _materialized_tables(self):
        """Real embedding weights, seeded by the workload seed and built
        once per pipeline, whose adapters then compute the outputs with them.

        Two servers over the same workload materialise identical weights,
        so cross-server output comparisons (sequential vs. continuous
        batching) are meaningful bit-for-bit.
        """
        pipeline = self.pipeline
        if pipeline.sharded is None:
            from ..dlrm.embedding import EmbeddingBagCollection
            from .functional import ShardedEmbeddingTables

            cfg = pipeline.config.workload
            ebc = EmbeddingBagCollection.from_configs(
                cfg.table_configs(), rng=np.random.default_rng(cfg.seed)
            )
            pipeline.sharded = ShardedEmbeddingTables.from_collection(ebc, pipeline.plan)
            # Adapters read the host's weights when built: rebuild any
            # built without them.
            pipeline.set_features(pipeline.features)
        return pipeline.sharded

    # -- simulation --------------------------------------------------------------

    def simulate(
        self,
        n_requests: int,
        backend: Optional[BackendName] = None,
        *,
        materialize: bool = False,
    ) -> ServingResult:
        """Serve ``n_requests`` to completion; returns the latency stats.

        With ``materialize=True`` the server also runs the functional EMB
        forward per batch and returns per-request output vectors in
        ``result.request_outputs`` — bit-identical regardless of the
        scheduler's ``max_in_flight`` because request features are
        pre-drawn once and pooling is per-sample.
        """
        if n_requests <= 0:
            raise ValueError("n_requests must be positive")
        pipeline = self.pipeline
        cluster = pipeline.cluster
        engine = cluster.engine
        profiler = cluster.profiler
        spec = self.spec
        sched = spec.scheduler_spec
        queue_limit = spec.queue_limit
        rng = np.random.default_rng(spec.seed)
        workload = pipeline.config.workload
        gen = SyntheticDataGenerator(workload)
        be = backend or pipeline.backend
        base, features = parse_backend_name(be)
        resilient = "resilient" in features
        obs = pipeline.features.obs
        tracing = obs is not None and obs.enabled

        # Pre-draw every request's features once: request r's inputs (and
        # functional outputs) are fixed regardless of how the scheduler
        # cuts batches, which is what makes continuous batching
        # bit-identical to sequential serving.
        needs_sparse = (
            adapter_class(be).requires_indices
            or materialize
            or (resilient and pipeline.features.resilience is not None)
        )
        if needs_sparse:
            pool = gen.sparse_batch(batch_size=n_requests)
            pool_lengths = None
        else:
            pool = None
            pool_lengths = gen.sample_lengths(batch_size=n_requests)

        functional = None
        if materialize:
            sharded = self._materialized_tables()

            def functional(b):
                if resilient:
                    # The adapter zero-fills the partition of the last batch
                    # to *finish*, which with several batches in flight need
                    # not be this one; serve the base outputs and report
                    # degradation through ``degraded_fraction`` instead.
                    return functional_forward(base, sharded, b)
                # Looked up at completion: the timed path built the adapter.
                return pipeline.backend_adapter(be).functional_forward(b)

        # Per-request timestamps (NaN = not applicable / not served).
        arrival_t = np.full(n_requests, np.nan)
        ready_t = np.full(n_requests, np.nan)
        dispatch_t = np.full(n_requests, np.nan)
        done_t = np.full(n_requests, np.nan)
        batch_of = np.full(n_requests, -1, dtype=np.int64)
        degraded_t = np.zeros(n_requests)
        outputs_t: List[Optional[np.ndarray]] = [None] * n_requests

        queue: List[int] = []  # admitted request ids awaiting dispatch
        arrived = 0  # arrivals admitted or shed so far
        n_shed = 0
        n_hedged = 0
        n_done = 0
        in_flight = 0
        batch_sizes: List[int] = []
        formed_by: Dict[str, int] = {reason: 0 for reason in FORMATION_REASONS}
        slots = StreamPool(sched.max_in_flight)
        t_start = engine.now
        if resilient:
            # Build the adapter now so the outcome ledger exists.
            adapter = pipeline.backend_adapter(be)
            outcome_start = len(adapter.outcomes)

        # Poisson arrivals, pre-drawn: one vectorized draw equals the
        # per-request scalar draws, and the running sum from t_start equals
        # a chain of ``now + gap`` timeouts bit for bit.
        gaps = rng.exponential(spec.mean_interarrival_ns, size=n_requests)
        arrivals = np.cumsum(np.concatenate(([t_start], gaps)))[1:].tolist()
        max_batch = spec.max_batch
        window = spec.batch_window_ns

        def admit(now: float) -> None:
            """Admit or shed, in order, every arrival at or before ``now``.

            The arrivals that fit under the queue limit are admitted as one
            slice and the rest are shed (admission control: reject instead
            of growing the tail).  Each sample is stamped at the arrival's
            own instant, so the queue-depth counter sees what an admission
            per arrival would have recorded.
            """
            nonlocal arrived, n_shed
            lo = arrived
            arrived = bisect_right(arrivals, now, lo)
            hi = arrived
            if queue_limit is not None:
                hi = min(hi, lo + max(queue_limit - len(queue), 0))
            if hi > lo:
                queue.extend(range(lo, hi))
                admitted = arrivals[lo:hi]
                arrival_t[lo:hi] = admitted
                if profiler.enabled:
                    profiler.counter(QUEUE_DEPTH_COUNTER, "requests").extend(
                        admitted, [1.0] * (hi - lo)
                    )
            n_shed += arrived - hi

        def trigger(t: float, depth: int, seen: int, deadline: float) -> Optional[str]:
            """The batch former's check at ``t``: what seals the head batch, if
            anything, with ``depth`` queued, ``seen`` arrivals so far and the
            head's window ending at ``deadline``."""
            if depth >= max_batch:
                return "size"
            if seen >= n_requests:
                return "exhausted"
            if t >= deadline:
                return "timeout"
            return None

        def formation_instant(now: float, deadline: float) -> float:
            """The next instant :func:`trigger` fires, absent a completion.

            Walks the pending arrivals the way a batch former woken by every
            arrival (admitted or shed) would see them.  That former re-armed
            its window timer at each wake as ``t + (deadline - t)``, which
            can land an ulp either side of ``deadline``: short, it re-arms;
            past, the batch forms at that later instant.  The walk replays
            the chain; an arrival tied with the timer is seen first.
            """
            depth = len(queue)
            i = arrived
            t = now
            timer = t + (deadline - t)
            while True:
                if i < n_requests and arrivals[i] <= timer:
                    t = arrivals[i]
                    i += 1
                    if queue_limit is None or depth < queue_limit:
                        depth += 1
                else:
                    t = timer
                if trigger(t, depth, i, deadline) is not None:
                    return t
                timer = t + (deadline - t)

        # Between steps the scheduler waits for a batch completion, or for
        # the ``alarm`` of a timed sleep, or (``blocked``) for a completion
        # that frees a slot for the batch it has sealed: that batch's ready
        # instant and formation reason.
        alarm = None
        blocked: Optional[Tuple[float, str]] = None
        n_launched = 0
        finished = engine.event("serving")

        def wake() -> None:
            """The alarm fired or a batch completed: run the scheduler."""
            nonlocal alarm, blocked
            if alarm is not None:
                # After a completion the scheduler re-plans from the new instant.
                engine.cancel(alarm)
                alarm = None
            if blocked is not None:
                dispatch(*blocked)
                blocked = None
            step()

        def run_batch(rows: List[int], lease, batch_seq: int) -> None:
            """Execute one dispatched batch on its leased stream set."""
            t_dispatch = engine.now
            # One trace ref per dispatched batch; the hedge re-execution is
            # the same logical batch so it shares the ref.
            ref = TraceRef(obs.trace_id, batch_seq) if tracing else None
            rows_np = np.asarray(rows, dtype=np.int64)
            if pool is not None:
                sub_batch = pool.take(rows_np)
                sub_lengths = None
            else:
                sub_batch = None
                sub_lengths = pool_lengths.take(rows_np)

            def launch() -> Event:
                return pipeline.batch_process(
                    sub_lengths, PipelineTiming(), be, batch=sub_batch,
                    stream_suffix=lease.suffix, trace=ref,
                )()

            def straggler() -> None:
                nonlocal n_hedged
                if ended.triggered:
                    return complete()
                # Straggler suspect: race an identical hedge batch.
                # The loser keeps draining in the background,
                # occupying its streams and links.
                n_hedged += 1
                cluster.race([ended, launch()], None, complete)

            def complete() -> None:
                nonlocal n_done, in_flight
                done = engine.now
                done_t[rows_np] = done
                if ref is not None:
                    # Envelope span: the dispatched batch's full residency, the
                    # anchor Perfetto flow arrows and per-batch windows hang off.
                    batch_of[rows_np] = batch_seq
                    with trace_scope(profiler, ref):
                        profiler.record_span(
                            f"serve.batch{batch_seq}", "serve", -1, t_dispatch, done
                        )
                if resilient:
                    outcome = adapter.pop_outcome()
                    frac = outcome.degraded_fraction if outcome is not None else 0.0
                    degraded_t[rows_np] = frac
                if functional is not None:
                    # Per-device (B_g, F, d) outputs concatenate back to the
                    # batch's sample order, i.e. the dispatched row order.
                    flat = np.concatenate(functional(sub_batch), axis=0)
                    for i, rid in enumerate(rows):
                        outputs_t[rid] = flat[i]
                n_done += len(rows)
                in_flight -= 1
                profiler.add_count(IN_FLIGHT_COUNTER, done, -1.0, unit="batches")
                lease.release()
                wake()

            ended = launch()
            if spec.hedge_after_ns is None:
                cluster.then(ended, complete)
            else:
                cluster.race([ended], spec.hedge_after_ns, straggler)

        def dispatch(t_ready: float, reason: str) -> None:
            """Seal the head batch now and launch it on a free slot."""
            nonlocal in_flight, n_launched
            # Seal at dispatch: absorb everything waiting now (late
            # arrivals ride along, with a zero form segment).
            now = engine.now
            admit(now)
            k = min(len(queue), max_batch)
            rows = queue[:k]
            del queue[:k]
            rows_np = np.asarray(rows, dtype=np.int64)
            ready_t[rows_np] = np.maximum(t_ready, arrival_t[rows_np])
            dispatch_t[rows_np] = now
            profiler.add_count(
                QUEUE_DEPTH_COUNTER, now, -float(k), unit="requests"
            )
            profiler.add_count(IN_FLIGHT_COUNTER, now, 1.0, unit="batches")
            profiler.add_count(
                f"{BATCH_FORMED_COUNTER}.{reason}", now, 1.0, unit="batches"
            )
            formed_by[reason] += 1
            batch_sizes.append(k)
            in_flight += 1
            lease = slots.acquire()
            run_batch(rows, lease, n_launched)
            n_launched += 1

        def step() -> None:
            """The scheduler: form and dispatch batches until it must wait."""
            nonlocal alarm, blocked
            while n_done + n_shed < n_requests:
                now = engine.now
                admit(now)
                if not queue:
                    # Sleep until the next arrival (or a completion).
                    if arrived < n_requests:
                        alarm = engine.call_at(arrivals[arrived], wake)
                    return
                # Batch former: sleep until the policy declares the head
                # batch ready; a completion wakes it early to re-plan.
                deadline = arrivals[queue[0]] + window
                reason = trigger(now, len(queue), arrived, deadline)
                if reason is None:
                    alarm = engine.call_at(formation_instant(now, deadline), wake)
                    return
                # Dispatcher: wait for a free in-flight slot, then seal.
                if in_flight >= sched.max_in_flight:
                    blocked = (now, reason)
                    return
                dispatch(now, reason)
            finished.succeed()

        step()
        engine.run_until_event(finished)
        # The scheduler's callbacks reach each other through this frame's
        # cells; unbinding the two every loop passes through lets the
        # finished run be freed by refcount alone.
        del step, dispatch
        t_end = engine.now

        # Compact per-request records in request-id order (stable across
        # out-of-order completion under K > 1).
        served = np.nonzero(~np.isnan(done_t))[0]
        latencies = (done_t - arrival_t)[served]
        form = (ready_t - arrival_t)[served]
        queue_seg = (dispatch_t - ready_t)[served]
        execute = (done_t - dispatch_t)[served]

        idle = 0.0
        if t_end > t_start:
            edges = sample_edges(t_start, t_end, 240)
            idle = _interconnect_idle(profiler, edges)

        request_outputs = None
        if materialize and served.size:
            request_outputs = np.stack([outputs_t[rid] for rid in served])

        result = ServingResult(
            latencies_ns=latencies,
            batch_sizes=batch_sizes,
            sim_duration_ns=t_end - t_start,
            backend=be,
            n_shed=n_shed,
            n_hedged=n_hedged,
            deadline_ns=spec.deadline_ns,
            degraded_per_request=degraded_t[served] if resilient else None,
            form_ns=form,
            queue_ns=queue_seg,
            execute_ns=execute,
            interconnect_idle_ns=idle,
            max_in_flight=sched.max_in_flight,
            formed_by=formed_by,
            request_outputs=request_outputs,
            request_batch=batch_of[served] if tracing else None,
        )
        if resilient:
            # Ledger totals include hedge losers that finished late.
            outcomes = adapter.outcomes[outcome_start:]
            result.emb_retries = sum(o.retries for o in outcomes)
            result.emb_reroutes = sum(o.rerouted_pairs for o in outcomes)
            result.emb_rerouted_bytes = sum(o.rerouted_bytes for o in outcomes)
            result.emb_deadline_misses = sum(o.deadline_missed for o in outcomes)
        return result
