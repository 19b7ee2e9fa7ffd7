"""Resilient retrieval: deadlines, retries, reroutes, graceful degradation.

:class:`ResilientRetrieval` fronts either base backend (``pgas`` or
``baseline``) with a per-batch fault-handling state machine:

1. **Partition** — at batch start, every directed pair with remote output
   is checked against the live link state.  Traffic toward an unreachable
   destination is stripped from the base workloads and either *rerouted*
   (two-hop bulk forward through a healthy intermediate, charging both
   links) or marked *degraded*.
2. **Attempt with deadline** — the base backend's ``batch_process`` (plus
   any forwarding transfers) races a per-attempt deadline.  On breach the
   attempt is abandoned (its in-flight work still occupies streams and
   links — retries queue behind it, as on real hardware) and retried
   after exponential backoff with seeded jitter.
3. **Graceful degradation** — once retries are exhausted, a final
   local-only pass (every remote byte stripped) always completes.
   Degraded bags are zero-filled; the batch reports a
   ``degraded_fraction`` instead of failing.

The retry policy is fixed: :data:`MAX_RETRIES` retries, the *k*-th
(1-based) after ``BACKOFF_BASE_NS * BACKOFF_MULTIPLIER**(k-1)`` stretched
by a seeded uniform jitter in ``[0, JITTER_FRACTION]``.  Only the
deadline and the jitter seed are settable.

With no deadline and a healthy fabric the wrapper adds *zero* simulated
time and reproduces the wrapped backend's outputs, timings, and wire
bytes exactly — the healthy path is the base path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..checks import check_finite_fields
from ..core.baseline import BatchStart, PhaseTiming
from ..core.retrieval import BaseRetrieval
from ..core.workload import DeviceWorkload
from ..comm.collective import PER_CHUNK_HEADER_BYTES
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from ..simgpu.engine import Event
from ..simgpu.stream import join
from ..simgpu.units import us
from .injector import pair_is_down

__all__ = [
    "ResilienceSpec",
    "BatchOutcome",
    "ResilientRetrieval",
    "RETRY_COUNTER",
    "REROUTE_COUNTER",
    "DEGRADED_COUNTER",
]

#: profiler counters stamped at batch completion (only when non-zero,
#: so healthy traces stay byte-identical to the wrapped backend's)
RETRY_COUNTER = "faults.retries"
REROUTE_COUNTER = "faults.rerouted_bytes"
DEGRADED_COUNTER = "faults.degraded_bags"

#: retries after the first attempt before the local-only pass
MAX_RETRIES = 2
#: backoff before the first retry; each later one is BACKOFF_MULTIPLIER longer
BACKOFF_BASE_NS = 50 * us
BACKOFF_MULTIPLIER = 2.0
#: each backoff is stretched by a seeded uniform share in [0, JITTER_FRACTION]
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class ResilienceSpec:
    """Policy knobs of the resilient wrapper.

    ``deadline_ns`` is the per-attempt EMB deadline (None disables the
    whole retry machinery — the zero-overhead healthy path); ``seed``
    seeds the backoff jitter.
    """

    deadline_ns: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self, "deadline_ns")
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError("deadline_ns must be positive (or None)")


@dataclass
class BatchOutcome:
    """What the resilience machinery did to one batch."""

    attempts: int = 1
    retries: int = 0
    rerouted_pairs: int = 0
    rerouted_bytes: float = 0.0
    degraded_bags: int = 0
    total_bags: int = 0
    deadline_missed: bool = False
    emb_ns: float = 0.0

    @property
    def degraded_fraction(self) -> float:
        """Zero-filled share of this batch's (sample, table) bags."""
        return self.degraded_bags / self.total_bags if self.total_bags else 0.0

    @property
    def healthy(self) -> bool:
        """True when the batch needed no resilience action at all."""
        return (
            self.retries == 0
            and self.rerouted_pairs == 0
            and self.degraded_bags == 0
            and not self.deadline_missed
        )


@dataclass
class _BatchState:
    """Partition decisions carried from the timed to the functional path."""

    workloads: List[DeviceWorkload]
    forwards: List[Tuple[int, int, int, float]]  #: (src, via, dst, payload)
    degraded_pairs: Set[Tuple[int, int]]  #: (owner, dst) zero-filled pairs
    remote_bags: Dict[Tuple[int, int], int]
    outcome: BatchOutcome
    fully_degraded: bool = False


@dataclass
class _BatchRun:
    """One batch's timed state machine between its attempts."""

    cluster: Cluster
    state: _BatchState
    timing: PhaseTiming
    stream_suffix: str
    t0: float
    done: Event
    attempt: int = 0
    sub: Optional[PhaseTiming] = None  #: the current attempt's phases


class ResilientRetrieval(BaseRetrieval):
    """A base retrieval backend wrapped in the fault-handling state machine."""

    suffix = "resilient"
    config_field = "resilience"
    spec_type = ResilienceSpec
    descriptions = {
        "pgas": "PGAS retrieval under the retry/reroute/degrade fault wrapper",
        "baseline": "collective retrieval under the retry/reroute/degrade fault wrapper",
    }

    def _attach(self) -> None:
        self._rng = np.random.default_rng(self.spec.seed)
        self._last_state: Optional[_BatchState] = None
        self.last_outcome: Optional[BatchOutcome] = None
        self.outcomes: List[BatchOutcome] = []

    # -- partition ---------------------------------------------------------------

    def _route_via(self, src: int, dst: int) -> Optional[int]:
        """A healthy intermediate for two-hop forwarding, or None."""
        for k in range(self.cluster.n_devices):
            if k == src or k == dst:
                continue
            if not pair_is_down(self.cluster, src, k) and not pair_is_down(
                self.cluster, k, dst
            ):
                return k
        return None

    def _partition(self, workloads: Sequence[DeviceWorkload]) -> _BatchState:
        """Strip unreachable destinations; decide reroute vs. degrade."""
        cluster = self.cluster
        G = cluster.n_devices
        outcome = BatchOutcome()
        remote_bags: Dict[Tuple[int, int], int] = {}
        adjusted = list(workloads)
        forwards: List[Tuple[int, int, int, float]] = []
        degraded_pairs: Set[Tuple[int, int]] = set()
        total_bags = 0
        for i, wl in enumerate(workloads):
            total_bags += wl.batch_size * wl.num_local_tables
            out = wl.output_bytes_by_dst
            bad: List[int] = []
            for d in range(G):
                if d == wl.device_id or out[d] <= 0:
                    continue
                remote_bags[(wl.device_id, d)] = int(round(out[d] / wl.row_bytes))
                if pair_is_down(cluster, wl.device_id, d):
                    bad.append(d)
            if not bad:
                continue
            block_dst = wl.block_dst_bytes.copy()
            for d in bad:
                nbytes = float(out[d])
                via = self._route_via(wl.device_id, d)
                if via is not None:
                    forwards.append((wl.device_id, via, d, nbytes))
                else:
                    degraded_pairs.add((wl.device_id, d))
                block_dst[:, d] = 0.0
            adjusted[i] = dataclasses.replace(wl, block_dst_bytes=block_dst)
        outcome.total_bags = total_bags
        outcome.rerouted_pairs = len(forwards)
        outcome.degraded_bags = sum(remote_bags.get(p, 0) for p in degraded_pairs)
        return _BatchState(
            workloads=adjusted,
            forwards=forwards,
            degraded_pairs=degraded_pairs,
            remote_bags=remote_bags,
            outcome=outcome,
        )

    def _strip_remote(
        self, workloads: Sequence[DeviceWorkload]
    ) -> List[DeviceWorkload]:
        """Local-only variants: every off-diagonal destination removed."""
        stripped: List[DeviceWorkload] = []
        for wl in workloads:
            out = wl.output_bytes_by_dst
            if float(out.sum() - out[wl.device_id]) <= 0:
                stripped.append(wl)
                continue
            block_dst = wl.block_dst_bytes.copy()
            for d in range(wl.n_devices):
                if d != wl.device_id:
                    block_dst[:, d] = 0.0
            stripped.append(dataclasses.replace(wl, block_dst_bytes=block_dst))
        return stripped

    # -- timed path --------------------------------------------------------------

    def _message_params(self) -> Tuple[int, int]:
        """Wire framing of forwarded payloads, matching the base backend."""
        if self.base_name == "pgas":
            pspec = self.base.pgas.spec
            return pspec.message_bytes, pspec.header_bytes
        return 0, PER_CHUNK_HEADER_BYTES

    def _forward_route(
        self, cluster: Cluster, src: int, via: int, dst: int,
        nbytes: float, outcome: BatchOutcome,
    ) -> Event:
        """Two-hop store-and-forward src → via → dst, charging both links."""
        mb, hb = self._message_params()

        def hop(a: int, b: int) -> Event:
            return cluster.interconnect.transfer(
                a, b, nbytes, message_bytes=mb, header_bytes=hb,
                counter=REROUTE_COUNTER,
            )

        def delivered() -> None:
            outcome.rerouted_bytes += nbytes

        return cluster.chain(partial(hop, src, via), partial(hop, via, dst), delivered)

    def _attempt(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        forwards: Sequence[Tuple[int, int, int, float]],
        timing: PhaseTiming,
        outcome: BatchOutcome,
        stream_suffix: str = "",
    ) -> Event:
        """One attempt: the base pass beside every reroute."""
        waits = [
            self.base.batch_process(
                cluster, list(workloads), timing, stream_suffix=stream_suffix
            )()
        ]
        for src, via, dst, nbytes in forwards:
            waits.append(self._forward_route(cluster, src, via, dst, nbytes, outcome))
        return cluster.chain(lambda: join(cluster.engine, waits))

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> BatchStart:
        """One batch's host program — the full state machine.

        Composable into larger host programs exactly like the base
        backends' ``batch_process``; ``timing`` is filled at completion
        (``total_ns`` includes backoff and retries).  ``stream_suffix``
        passes through to the wrapped backend's per-batch stream set.
        """
        engine = cluster.engine

        def start() -> Event:
            run = _BatchRun(
                cluster, self._partition(workloads), timing, stream_suffix,
                t0=engine.now, done=engine.event("resilient_batch"),
            )
            self._try(run)
            return run.done

        return start

    def _try(self, run: _BatchRun) -> None:
        """Start one attempt; with a deadline, it races the deadline."""
        run.sub = PhaseTiming(batches=1)
        state = run.state
        ended = self._attempt(
            run.cluster, state.workloads, state.forwards, run.sub, state.outcome,
            stream_suffix=run.stream_suffix,
        )
        if self.spec.deadline_ns is None:
            run.cluster.then(ended, partial(self._finish, run))
        else:
            # A deadline tied with the attempt's end still counts the attempt.
            run.cluster.race(
                [ended], self.spec.deadline_ns,
                lambda: self._finish(run) if ended.triggered else self._missed(run),
            )

    def _missed(self, run: _BatchRun) -> None:
        """Deadline breach: back off and retry, or serve what is local."""
        state, outcome = run.state, run.state.outcome
        outcome.retries += 1
        run.attempt += 1
        if run.attempt > MAX_RETRIES:
            # Retries exhausted: abandon the wire entirely and serve
            # whatever is local.  Every remote bag is zero-filled.
            outcome.deadline_missed = True
            state.fully_degraded = True
            outcome.degraded_bags = sum(state.remote_bags.values())
            run.sub = PhaseTiming(batches=1)
            ended = self._attempt(
                run.cluster, self._strip_remote(state.workloads), [], run.sub, outcome,
                stream_suffix=run.stream_suffix,
            )
            run.cluster.then(ended, partial(self._finish, run))
            return
        backoff = BACKOFF_BASE_NS * BACKOFF_MULTIPLIER ** (run.attempt - 1)
        backoff *= 1.0 + JITTER_FRACTION * float(self._rng.random())
        run.cluster.then(backoff, partial(self._try, run))

    def _finish(self, run: _BatchRun) -> None:
        state, outcome, timing, sub = run.state, run.state.outcome, run.timing, run.sub
        outcome.attempts = run.attempt + 1
        timing.compute_ns = sub.compute_ns
        timing.comm_ns = sub.comm_ns
        timing.sync_unpack_ns = sub.sync_unpack_ns
        timing.total_ns = run.cluster.engine.now - run.t0
        outcome.emb_ns = timing.total_ns
        self._last_state = state
        self.last_outcome = outcome
        self.outcomes.append(outcome)
        # Only stamp non-zero deltas: a healthy batch leaves the profiler
        # byte-identical to the wrapped backend's.
        if outcome.retries:
            self._count(RETRY_COUNTER, outcome.retries, "retries")
        if outcome.rerouted_bytes:
            self._count(REROUTE_COUNTER + ".delivered", outcome.rerouted_bytes)
        if outcome.degraded_bags:
            self._count(DEGRADED_COUNTER, outcome.degraded_bags, "bags")
        run.done.succeed()

    def pop_outcome(self) -> Optional[BatchOutcome]:
        """The most recent batch's outcome, consumed (None if already read)."""
        outcome, self.last_outcome = self.last_outcome, None
        return outcome

    # -- functional path ---------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward honouring the last timed batch's degradation.

        Unaffected bags are bit-identical to the wrapped backend; degraded
        (owner, dst) pairs are zero-filled.
        """
        outputs = super().functional_forward(batch)
        state = self._last_state
        if state is None or (not state.degraded_pairs and not state.fully_degraded):
            return outputs
        plan = self.table_plan
        G = plan.n_devices
        for f, t in enumerate(plan.table_configs):
            owner = plan.owner_of(t.name)
            for g in range(G):
                if g == owner:
                    continue
                if state.fully_degraded or (owner, g) in state.degraded_pairs:
                    outputs[g][:, f, :] = 0.0
        return outputs
