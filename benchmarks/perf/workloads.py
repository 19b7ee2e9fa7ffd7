"""The benchmark's four workloads, driven only through public entry points.

Each workload is a fixed-length *round*: :meth:`Workload.setup` builds
fresh system objects (plus a warm-up batch on throwaway objects, so the
measured ones start from a pristine simulated clock), and
:meth:`Workload.run` generates the round's inputs from the seed and
simulates them.  Every round replays the same inputs, so its simulated
``record`` must repeat bit-for-bit; the runner checks that and repeats
rounds until its time budget is spent.

Why these four:

* ``paper`` — the paper's T1/T2 protocol, the only workload with a
  reference result.  Host time goes to input generation, workload build
  and the kernel wave model; engine and O(G^2) work is small at G <= 4.
* ``scale-g64`` — 64 GPUs, both backends: the host-time shape where the
  O(G^2) per-destination reductions and the event engine dominate.
* ``train-strong-g4`` — training steps carry gradient writes back to the
  table owners, so a comm change that helps the forward but hurts the
  backward shows here.
* ``serve-prod-g8`` — a production DLRM shape served open-loop; EMB is
  under half of a step, so EMB-only gains shrink (Amdahl), and batching or
  queueing changes show in the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.bench.scaling import geomean
from repro.core.baseline import PhaseTiming
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.retrieval import DistributedEmbedding
from repro.core.serving import InferenceServer, SchedulerSpec, ServingSpec
from repro.core.train_pipeline import DLRMTrainingPipeline, TrainStepTiming
from repro.dlrm.data import (
    STRONG_SCALING_TOTAL,
    WEAK_SCALING_BASE,
    SyntheticDataGenerator,
    WorkloadConfig,
)
from repro.simgpu.units import ms

BACKENDS = ("baseline", "pgas")
#: warm-up inputs come from their own generator, offset from the run seed,
#: so the measured stream equals the library's own experiment stream
WARM_SEED_OFFSET = 1_000_003
WARM_BATCH = 512

#: the paper's reported geomean speedups (PGAS over the NCCL baseline)
PAPER_T1_WEAK = 1.97
PAPER_T2_STRONG = 2.63


@dataclass
class RoundResult:
    """What one measured round produced."""

    record: Dict[str, float]  #: simulated values; must repeat exactly every round
    attempted: int  #: batches, steps or requests offered
    failed: int = 0  #: shed or errored operations
    events: int = 0  #: engine events simulated (sum of ``Engine._seq``)
    errors: List[str] = field(default_factory=list)


def _embedding(cfg: WorkloadConfig, n_devices: int, backend: str) -> DistributedEmbedding:
    emb = DistributedEmbedding(cfg, n_devices, backend=backend)
    emb.backend_adapter()  # adapters are built lazily; build them in set-up
    return emb


def _events(clusters) -> int:
    # A private read with no overhead: the engine's monotone schedule count.
    return sum(c.engine._seq for c in clusters)


def _fabric(be: str, cluster, report, batches: float) -> Dict[str, float]:
    """Interconnect and telemetry layers of one backend's objects, per batch."""
    links = cluster.interconnect.links()
    return {
        f"interconnect.wire_mb_per_batch.{be}":
            sum(lk.bytes_carried for lk in links) / batches / 1e6,
        f"interconnect.messages_per_batch.{be}": sum(lk.messages_sent for lk in links) / batches,
        f"telemetry.overlap_fraction.{be}": report.metric("overlap_fraction"),
        f"telemetry.link_peak_to_mean.{be}": report.metric("link_peak_to_mean"),
    }


def _check_phases(errors: List[str], where: str, t: PhaseTiming, baseline: bool) -> None:
    if not (math.isfinite(t.total_ns) and t.total_ns > 0):
        errors.append(f"{where}: simulated time {t.total_ns!r} is not finite and positive")
    # The three baseline phases tile the wall; allow the sum's rounding only.
    if baseline and abs(t.overhead_ns) > 4 * math.ulp(t.total_ns):
        errors.append(f"{where}: baseline phases miss the wall by {t.overhead_ns} ns")


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        """``smoke`` shortens the round (fewer steps, requests or GPUs)."""
        self.seed = seed

    def setup(self):
        """Fresh system objects for one round (warm-up included)."""
        raise NotImplementedError

    def run(self, state) -> Iterator[None]:
        """The measured stream: generate inputs, simulate them.

        A generator: it yields after each unit of work (a batch, a step, a
        serving rate), so the runner can time every unit, and returns the
        round's :class:`RoundResult`.  Units repeat identically each round.
        """
        raise NotImplementedError

    def sim_ms(self, record: Dict[str, float]) -> float:
        """The workload's headline simulated time (the ``sim_ms`` metric)."""
        raise NotImplementedError

    def layers(self, state, record: Dict[str, float]) -> Dict[str, float]:
        """Simulated per-layer metrics, computed after the measured loop."""
        raise NotImplementedError

    def shapes(self) -> List[Tuple[WorkloadConfig, int]]:
        """``(tables config, GPUs)`` pairs the correctness gate verifies."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper: T1 (weak) and T2 (strong) at G = 2, 3, 4
# ---------------------------------------------------------------------------

PAPER_POINTS = tuple((kind, G) for kind in ("weak", "strong") for G in (2, 3, 4))


def _paper_config(kind: str, n_devices: int) -> WorkloadConfig:
    if kind == "weak":
        return WEAK_SCALING_BASE.scaled_tables(WEAK_SCALING_BASE.num_tables * n_devices)
    return STRONG_SCALING_TOTAL


class Paper(Workload):
    """Both presets at G = 2, 3, 4; pgas and baseline see identical lengths."""

    name = "paper"
    n_batches = 10  # the committed T1/T2 artifacts use 10 batches per point

    def setup(self):
        warm = replace(
            _paper_config("weak", 4), batch_size=WARM_BATCH, seed=self.seed + WARM_SEED_OFFSET
        )
        lengths = SyntheticDataGenerator(warm).lengths_batch()
        for be in BACKENDS:
            DistributedEmbedding(warm, 4, backend=be).forward_timed(lengths)
        return {
            (kind, G): {be: _embedding(_paper_config(kind, G), G, be) for be in BACKENDS}
            for kind, G in PAPER_POINTS
        }

    def run(self, state) -> Iterator[None]:
        record: Dict[str, float] = {}
        errors: List[str] = []
        for kind, G in PAPER_POINTS:
            gen = SyntheticDataGenerator(replace(_paper_config(kind, G), seed=self.seed))
            totals = {be: PhaseTiming() for be in BACKENDS}
            # Backends have separate clusters, so feeding them batch by batch
            # simulates exactly what two whole-stream passes would, with one
            # batch of lengths in memory instead of the stream.
            for i in range(self.n_batches):
                lengths = gen.lengths_batch()
                for be in BACKENDS:
                    t = state[kind, G][be].forward_timed(lengths)
                    _check_phases(errors, f"{kind} G={G} {be} batch {i}", t, be == "baseline")
                    totals[be].add(t)
                yield
            for be, total in totals.items():
                for phase, value in total.as_dict().items():
                    record[f"{kind}{G}.{be}.{phase}"] = value
        clusters = [emb.cluster for pair in state.values() for emb in pair.values()]
        return RoundResult(
            record, attempted=len(PAPER_POINTS) * len(BACKENDS) * self.n_batches,
            events=_events(clusters), errors=errors,
        )

    def _per_batch_ms(self, record, kind, G, be, phase) -> float:
        return record[f"{kind}{G}.{be}.{phase}"] / self.n_batches / 1e6

    def _speedup(self, record, kind, G) -> float:
        return record[f"{kind}{G}.baseline.total_ns"] / record[f"{kind}{G}.pgas.total_ns"]

    def sim_ms(self, record) -> float:
        return geomean(
            self._per_batch_ms(record, k, G, "pgas", "total_ns") for k, G in PAPER_POINTS
        )

    def layers(self, state, record) -> Dict[str, float]:
        t1 = geomean(self._speedup(record, "weak", G) for G in (2, 3, 4))
        t2 = geomean(self._speedup(record, "strong", G) for G in (2, 3, 4))
        out = {
            "emb.pgas_ms": self.sim_ms(record),
            "emb.speedup": geomean(self._speedup(record, k, G) for k, G in PAPER_POINTS),
            "paper.t1_speedup": t1,
            "paper.t2_speedup": t2,
            "paper.t1_err_pct": 100.0 * abs(t1 - PAPER_T1_WEAK) / PAPER_T1_WEAK,
            "paper.t2_err_pct": 100.0 * abs(t2 - PAPER_T2_STRONG) / PAPER_T2_STRONG,
        }
        for phase in ("compute", "comm", "sync_unpack"):
            out[f"emb.baseline_{phase}_ms"] = geomean(
                self._per_batch_ms(record, k, G, "baseline", f"{phase}_ns")
                for k, G in PAPER_POINTS
            )
        # Fabric and telemetry layers at the paper's 4-GPU weak point.
        for be, emb in state["weak", 4].items():
            out.update(_fabric(be, emb.cluster, emb.telemetry_report(), self.n_batches))
        devices = state["weak", 4]["pgas"].cluster.devices
        out["memory.max_device_gb"] = max(d.memory.used for d in devices) / 1e9
        return out

    def shapes(self):
        return [(_paper_config(kind, G), G) for kind, G in PAPER_POINTS]


# ---------------------------------------------------------------------------
# scale-g64: 64 GPUs, flat NVLink, both backends
# ---------------------------------------------------------------------------


class ScaleG64(Workload):
    """1024 tables (16 per GPU), pooling <= 32, d = 64, B = 16384, one batch per round."""

    name = "scale-g64"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_devices = 8 if smoke else 64
        self.config = WorkloadConfig(
            num_tables=16 * self.n_devices, dim=64, batch_size=16_384, max_pooling=32,
            seed=seed,
        )

    def setup(self):
        warm = replace(self.config, batch_size=WARM_BATCH, seed=self.seed + WARM_SEED_OFFSET)
        lengths = SyntheticDataGenerator(warm).lengths_batch()
        for be in BACKENDS:
            DistributedEmbedding(warm, self.n_devices, backend=be).forward_timed(lengths)
        return {be: _embedding(self.config, self.n_devices, be) for be in BACKENDS}

    def run(self, state) -> Iterator[None]:
        lengths = SyntheticDataGenerator(self.config).lengths_batch()
        yield
        record: Dict[str, float] = {}
        errors: List[str] = []
        for be in BACKENDS:
            t = state[be].forward_timed(lengths)
            _check_phases(errors, be, t, be == "baseline")
            for phase, value in t.as_dict().items():
                record[f"{be}.{phase}"] = value
            yield
        return RoundResult(
            record, attempted=len(BACKENDS),
            events=_events(emb.cluster for emb in state.values()), errors=errors,
        )

    def sim_ms(self, record) -> float:
        return record["pgas.total_ns"] / 1e6

    def layers(self, state, record) -> Dict[str, float]:
        out = {
            "emb.pgas_ms": self.sim_ms(record),
            "emb.speedup": record["baseline.total_ns"] / record["pgas.total_ns"],
        }
        for phase in ("compute", "comm", "sync_unpack"):
            out[f"emb.baseline_{phase}_ms"] = record[f"baseline.{phase}_ns"] / 1e6
        for be, emb in state.items():
            out.update(_fabric(be, emb.cluster, emb.telemetry_report(), 1))
        devices = state["pgas"].cluster.devices
        out["memory.max_device_gb"] = max(d.memory.used for d in devices) / 1e9
        return out

    def shapes(self):
        return [(self.config, self.n_devices)]


# ---------------------------------------------------------------------------
# train-strong-g4: forward + backward training steps
# ---------------------------------------------------------------------------


class TrainStrongG4(Workload):
    """``DLRMTrainingPipeline.run_step`` on the strong preset at 4 GPUs."""

    name = "train-strong-g4"
    n_devices = 4

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_steps = 5 if smoke else 30
        self.config = PipelineConfig(workload=replace(STRONG_SCALING_TOTAL, seed=seed))

    def setup(self):
        warm_wl = replace(
            self.config.workload, batch_size=WARM_BATCH, seed=self.seed + WARM_SEED_OFFSET
        )
        lengths = SyntheticDataGenerator(warm_wl).lengths_batch()
        for be in BACKENDS:
            DLRMTrainingPipeline(
                replace(self.config, workload=warm_wl), self.n_devices, backend=be
            ).run_step(lengths)
        return {
            be: DLRMTrainingPipeline(self.config, self.n_devices, backend=be) for be in BACKENDS
        }

    def run(self, state) -> Iterator[None]:
        gen = SyntheticDataGenerator(self.config.workload)
        totals = {be: TrainStepTiming() for be in BACKENDS}
        errors: List[str] = []
        for i in range(self.n_steps):
            lengths = gen.lengths_batch()
            for be in BACKENDS:
                t = state[be].run_step(lengths)
                where = f"{be} step {i}"
                _check_phases(errors, where + " forward EMB", t.forward.emb, be == "baseline")
                if not t.total_ns >= t.forward.total_ns > 0:
                    errors.append(
                        f"{where}: step {t.total_ns} ns < forward {t.forward.total_ns} ns"
                    )
                totals[be].add(t)
            yield
        record: Dict[str, float] = {}
        for be, total in totals.items():
            record[f"{be}.step_ns"] = total.total_ns
            record[f"{be}.fwd_ns"] = total.forward.total_ns
            record[f"{be}.dense_bwd_ns"] = total.dense_backward_ns
            record[f"{be}.emb_bwd_ns"] = total.emb_backward.total_ns
            for phase, value in total.forward.emb.as_dict().items():
                record[f"{be}.emb.{phase}"] = value
        return RoundResult(
            record, attempted=len(BACKENDS) * self.n_steps,
            events=_events(p.cluster for p in state.values()), errors=errors,
        )

    def _ms(self, record, key) -> float:
        return record[key] / self.n_steps / 1e6

    def sim_ms(self, record) -> float:
        return self._ms(record, "pgas.step_ns")

    def layers(self, state, record) -> Dict[str, float]:
        out = {
            "emb.pgas_ms": self._ms(record, "pgas.emb.total_ns"),
            "emb.speedup": record["baseline.emb.total_ns"] / record["pgas.emb.total_ns"],
            "train.step_speedup": record["baseline.step_ns"] / record["pgas.step_ns"],
        }
        for phase in ("compute", "comm", "sync_unpack"):
            out[f"emb.baseline_{phase}_ms"] = self._ms(record, f"baseline.emb.{phase}_ns")
        for be, pipe in state.items():
            for part in ("fwd", "dense_bwd", "emb_bwd"):
                out[f"train.{part}_ms.{be}"] = self._ms(record, f"{be}.{part}_ns")
            report = pipe.forward_pipeline.telemetry_report()
            out.update(_fabric(be, pipe.cluster, report, self.n_steps))
        return out

    def shapes(self):
        return [(self.config.workload, self.n_devices)]


# ---------------------------------------------------------------------------
# serve-prod-g8: open-loop serving of a production DLRM shape
# ---------------------------------------------------------------------------

#: offered loads, requests per second
SERVE_RATES = (40_000, 80_000, 120_000, 160_000)
SERVE_DEADLINE_NS = 5 * ms
#: the rate whose p99 is the workload's headline simulated time
SERVE_HEADLINE_RATE = 120_000


def _rate_tag(rate: int) -> str:
    return f"{rate // 1000}k"


class ServeProdG8(Workload):
    """Config 1 of the production DLRM shapes, served by pgas on 8 GPUs.

    308 tables x 555 693 rows, d = 94, fixed pooling 8, 1414 dense
    features, bottom MLP 8 x 1750, top MLP 36 x 1450.  Poisson arrivals
    (open loop); each rate is served on a fresh pipeline.
    """

    name = "serve-prod-g8"
    n_devices = 8

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_requests = 1000 if smoke else 5000
        workload = WorkloadConfig(
            num_tables=308, rows_per_table=555_693, dim=94, batch_size=256,
            min_pooling=8, max_pooling=8, num_dense_features=1414, seed=seed,
        )
        self.config = PipelineConfig(
            workload=workload, bottom_mlp=(1750,) * 8, top_mlp=(1450,) * 36
        )

    def _spec(self, rate: int) -> ServingSpec:
        return ServingSpec(
            arrival_qps=rate, max_batch=256, batch_window_ns=1 * ms,
            deadline_ns=SERVE_DEADLINE_NS, queue_limit=2048, seed=self.seed,
            scheduler=SchedulerSpec(max_in_flight=2),
        )

    def _pipeline(self, backend: str) -> DLRMInferencePipeline:
        return DLRMInferencePipeline(self.config, self.n_devices, backend=backend)

    def setup(self):
        warm = replace(self.config.workload, seed=self.seed + WARM_SEED_OFFSET)
        self._pipeline("pgas").run_batch(SyntheticDataGenerator(warm).lengths_batch())
        return {
            rate: InferenceServer(self._pipeline("pgas"), self._spec(rate)) for rate in SERVE_RATES
        }

    def run(self, state) -> Iterator[None]:
        record: Dict[str, float] = {}
        errors: List[str] = []
        shed = 0
        for rate, server in state.items():
            r = server.simulate(self.n_requests)
            tag = _rate_tag(rate)
            if r.n_requests + r.n_shed != self.n_requests:
                errors.append(
                    f"{tag}: served {r.n_requests} + shed {r.n_shed} != offered {self.n_requests}"
                )
            if r.n_requests:
                segments = r.form_ns + r.queue_ns + r.execute_ns
                if not np.allclose(segments, r.latencies_ns, rtol=1e-12, atol=1e-6):
                    errors.append(f"{tag}: form + queue + execute != latency")
                if not (np.all(np.isfinite(r.latencies_ns)) and np.all(r.latencies_ns > 0)):
                    errors.append(f"{tag}: latencies are not finite and positive")
            shed += r.n_shed
            record[f"{tag}.p50_ms"] = r.p50_ms
            record[f"{tag}.p99_ms"] = r.p99_ms
            record[f"{tag}.throughput_qps"] = r.throughput_qps
            record[f"{tag}.goodput_qps"] = r.goodput_qps
            record[f"{tag}.shed"] = float(r.n_shed)
            record[f"{tag}.form_ms"] = r.mean_form_ns / 1e6
            record[f"{tag}.queue_ms"] = r.mean_queue_ns / 1e6
            record[f"{tag}.execute_ms"] = r.mean_execute_ns / 1e6
            record[f"{tag}.batch_size_mean"] = r.mean_batch_size
            record[f"{tag}.batches"] = float(r.n_batches)
            record[f"{tag}.interconnect_idle_ms"] = r.interconnect_idle_ns / 1e6
            yield
        return RoundResult(
            record, attempted=len(SERVE_RATES) * self.n_requests, failed=shed,
            events=_events(s.pipeline.cluster for s in state.values()), errors=errors,
        )

    def sim_ms(self, record) -> float:
        return record[f"{_rate_tag(SERVE_HEADLINE_RATE)}.p99_ms"]

    def layers(self, state, record) -> Dict[str, float]:
        head = _rate_tag(SERVE_HEADLINE_RATE)
        out: Dict[str, float] = {}
        for rate in SERVE_RATES:
            tag = _rate_tag(rate)
            for key in ("p50_ms", "p99_ms", "throughput_qps", "shed"):
                out[f"serving.{key}.{tag}"] = record[f"{tag}.{key}"]
        for key in ("form_ms", "queue_ms", "execute_ms", "batch_size_mean", "interconnect_idle_ms"):
            out[f"serving.{key}"] = record[f"{head}.{key}"]
        # Highest offered rate whose tail meets the deadline with nothing shed.
        meets = [
            rate for rate in SERVE_RATES
            if record[f"{_rate_tag(rate)}.p99_ms"] * ms <= SERVE_DEADLINE_NS
            and record[f"{_rate_tag(rate)}.shed"] == 0
        ]
        out["serving.max_qps_at_slo"] = float(max(meets, default=0))
        out["serving.goodput_qps"] = record[f"{_rate_tag(SERVE_RATES[-1])}.goodput_qps"]

        pipe = state[SERVE_HEADLINE_RATE].pipeline
        out.update(
            _fabric("pgas", pipe.cluster, pipe.telemetry_report(), record[f"{head}.batches"])
        )

        # One full batch at max_batch on fresh pipelines: the stage split
        # that bounds how far an EMB-only gain can move the tail.
        lengths = SyntheticDataGenerator(self.config.workload).lengths_batch()
        timing = {be: self._pipeline(be).run_batch(lengths) for be in BACKENDS}
        pt = timing["pgas"]
        out["pipeline.input_copy_ms"] = pt.input_copy_ns / 1e6
        out["pipeline.dense_mlp_ms"] = pt.dense_mlp_ns / 1e6
        out["pipeline.emb_ms"] = pt.emb.total_ns / 1e6
        out["pipeline.interaction_top_ms"] = pt.interaction_top_ns / 1e6
        out["pipeline.emb_fraction"] = pt.emb_fraction
        out["emb.pgas_ms"] = pt.emb.total_ns / 1e6
        base = timing["baseline"].emb
        out["emb.speedup"] = base.total_ns / pt.emb.total_ns
        for phase in ("compute", "comm", "sync_unpack"):
            out[f"emb.baseline_{phase}_ms"] = getattr(base, f"{phase}_ns") / 1e6
        return out

    def shapes(self):
        return [(self.config.workload, self.n_devices)]


WORKLOADS = {w.name: w for w in (Paper, ScaleG64, TrainStrongG4, ServeProdG8)}
