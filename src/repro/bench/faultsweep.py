"""Fault sweep: serving SLOs vs. fault severity, per backend.

For each (severity, base backend) point the sweep builds a fresh cluster,
installs a :class:`~repro.faults.FaultPlan` generated from the severity
knob (same seed → same plan shape at every severity, scaled in depth),
and serves a Poisson request stream through the ``"+resilient"`` wrapper
of the base backend with a request deadline, load shedding, and hedged
re-execution enabled.  Severity ``0.0`` is the healthy reference: an
empty plan, where the wrapper reproduces the base backend exactly.

The rendered table answers the deployment question the robustness work
exists for: how do goodput, shed/degraded fractions, and tail latency
decay as the fabric gets sicker — and does the PGAS backend keep its
healthy-path advantage under fault?  ``write_json`` emits
``BENCH_faults.json``; :func:`validate_faultsweep_json` is its self-check:
every offered request is served or shed, every point ran the
``+resilient`` wrapper of its base, and the severity-0 reference is
healthy (no faults, retries, reroutes or degraded rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from ..checks import check_finite
from ..core.pipeline import DLRMInferencePipeline
from ..core.runspec import RunSpec
from ..core.serving import InferenceServer, SchedulerSpec, ServingResult, ServingSpec
from ..dlrm.data import WorkloadConfig
from ..faults import FaultInjector, FaultPlan, ResilienceSpec
from ..simgpu.units import ms
from .sweeps import SweepResult
from .validate import check_artifact, check_point

__all__ = ["FaultSweepPoint", "run_fault_sweep", "validate_faultsweep_json"]


@dataclass(frozen=True)
class FaultSweepPoint:
    """One (severity, base backend) serving measurement."""

    severity: float
    base: str  #: underlying backend name ("pgas" or "baseline")
    n_faults: int  #: windows in the installed plan
    result: ServingResult

    @property
    def backend(self) -> str:
        """The resilient backend name the point ran."""
        return self.result.backend

    def as_dict(self) -> Dict[str, Any]:
        """Grid coordinates plus the full result payload."""
        return {
            "severity": float(self.severity),
            "base": self.base,
            "n_faults": self.n_faults,
            "result": self.result.as_dict(),
        }


def _served(cell: Callable[[ServingResult], str]) -> Callable[[FaultSweepPoint], str]:
    """A cell shown only when the point served at least one request."""
    return lambda p: cell(p.result) if p.result.n_requests > 0 else "-"


_COLUMNS = (
    ("severity", lambda p: f"{p.severity:g}"),
    ("backend", lambda p: p.base),
    ("faults", lambda p: f"{p.n_faults}"),
    ("served", lambda p: f"{p.result.n_requests}/{p.result.n_offered}"),
    ("shed", lambda p: f"{p.result.shed_fraction:.1%}"),
    ("degraded", lambda p: f"{p.result.degraded_fraction:.2%}"),
    ("retries", lambda p: f"{p.result.emb_retries}"),
    ("reroutes", lambda p: f"{p.result.emb_reroutes}"),
    ("hedged", lambda p: f"{p.result.n_hedged}"),
    ("hit rate", _served(lambda r: f"{r.deadline_hit_rate:.1%}")),
    ("p50 (ms)", _served(lambda r: f"{r.p50_ms:.2f}")),
    ("p99 (ms)", _served(lambda r: f"{r.p99_ms:.2f}")),
    ("goodput", _served(lambda r: f"{r.goodput_qps:,.0f}")),
)


def validate_faultsweep_json(data: Any) -> None:
    """Validate a ``BENCH_faults.json`` payload (raises ``ValueError``)."""
    points = check_artifact(
        data,
        kind="faults",
        schema_version=1,
        required_keys=(
            "schema_version", "n_devices", "n_requests", "arrival_qps", "deadline_ns",
        ),
    )
    for i, point in enumerate(points):
        check_point(point, i, ("severity", "base", "n_faults", "result"))
        r = point["result"]
        label = f"point {i} (severity {point['severity']}, {point['base']})"
        if r["backend"] != f"{point['base']}+resilient":
            raise ValueError(f"{label}: ran {r['backend']!r}, not its +resilient wrapper")
        if r["n_requests"] + r["n_shed"] != r["n_offered"]:
            raise ValueError(f"{label}: served + shed != offered requests")
        if point["severity"] == 0 and (
            point["n_faults"] or r["emb_retries"] or r["emb_reroutes"]
            or r["degraded_fraction"]
        ):
            raise ValueError(f"{label}: the healthy reference saw faults")


def run_fault_sweep(
    base_config: WorkloadConfig,
    severities: Sequence[float],
    *,
    bases: Sequence[str] = ("pgas", "baseline"),
    n_devices: int = 4,
    n_requests: int = 64,
    arrival_qps: float = 50_000.0,
    deadline_ns: Optional[float] = 10 * ms,
    emb_deadline_ns: Optional[float] = 5 * ms,
    queue_limit: Optional[int] = 512,
    hedge_after_ns: Optional[float] = None,
    max_batch: int = 8,
    batch_window_ns: float = 0.2 * ms,
    seed: int = 0,
    scheduler: Optional[SchedulerSpec] = None,
) -> SweepResult:
    """Serve a request stream at each fault severity with each base backend.

    Every point gets a *fresh* pipeline (its own cluster: fault state
    never leaks between points) and the same seeds, so the severity axis
    is the only thing changing along a row.  ``emb_deadline_ns`` drives
    the resilient wrapper's retry machinery; ``deadline_ns`` is the
    request-level SLO being reported against.  ``scheduler`` optionally
    enables continuous batching at every point (default: sequential).
    """
    if not severities:
        raise ValueError("need at least one severity")
    if not bases:
        raise ValueError("need at least one base backend")
    check_finite("run_fault_sweep", "arrival_qps", arrival_qps)
    deadline = (
        f"deadline {deadline_ns / ms:.2f} ms"
        if deadline_ns is not None
        else "no deadline"
    )
    sweep = SweepResult(
        title=(
            f"[fault sweep @ {n_devices} GPUs, {n_requests} requests, "
            f"{arrival_qps:,.0f} qps, {deadline}]"
        ),
        columns=_COLUMNS,
        keys=("severity", "base"),
        header={
            "n_devices": n_devices,
            "n_requests": n_requests,
            "arrival_qps": float(arrival_qps),
            "deadline_ns": deadline_ns,
        },
    )
    # Plan horizon: a little past the expected arrival span, so windows
    # land inside the run instead of after it.
    horizon_ns = max(n_requests * 1e9 / arrival_qps * 2.0, 2 * ms)
    for severity in severities:
        for base in bases:
            spec = RunSpec(
                workload=base_config,
                n_devices=n_devices,
                backend=f"{base}+resilient",
                resilience=ResilienceSpec(deadline_ns=emb_deadline_ns, seed=seed),
                serving=ServingSpec(
                    arrival_qps=arrival_qps,
                    max_batch=max_batch,
                    batch_window_ns=batch_window_ns,
                    seed=seed,
                    deadline_ns=deadline_ns,
                    queue_limit=queue_limit,
                    hedge_after_ns=hedge_after_ns,
                    scheduler=scheduler,
                ),
            )
            pipeline = DLRMInferencePipeline.from_spec(spec)
            plan = FaultPlan.generate(
                n_devices, horizon_ns, severity=severity, seed=seed
            )
            FaultInjector(pipeline.cluster, plan).install()
            server = InferenceServer.from_spec(spec, pipeline=pipeline)
            result = server.simulate(n_requests)
            sweep.points.append(
                FaultSweepPoint(
                    severity=severity, base=base, n_faults=len(plan), result=result
                )
            )
    return sweep
