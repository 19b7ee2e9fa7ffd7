"""Serving sweep: continuous-batching goodput across (backend, QPS, K).

For each grid point the sweep builds a fresh pipeline from one
:class:`~repro.core.runspec.RunSpec`, serves a Poisson request stream
through the continuous-batching scheduler, and records the
:class:`~repro.core.serving.ServingResult` — latency percentiles, the
form/queue/execute segment means, goodput, and the interconnect-idle
time the extra in-flight batches exist to reclaim.

The rendered table answers the scheduler's motivating question directly:
at a saturating arrival rate, does keeping K=2 batches in flight raise
goodput and shrink the inter-batch interconnect bubble relative to the
sequential K=1 server — and by how much per backend?  ``write_json``
emits ``BENCH_serving.json``; every point records the one formation
policy, ``"hybrid"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..core.runspec import RunSpec, preset_runspec
from ..core.serving import InferenceServer, SchedulerSpec, ServingResult, ServingSpec
from ..simgpu.units import ms
from .sweeps import SweepResult
from .validate import check_artifact, check_point

__all__ = ["ServeSweepPoint", "run_serve_sweep", "validate_servesweep_json"]


@dataclass(frozen=True)
class ServeSweepPoint:
    """One (backend, QPS, max_in_flight) serving measurement."""

    backend: str
    arrival_qps: float
    max_in_flight: int
    result: ServingResult

    @property
    def idle_share(self) -> float:
        """Interconnect-idle time as a share of the serving window."""
        if self.result.sim_duration_ns <= 0:
            return 0.0
        return self.result.interconnect_idle_ns / self.result.sim_duration_ns

    def as_dict(self) -> Dict[str, Any]:
        """Grid coordinates plus the full result payload."""
        return {
            "backend": self.backend,
            "arrival_qps": float(self.arrival_qps),
            "max_in_flight": self.max_in_flight,
            "policy": "hybrid",
            "idle_share": self.idle_share,
            "result": self.result.as_dict(),
        }


_COLUMNS = (
    ("backend", lambda p: p.backend),
    ("qps", lambda p: f"{p.arrival_qps:,.0f}"),
    ("K", lambda p: f"{p.max_in_flight}"),
    ("policy", lambda p: "hybrid"),
    ("served", lambda p: f"{p.result.n_requests}/{p.result.n_offered}"),
    ("batch", lambda p: f"{p.result.mean_batch_size:.1f}"),
    ("p50 (ms)", lambda p: f"{p.result.p50_ms:.3f}" if p.result.n_requests else "-"),
    ("p99 (ms)", lambda p: f"{p.result.p99_ms:.3f}" if p.result.n_requests else "-"),
    ("form", lambda p: f"{p.result.mean_form_ns / ms:.3f}"),
    ("queue", lambda p: f"{p.result.mean_queue_ns / ms:.3f}"),
    ("exec", lambda p: f"{p.result.mean_execute_ns / ms:.3f}"),
    ("goodput", lambda p: f"{p.result.goodput_qps:,.0f}"),
    ("net idle", lambda p: f"{p.idle_share:.1%}"),
)


def validate_servesweep_json(data: Any) -> None:
    """Validate a ``BENCH_serving.json`` payload (raises ``ValueError``).

    Beyond shape, every point's ``max_in_flight`` must match its result,
    and wherever pgas ran at K=1 and K=2 under the same rate,
    keeping two batches in flight must not lose goodput.
    """
    points = check_artifact(
        data,
        kind="serving",
        schema_version=1,
        required_keys=(
            "schema_version", "preset", "n_devices", "n_requests",
            "max_batch", "batch_window_ns",
        ),
    )
    pgas_goodput: Dict[float, Dict[int, float]] = {}
    for i, point in enumerate(points):
        check_point(
            point, i, ("backend", "arrival_qps", "max_in_flight", "policy", "result")
        )
        result = point["result"]
        if not isinstance(result, dict):
            raise ValueError(f"point {i} result must be a dict")
        for key in ("goodput_qps", "interconnect_idle_ns", "formed_by", "n_requests"):
            if key not in result:
                raise ValueError(f"point {i} result missing key {key!r}")
        if point["max_in_flight"] != result["max_in_flight"]:
            raise ValueError(f"point {i}: max_in_flight disagrees with its result")
        if point["backend"] == "pgas":
            pgas_goodput.setdefault(point["arrival_qps"], {})[point["max_in_flight"]] = (
                result["goodput_qps"]
            )
    for qps, by_k in pgas_goodput.items():
        if 1 in by_k and 2 in by_k and by_k[2] < by_k[1]:
            raise ValueError(
                f"(pgas, {qps:,.0f} qps): K=2 goodput {by_k[2]} "
                f"below K=1 {by_k[1]}"
            )


def run_serve_sweep(
    preset: str = "tiny",
    *,
    n_devices: int = 2,
    backends: Sequence[str] = ("pgas", "baseline"),
    qps: Sequence[float] = (200_000.0,),
    max_in_flight: Sequence[int] = (1, 2),
    n_requests: int = 32,
    max_batch: int = 8,
    batch_window_ns: float = 0.1 * ms,
    deadline_ns: Optional[float] = None,
    queue_limit: Optional[int] = None,
    seed: int = 0,
) -> SweepResult:
    """Serve a request stream at every (backend, QPS, K) point.

    Every point gets a *fresh* pipeline (its own cluster, so profiler
    records and stream queues never leak between points) built from one
    :class:`RunSpec`, and identical seeds — the grid coordinates are the
    only thing changing between rows.
    """
    if not backends or not qps or not max_in_flight:
        raise ValueError("every sweep axis needs at least one value")
    base_spec = preset_runspec(preset, n_devices)
    sweep = SweepResult(
        title=(
            f"[serve sweep: {preset} preset, {n_devices} GPUs, "
            f"{n_requests} requests/point, max batch {max_batch}, "
            f"window {batch_window_ns / ms:.2f} ms]"
        ),
        columns=_COLUMNS,
        keys=("backend", "arrival_qps", "max_in_flight"),
        header={
            "preset": preset,
            "n_devices": n_devices,
            "n_requests": n_requests,
            "max_batch": max_batch,
            "batch_window_ns": float(batch_window_ns),
        },
    )
    for backend in backends:
        for rate in qps:
            for k in max_in_flight:
                spec = RunSpec(
                    workload=base_spec.workload,
                    n_devices=n_devices,
                    backend=backend,
                    name=preset,
                    serving=ServingSpec(
                        arrival_qps=rate,
                        max_batch=max_batch,
                        batch_window_ns=batch_window_ns,
                        seed=seed,
                        deadline_ns=deadline_ns,
                        queue_limit=queue_limit,
                        scheduler=SchedulerSpec(max_in_flight=k),
                    ),
                )
                server = InferenceServer.from_spec(spec)
                result = server.simulate(n_requests)
                sweep.points.append(
                    ServeSweepPoint(
                        backend=backend, arrival_qps=rate, max_in_flight=k, result=result
                    )
                )
    return sweep
