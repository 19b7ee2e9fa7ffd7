#!/usr/bin/env python
"""Fault injection + resilient serving: SLOs under a degrading fabric.

Serves the same Poisson request stream through ``pgas+resilient`` on a
healthy cluster and on one with an installed :class:`~repro.faults.FaultPlan`
(degraded links, latency spikes, a link flap, a straggler device).  The
resilient wrapper retries attempts that blow the EMB deadline, reroutes
around downed links through a healthy peer, and zero-fills what it still
cannot reach — reporting the degraded share instead of crashing — while
the server sheds load past its queue bound and hedges slow batches.

Prints both SLO reports plus the severity sweep table, and writes a
Chrome trace of the faulty run in which every fault window is visible.

Run:  python examples/fault_tolerant_serving.py
"""

from __future__ import annotations

from repro import FaultInjector, FaultPlan, FeatureSpec, ResilienceSpec, WorkloadConfig
from repro.bench.faultsweep import run_fault_sweep
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.serving import InferenceServer, ServingSpec
from repro.simgpu.trace import write_chrome_trace
from repro.simgpu.units import ms


def main() -> None:
    config = WorkloadConfig(
        num_tables=8,
        rows_per_table=4_096,
        dim=16,
        batch_size=512,
        max_pooling=4,
        seed=11,
    )
    n_gpus = 4
    n_requests = 48
    severity = 0.8

    spec = ServingSpec(
        arrival_qps=50_000.0,
        max_batch=8,
        batch_window_ns=0.2 * ms,
        seed=1,
        deadline_ns=2 * ms,       # request SLO
        queue_limit=64,           # shed beyond this queue depth
        hedge_after_ns=1 * ms,    # re-execute batches slower than this
    )
    resilience = ResilienceSpec(deadline_ns=0.25 * ms, seed=0)

    print(f"workload: {config.num_tables} tables x {config.rows_per_table} rows "
          f"x d={config.dim}, {n_gpus} GPUs, {n_requests} requests @ "
          f"{spec.arrival_qps:,.0f} qps\n")

    results = {}
    for label, sev in (("healthy", 0.0), ("faulty", severity)):
        pipeline = DLRMInferencePipeline(
            PipelineConfig(workload=config), n_gpus,
            backend="pgas+resilient", features=FeatureSpec(resilience=resilience),
        )
        plan = FaultPlan.generate(n_gpus, 2 * ms, severity=sev, seed=7)
        FaultInjector(pipeline.cluster, plan).install()
        result = InferenceServer(pipeline, spec).simulate(n_requests)
        results[label] = result
        print(f"-- {label} (severity {sev:g}, {len(plan)} fault windows) --")
        print(result.slo_report())
        print()
        if label == "faulty":
            write_chrome_trace(pipeline.cluster.profiler, "faulty_serving.json")

    h, f = results["healthy"], results["faulty"]
    print(f"p99 {h.p99_ms:.2f} -> {f.p99_ms:.2f} ms, "
          f"goodput {h.goodput_qps:,.0f} -> {f.goodput_qps:,.0f} qps under fault")
    print("trace with fault windows written to faulty_serving.json\n")

    print("-- severity sweep (pgas vs baseline under the same plans) --")
    sweep = run_fault_sweep(
        config,
        severities=[0.0, 0.3, 0.6, 0.9],
        bases=("pgas", "baseline"),
        n_devices=n_gpus,
        n_requests=n_requests,
        arrival_qps=spec.arrival_qps,
        deadline_ns=spec.deadline_ns,
        emb_deadline_ns=resilience.deadline_ns,
    )
    print(sweep.render())


if __name__ == "__main__":
    main()
