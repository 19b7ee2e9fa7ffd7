"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``   regenerate the paper's tables/figures (all or one id)
``report``      write the paper-vs-measured markdown report to a file
``run``         time one workload on both backends and print the phases
``sweep``       sweep a workload knob and print speedups per point
``cachesweep``  hot-row cache hit rate / comm / speedup vs skew and capacity
``faultsweep``  serving SLOs (shed/degraded/p99/goodput) vs fault severity
``servesweep``  continuous-batching goodput vs in-flight depth K + BENCH_serving.json
``compsweep``   codec x backend wire/time/error grid + BENCH_compression.json
``chaossweep``  availability/goodput vs replication k x failures + BENCH_availability.json
``skewsweep``   online resharding vs static placement under skew + BENCH_reshard.json
``hiersweep``   flat vs hierarchical routing across node geometries + BENCH_hier.json
``critpath``    traced critical-path attribution + BENCH_critpath.json (and
                an optional regression gate against a committed baseline)
``backends``    list the registered backends with their capability flags
``plan``        capacity-aware table placement for a Criteo-like table set
``trace``       run one batch and write a chrome://tracing JSON timeline
``metrics``     pgas-vs-baseline telemetry metrics + BENCH_metrics.json

The preset names accepted by ``metrics``/``servesweep`` resolve through
:func:`repro.core.runspec.preset_runspec`, so the CLI and the library see
identical workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .bench.runner import EXPERIMENT_IDS, ExperimentRunner
from .bench.sweeps import batch_size_sweep, pooling_sweep, table_count_sweep
from .compress import CODEC_NAMES
from .core.planner import plan_table_wise
from .core.retrieval import DistributedEmbedding, available_backends, backend_spec
from .core.runspec import PRESETS
from .dlrm.data import SyntheticDataGenerator, WEAK_SCALING_BASE, WorkloadConfig
from .dlrm.heterogeneous import criteo_like
from .simgpu.device import V100_SPEC
from .simgpu.trace import summarize_spans, write_chrome_trace
from .simgpu.units import to_ms

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (bad values exit 2 naming the flag)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _zipf_alpha(text: str) -> float:
    """argparse type: a zipf exponent, which must exceed 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 1.0:
        raise argparse.ArgumentTypeError(f"zipf alpha must be > 1, got {value}")
    return value


def _workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tables", type=_positive_int, default=64, help="number of embedding tables")
    p.add_argument("--rows", type=_positive_int, default=1_000_000, help="rows per table")
    p.add_argument("--dim", type=_positive_int, default=64, help="embedding dimension")
    p.add_argument("--batch", type=_positive_int, default=16_384, help="batch size")
    p.add_argument("--pooling", type=int, default=128, help="max pooling factor")
    p.add_argument("--gpus", type=_positive_int, default=2, help="simulated GPU count")
    p.add_argument("--seed", type=int, default=2024)


def _workload_from(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        num_tables=args.tables,
        rows_per_table=args.rows,
        dim=args.dim,
        batch_size=args.batch,
        max_pooling=args.pooling,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="PGAS-style multi-GPU embedding retrieval (SC'24 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("reproduce", help="regenerate the paper's tables and figures")
    rp.add_argument("--batches", type=int, default=10, help="batches per measurement")
    rp.add_argument("--scale", type=float, default=1.0, help="batch-size scale factor")
    rp.add_argument("--only", choices=EXPERIMENT_IDS, default=None)

    rn = sub.add_parser("run", help="time one workload on both backends")
    _workload_args(rn)
    rn.add_argument("--batches", type=int, default=1)

    sw = sub.add_parser("sweep", help="sweep one workload knob")
    _workload_args(sw)
    sw.add_argument("knob", choices=("batch_size", "max_pooling", "num_tables"))
    sw.add_argument("values", type=float, nargs="+", help="knob values to sweep")

    cs = sub.add_parser("cachesweep", help="hot-row cache sweep (skew x capacity)")
    _workload_args(cs)
    cs.set_defaults(tables=8, rows=4096, dim=32, batch=1024, pooling=4)
    cs.add_argument("--alphas", type=_zipf_alpha, nargs="+", default=[1.05, 1.1, 1.2],
                    help="zipf skew values")
    cs.add_argument("--capacities", type=float, nargs="+", default=[0.05, 0.1, 0.2],
                    help="cache capacity as a fraction of remote rows")
    cs.add_argument("--policy", choices=("lru", "lfu", "static-topk"), default="lru")
    cs.add_argument("--batches", type=int, default=4, help="measured batches per point")
    cs.add_argument("--base", choices=("pgas", "baseline"), default="pgas",
                    help="underlying backend to wrap")

    fs = sub.add_parser("faultsweep", help="serving SLOs vs fault severity")
    _workload_args(fs)
    fs.set_defaults(tables=8, rows=4096, dim=16, batch=512, pooling=4, gpus=4)
    fs.add_argument("--severities", type=float, nargs="+", default=[0.0, 0.3, 0.6, 0.9],
                    help="fault severities in [0, 1] (0 = healthy reference)")
    fs.add_argument("--backends", nargs="+", choices=("pgas", "baseline"),
                    default=["pgas", "baseline"], help="base backends to wrap")
    fs.add_argument("--requests", type=int, default=48, help="requests per point")
    fs.add_argument("--qps", type=float, default=50_000.0, help="offered load")
    fs.add_argument("--deadline-ms", type=float, default=2.0,
                    help="request SLO deadline (ms)")
    fs.add_argument("--emb-deadline-ms", type=float, default=0.25,
                    help="per-attempt EMB deadline driving retries (ms)")
    fs.add_argument("--queue-limit", type=int, default=512,
                    help="shed arrivals beyond this queue depth")
    fs.add_argument("--hedge-ms", type=float, default=None,
                    help="hedge batches running longer than this (ms)")

    ss = sub.add_parser("servesweep",
                        help="continuous-batching goodput sweep + BENCH_serving.json")
    ss.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    ss.add_argument("--gpus", type=_positive_int, default=2, help="simulated GPU count")
    ss.add_argument("--backends", nargs="+", default=["pgas", "baseline"],
                    help="backends to compare")
    ss.add_argument("--qps", type=float, nargs="+", default=[200_000.0],
                    help="offered arrival rates")
    ss.add_argument("--k", type=int, nargs="+", default=[1, 2],
                    help="max in-flight batches (scheduler depth) values")
    ss.add_argument("--policies", nargs="+", choices=("size", "timeout", "hybrid"),
                    default=["hybrid"], help="batch-formation policies")
    ss.add_argument("--requests", type=int, default=32, help="requests per point")
    ss.add_argument("--max-batch", type=int, default=8, help="batcher's size cap")
    ss.add_argument("--window-ms", type=float, default=0.1,
                    help="batch-formation window (ms)")
    ss.add_argument("--deadline-ms", type=float, default=None,
                    help="request SLO deadline (ms); goodput counts hits only")
    ss.add_argument("--seed", type=int, default=0)
    ss.add_argument("--output", default="BENCH_serving.json",
                    help="machine-readable artifact path ('' to skip)")

    cp = sub.add_parser("compsweep",
                        help="codec x backend compression sweep + BENCH_compression.json")
    cp.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    cp.add_argument("--gpus", type=_positive_int, default=2, help="simulated GPU count")
    cp.add_argument("--codecs", nargs="+", choices=CODEC_NAMES,
                    default=list(CODEC_NAMES), help="wire codecs to measure")
    cp.add_argument("--backends", nargs="+", choices=("pgas", "baseline"),
                    default=["pgas", "baseline"], help="base backends to wrap")
    cp.add_argument("--batches", type=int, default=2, help="batches per point")
    cp.add_argument("--batch-sizes", type=int, nargs="+", default=None,
                    help="batch sizes to sweep (default: the preset's)")
    cp.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = preset size)")
    cp.add_argument("--error-rows", type=int, default=512,
                    help="synthetic vectors per codec for the error measurement")
    cp.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")
    cp.add_argument("--output", default="BENCH_compression.json",
                    help="machine-readable artifact path ('' to skip)")

    ch = sub.add_parser("chaossweep",
                        help="replication/failover availability sweep + "
                             "BENCH_availability.json")
    ch.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    ch.add_argument("--gpus", type=_positive_int, default=4, help="simulated GPU count")
    ch.add_argument("--k", type=int, nargs="+", default=[1, 2],
                    help="replication factors to measure")
    ch.add_argument("--failures", type=int, nargs="+", default=[0, 1],
                    help="permanent device_down counts per point")
    ch.add_argument("--backends", nargs="+", choices=("pgas", "baseline"),
                    default=["pgas", "baseline"], help="base backends to wrap")
    ch.add_argument("--placement", choices=("spread", "ring"), default="spread",
                    help="replica placement policy")
    ch.add_argument("--batches", type=int, default=6,
                    help="batches per point (first is the healthy warm-up)")
    ch.add_argument("--recovery-share", type=float, default=0.25,
                    help="link bandwidth share granted to recovery streams")
    ch.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = preset size)")
    ch.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")
    ch.add_argument("--output", default="BENCH_availability.json",
                    help="machine-readable artifact path ('' to skip)")

    sk = sub.add_parser("skewsweep",
                        help="online resharding vs static placement sweep + "
                             "BENCH_reshard.json")
    sk.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    sk.add_argument("--gpus", type=_positive_int, default=4, help="simulated GPU count")
    sk.add_argument("--backends", nargs="+",
                    default=["pgas", "pgas+reshard", "baseline",
                             "baseline+reshard"],
                    help="backends to compare (mix static and +reshard)")
    sk.add_argument("--skews", type=float, nargs="+", default=[0.0, 1.05],
                    help="table traffic skew exponents (0 = uniform)")
    sk.add_argument("--batches", type=int, default=10, help="batches per point")
    sk.add_argument("--threshold", type=float, default=1.1,
                    help="planner max/mean imbalance trigger")
    sk.add_argument("--migration-share", type=float, default=0.25,
                    help="link bandwidth share granted to migration streams")
    sk.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = preset size)")
    sk.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")
    sk.add_argument("--output", default="BENCH_reshard.json",
                    help="machine-readable artifact path ('' to skip)")

    hs = sub.add_parser("hiersweep",
                        help="flat vs hierarchical routing sweep + "
                             "BENCH_hier.json")
    hs.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    hs.add_argument("--bases", nargs="+", default=["pgas", "baseline"],
                    help="base backends to route (pgas / baseline)")
    hs.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 3],
                    help="simulated node counts")
    hs.add_argument("--gpus-per-node", type=int, nargs="+", default=[1, 2, 4],
                    help="simulated GPUs per node")
    hs.add_argument("--message-bytes", type=int, nargs="+",
                    default=[32, 256, 4096],
                    help="PGAS message size / collective chunk size per point")
    hs.add_argument("--batches", type=int, default=2, help="batches per point")
    hs.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = preset size)")
    hs.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")
    hs.add_argument("--output", default="BENCH_hier.json",
                    help="machine-readable artifact path ('' to skip)")

    cr = sub.add_parser("critpath",
                        help="traced critical-path attribution + BENCH_critpath.json")
    cr.add_argument("--preset", choices=PRESETS, default="tiny",
                    help="workload preset (resolved via preset_runspec)")
    cr.add_argument("--gpus", type=_positive_int, default=2, help="simulated GPU count")
    cr.add_argument("--backends", nargs="+", default=["pgas", "baseline"],
                    help="backends to trace")
    cr.add_argument("--batches", type=int, default=2, help="batches per backend")
    cr.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = preset size)")
    cr.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")
    cr.add_argument("--output", default="BENCH_critpath.json",
                    help="machine-readable artifact path ('' to skip)")
    cr.add_argument("--gate", default=None, metavar="BASELINE_JSON",
                    help="compare against this committed artifact; exit 1 on breach")
    cr.add_argument("--gate-rel", type=float, default=0.05,
                    help="relative tolerance for the regression gate")
    cr.add_argument("--gate-abs-ns", type=float, default=1000.0,
                    help="absolute tolerance floor for the regression gate (ns)")

    sub.add_parser("backends",
                   help="list registered backends and their capability flags")

    pl = sub.add_parser("plan", help="capacity-aware table placement")
    pl.add_argument("--criteo-tables", type=int, default=26)
    pl.add_argument("--dim", type=int, default=64)
    pl.add_argument("--gpus", type=_positive_int, default=None,
                    help="force a device count (default: minimal feasible)")
    pl.add_argument("--reserve", type=float, default=0.1,
                    help="HBM fraction reserved for activations")
    pl.add_argument("--seed", type=int, default=7)

    rm = sub.add_parser("report", help="write the markdown reproduction report")
    rm.add_argument("--batches", type=int, default=10)
    rm.add_argument("--scale", type=float, default=1.0)
    rm.add_argument("--output", default="REPORT.md")

    tr = sub.add_parser("trace", help="write a chrome://tracing timeline of one batch")
    _workload_args(tr)
    tr.add_argument("--backend", choices=tuple(available_backends()), default="pgas")
    tr.add_argument("--zipf", type=_zipf_alpha, default=None,
                    help="zipf skew for the traced batch (cached backends profit)")
    tr.add_argument("--output", default="repro_trace.json")
    tr.add_argument("--counters", action=argparse.BooleanOptionalAction, default=True,
                    help="include raw counter tracks (--no-counters for spans only)")
    tr.add_argument("--telemetry", action="store_true",
                    help="also export derived telemetry.* gauge tracks")

    mt = sub.add_parser("metrics",
                        help="pgas-vs-baseline telemetry metrics + BENCH_metrics.json")
    mt.add_argument("--preset", choices=PRESETS, default="weak",
                    help="workload preset (weak = paper §IV-A per-GPU rule)")
    mt.add_argument("--gpus", type=_positive_int, default=2, help="simulated GPU count")
    mt.add_argument("--batches", type=int, default=1, help="batches per backend")
    mt.add_argument("--scale", type=float, default=1.0,
                    help="batch-size scale factor (1.0 = paper size)")
    mt.add_argument("--backends", nargs="+", default=["pgas", "baseline"],
                    help="backends to compare")
    mt.add_argument("--bins", type=int, default=240,
                    help="sample-grid resolution for the derived gauges")
    mt.add_argument("--output", default="BENCH_metrics.json",
                    help="machine-readable artifact path ('' to skip)")
    mt.add_argument("--series", action=argparse.BooleanOptionalAction, default=True,
                    help="include per-bin gauge series in the artifact")
    mt.add_argument("--seed", type=int, default=None,
                    help="workload seed override (default: preset's)")

    return ap


def _cmd_reproduce(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(n_batches=args.batches, scale=args.scale)
    ids = [args.only] if args.only else list(EXPERIMENT_IDS)
    for eid in ids:
        print(f"== {eid} ==")
        print(runner.render(eid))
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _workload_from(args)
    gen = SyntheticDataGenerator(cfg)
    batches = [gen.lengths_batch() for _ in range(args.batches)]
    print(f"workload: {cfg.num_tables} tables x {cfg.rows_per_table} x d{cfg.dim}, "
          f"batch {cfg.batch_size}, pooling <= {cfg.max_pooling}, {args.gpus} GPUs, "
          f"{args.batches} batches")
    from .core.baseline import PhaseTiming

    results = {}
    for backend in ("baseline", "pgas"):
        emb = DistributedEmbedding(cfg, args.gpus, backend=backend)  # type: ignore[arg-type]
        total = PhaseTiming()
        for lengths in batches:
            total.add(emb.forward_timed(lengths))
        results[backend] = total
        print(f"  {backend:9s} total {to_ms(total.total_ns):9.3f} ms  "
              f"(compute {to_ms(total.compute_ns):.3f} / comm {to_ms(total.comm_ns):.3f} "
              f"/ sync+unpack {to_ms(total.sync_unpack_ns):.3f})")
    speedup = results["baseline"].total_ns / results["pgas"].total_ns
    print(f"  PGAS speedup: {speedup:.2f}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _workload_from(args)
    factory = {
        "batch_size": batch_size_sweep,
        "max_pooling": pooling_sweep,
        "num_tables": table_count_sweep,
    }[args.knob]
    sweep = factory(cfg, n_devices=args.gpus)
    print(sweep.run(args.values).render())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    workload = criteo_like(num_tables=args.criteo_tables, dim=args.dim, seed=args.seed)
    report = plan_table_wise(
        workload.table_configs(),
        n_devices=args.gpus,
        device_spec=V100_SPEC,
        reserve_fraction=args.reserve,
    )
    print(report.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.report_md import build_report

    runner = ExperimentRunner(n_batches=args.batches, scale=args.scale)
    text = build_report(runner)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines, "
          f"{args.batches} batches at scale {args.scale:g})")
    return 0


def _cmd_cachesweep(args: argparse.Namespace) -> int:
    from .bench.cachesweep import run_cache_sweep

    cfg = _workload_from(args)
    result = run_cache_sweep(
        cfg,
        alphas=args.alphas,
        capacity_fractions=args.capacities,
        base=args.base,
        policy=args.policy,
        n_devices=args.gpus,
        n_batches=args.batches,
    )
    print(result.render())
    return 0


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from .bench.faultsweep import run_fault_sweep
    from .simgpu.units import ms

    cfg = _workload_from(args)
    result = run_fault_sweep(
        cfg,
        severities=args.severities,
        bases=args.backends,
        n_devices=args.gpus,
        n_requests=args.requests,
        arrival_qps=args.qps,
        deadline_ns=args.deadline_ms * ms,
        emb_deadline_ns=args.emb_deadline_ms * ms,
        queue_limit=args.queue_limit,
        hedge_after_ns=args.hedge_ms * ms if args.hedge_ms is not None else None,
        seed=args.seed,
    )
    print(result.render())
    return 0


def _cmd_servesweep(args: argparse.Namespace) -> int:
    import json

    from .bench.servesweep import run_serve_sweep, validate_servesweep_json
    from .simgpu.units import ms

    sweep = run_serve_sweep(
        args.preset,
        n_devices=args.gpus,
        backends=args.backends,
        qps=args.qps,
        max_in_flight=args.k,
        policies=args.policies,
        n_requests=args.requests,
        max_batch=args.max_batch,
        batch_window_ns=args.window_ms * ms,
        deadline_ns=args.deadline_ms * ms if args.deadline_ms is not None else None,
        seed=args.seed,
    )
    print(sweep.render())
    if args.output:
        sweep.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_servesweep_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(sweep.points)} points)")
    return 0


def _cmd_compsweep(args: argparse.Namespace) -> int:
    import json

    from .bench.compsweep import run_comp_sweep, validate_compsweep_json

    sweep = run_comp_sweep(
        args.preset,
        n_devices=args.gpus,
        codecs=args.codecs,
        bases=args.backends,
        batch_sizes=args.batch_sizes,
        n_batches=args.batches,
        scale=args.scale,
        error_rows=args.error_rows,
        seed=args.seed,
    )
    print(sweep.render())
    if args.output:
        sweep.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_compsweep_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(sweep.points)} points)")
    return 0


def _cmd_chaossweep(args: argparse.Namespace) -> int:
    import json

    from .bench.chaossweep import run_chaos_sweep, validate_chaossweep_json

    sweep = run_chaos_sweep(
        args.preset,
        n_devices=args.gpus,
        ks=args.k,
        failure_counts=args.failures,
        bases=args.backends,
        placement=args.placement,
        n_batches=args.batches,
        recovery_bandwidth_share=args.recovery_share,
        scale=args.scale,
        seed=args.seed,
    )
    print(sweep.render())
    if args.output:
        sweep.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_chaossweep_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(sweep.points)} points)")
    return 0


def _cmd_skewsweep(args: argparse.Namespace) -> int:
    import json

    from .bench.skewsweep import run_skew_sweep, validate_skewsweep_json
    from .reshard import ReshardSpec

    spec = ReshardSpec(
        window_batches=max(4, args.batches // 2),
        min_batches=2,
        check_interval_batches=2,
        imbalance_threshold=args.threshold,
        migration_bandwidth_share=args.migration_share,
    )
    sweep = run_skew_sweep(
        args.preset,
        n_devices=args.gpus,
        backends=args.backends,
        skews=args.skews,
        n_batches=args.batches,
        reshard_spec=spec,
        scale=args.scale,
        seed=args.seed,
    )
    print(sweep.render())
    if args.output:
        sweep.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_skewsweep_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(sweep.points)} points)")
    return 0


def _cmd_hiersweep(args: argparse.Namespace) -> int:
    import json

    from .bench.hiersweep import run_hiersweep, validate_hiersweep_json

    sweep = run_hiersweep(
        args.preset,
        bases=args.bases,
        nodes=args.nodes,
        devices_per_node=args.gpus_per_node,
        message_sizes=args.message_bytes,
        n_batches=args.batches,
        scale=args.scale,
        seed=args.seed,
    )
    print(sweep.render())
    if args.output:
        sweep.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_hiersweep_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(sweep.points)} points)")
    return 0


def _cmd_critpath(args: argparse.Namespace) -> int:
    import json

    from .bench.critpath import run_critpath, validate_critpath_json

    result = run_critpath(
        args.preset,
        n_devices=args.gpus,
        backends=args.backends,
        n_batches=args.batches,
        scale=args.scale,
        seed=args.seed,
    )
    print(result.render())
    if args.output:
        result.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_critpath_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, {len(result.points)} points)")
    if args.gate:
        from .obs.regress import Tolerance, compare_critpath

        with open(args.gate) as fh:
            baseline = json.load(fh)
        gate = compare_critpath(
            baseline,
            result.as_dict(),
            tolerance=Tolerance(rel=args.gate_rel, abs_ns=args.gate_abs_ns),
        )
        print(gate.render())
        if not gate.passed:
            return 1
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table

    rows = []
    for info in available_backends():
        flags = [info.base, *info.features]
        if info.requires_indices:
            flags.append("indices")
        if info.traceable:
            flags.append("traceable")
        if not info.functional:
            flags.append("timed-only")
        rows.append([str(info), "+".join(flags), info.description])
    print(format_table(["backend", "flags", "description"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = _workload_from(args)
    if args.zipf is not None:
        cfg = dataclasses.replace(cfg, index_distribution="zipf", zipf_alpha=args.zipf)
    emb = DistributedEmbedding(cfg, args.gpus, backend=args.backend)
    gen = SyntheticDataGenerator(cfg)
    if backend_spec(args.backend).requires_indices:
        t = emb.forward(gen.sparse_batch()).timing
    else:
        t = emb.forward_timed(gen.lengths_batch())
    if args.telemetry:
        from .telemetry import write_chrome_trace_with_telemetry

        write_chrome_trace_with_telemetry(
            emb.cluster.profiler, args.output,
            n_devices=args.gpus, counters=args.counters,
        )
    else:
        write_chrome_trace(emb.cluster.profiler, args.output, counters=args.counters)
    print(f"simulated {to_ms(t.total_ns):.3f} ms ({args.backend}, {args.gpus} GPUs)")
    print(summarize_spans(emb.cluster.profiler))
    print(f"trace written to {args.output} (open in chrome://tracing; "
          f"fault windows appear as instant events)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .bench.telemetry import run_metrics, validate_metrics_json

    comparison = run_metrics(
        args.preset,
        n_devices=args.gpus,
        backends=args.backends,
        n_batches=args.batches,
        scale=args.scale,
        n_bins=args.bins,
        include_series=args.series,
        seed=args.seed,
    )
    print(comparison.render())
    if args.output:
        comparison.write_json(args.output)
        # Self-check: the artifact we just wrote must round-trip the schema.
        with open(args.output) as fh:
            validate_metrics_json(json.load(fh))
        print(f"wrote {args.output} (schema-valid, "
              f"{len(comparison.reports)} backend reports)")
    return 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "report": _cmd_report,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "cachesweep": _cmd_cachesweep,
    "faultsweep": _cmd_faultsweep,
    "servesweep": _cmd_servesweep,
    "compsweep": _cmd_compsweep,
    "chaossweep": _cmd_chaossweep,
    "skewsweep": _cmd_skewsweep,
    "hiersweep": _cmd_hiersweep,
    "critpath": _cmd_critpath,
    "backends": _cmd_backends,
    "plan": _cmd_plan,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
