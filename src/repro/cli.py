"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``   regenerate the paper's tables/figures (all or one id)
``report``      write the paper-vs-measured markdown report to a file
``run``         time one workload on both backends and print the phases
``sweep``       ``sweep <knob> <values>`` sweeps a workload knob and prints
                speedups per point; ``sweep <name>`` runs a named sweep
                (see :data:`SWEEPS`) and writes its ``BENCH_*.json``
``backends``    list the registered backends with their capability flags
``plan``        capacity-aware table placement for a Criteo-like table set
``trace``       run one batch and write a chrome://tracing JSON timeline

The preset names accepted by the sweeps resolve through
:func:`repro.core.runspec.preset_runspec`, so the CLI and the library see
identical workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .bench.cachesweep import run_cache_sweep, validate_cachesweep_json
from .bench.chaossweep import run_chaos_sweep, validate_chaossweep_json
from .bench.compsweep import run_comp_sweep, validate_compsweep_json
from .bench.critpath import run_critpath, validate_critpath_json
from .bench.faultsweep import run_fault_sweep, validate_faultsweep_json
from .bench.hiersweep import run_hiersweep, validate_hiersweep_json
from .bench.runner import EXPERIMENT_IDS, ExperimentRunner
from .bench.servesweep import run_serve_sweep, validate_servesweep_json
from .bench.skewsweep import run_skew_sweep, validate_skewsweep_json
from .bench.sweeps import SweepResult, batch_size_sweep, pooling_sweep, table_count_sweep
from .bench.telemetry import run_metrics, validate_metrics_json
from .compress import CODEC_NAMES
from .core.planner import plan_table_wise
from .core.retrieval import DistributedEmbedding, available_backends, backend_spec
from .core.runspec import PRESETS
from .dlrm.data import SyntheticDataGenerator, WorkloadConfig
from .dlrm.heterogeneous import criteo_like
from .simgpu.device import V100_SPEC
from .simgpu.trace import summarize_spans, write_chrome_trace
from .simgpu.units import ms, to_ms

__all__ = ["SWEEPS", "main", "build_parser"]


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        what = "a positive" if minimum == 1 else "a non-negative"
        raise argparse.ArgumentTypeError(f"must be {what} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (bad values exit 2 naming the flag)."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    return _int_at_least(text, 0)


def _scale(text: str) -> float:
    """argparse type: a batch-size scale factor in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
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


_BASES = ("pgas", "baseline")

#: one flag declaration: the flag and its argparse kwargs
Flag = Tuple[str, Dict[str, Any]]

#: flags several commands take, declared once.  Each command passes its
#: own defaults to :func:`_flags`.
_FLAGS: Dict[str, Flag] = {
    "tables": ("--tables", dict(type=_positive_int, help="number of embedding tables")),
    "rows": ("--rows", dict(type=_positive_int, help="rows per table")),
    "dim": ("--dim", dict(type=_positive_int, help="embedding dimension")),
    "batch": ("--batch", dict(type=_positive_int, help="batch size")),
    "pooling": ("--pooling", dict(type=_non_negative_int, help="max pooling factor")),
    "preset": ("--preset", dict(choices=PRESETS,
                                help="workload preset (resolved via preset_runspec)")),
    "gpus": ("--gpus", dict(type=_positive_int, help="simulated GPU count")),
    "backends": ("--backends", dict(nargs="+", help="backends to compare")),
    "bases": ("--backends", dict(dest="backends", nargs="+", choices=_BASES,
                                 help="base backends to wrap")),
    "batches": ("--batches", dict(type=_positive_int, help="batches per point")),
    "scale": ("--scale", dict(type=_scale,
                              help="batch-size scale factor (1.0 = preset size)")),
    "seed": ("--seed", dict(type=_non_negative_int,
                            help="workload seed (None: the preset's)")),
    "output": ("--output", dict(help="machine-readable artifact path ('' to skip)")),
}

#: the paper-scale workload shape of ``run``, ``trace`` and the knob sweeps
_WORKLOAD = dict(tables=64, rows=1_000_000, dim=64, batch=16_384, pooling=128,
                 gpus=2, seed=2024)


def _flags(p: argparse.ArgumentParser, **defaults: Any) -> None:
    """Declare the named :data:`_FLAGS` on ``p`` with these defaults."""
    for name, default in defaults.items():
        flag, kwargs = _FLAGS[name]
        p.add_argument(flag, default=default, **kwargs)


def _workload_from(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        num_tables=args.tables,
        rows_per_table=args.rows,
        dim=args.dim,
        batch_size=args.batch,
        max_pooling=args.pooling,
        seed=args.seed,
    )


@dataclass(frozen=True)
class _Sweep:
    """One ``repro sweep <name>`` entry.

    ``shared`` names the :data:`_FLAGS` the sweep takes, with its
    defaults; ``flags`` are its own.  ``validate`` re-checks the artifact
    the sweep just wrote, and ``gate`` (critpath only) compares the
    fresh result against a committed one and returns the exit code.
    """

    help: str
    run: Callable[[argparse.Namespace], SweepResult]
    shared: Dict[str, Any]
    flags: Sequence[Flag] = ()
    validate: Optional[Callable[[Any], None]] = None
    gate: Optional[Callable[[argparse.Namespace, SweepResult], int]] = None


def _knob(factory: Callable[..., Any]) -> _Sweep:
    # Workload flags may follow the knob too; SUPPRESS keeps the values
    # given before it (on the ``sweep`` parser) from being reset.
    return _Sweep(
        "sweep this workload knob over both backends",
        run=lambda a: factory(_workload_from(a), n_devices=a.gpus).run(a.values),
        shared=dict.fromkeys(_WORKLOAD, argparse.SUPPRESS),
        flags=[("values", dict(type=float, nargs="+", help="knob values to sweep"))],
    )


def _critpath_gate(args: argparse.Namespace, result: SweepResult) -> int:
    if not args.gate:
        return 0
    from .obs.regress import Tolerance, compare_critpath

    with open(args.gate) as fh:
        baseline = json.load(fh)
    gate = compare_critpath(
        baseline, result.as_dict(), tolerance=Tolerance(abs_ns=args.gate_abs_ns)
    )
    print(gate.render())
    return 0 if gate.passed else 1


#: every ``repro sweep`` verb: the three workload knobs, then the named sweeps
SWEEPS: Dict[str, _Sweep] = {
    "batch_size": _knob(batch_size_sweep),
    "max_pooling": _knob(pooling_sweep),
    "num_tables": _knob(table_count_sweep),
    "cache": _Sweep(
        "hot-row cache hit rate / comm / speedup vs skew and capacity",
        run=lambda a: run_cache_sweep(
            _workload_from(a), a.alphas, a.capacities, policy=a.policy,
            n_devices=a.gpus, n_batches=a.batches,
        ),
        shared=dict(_WORKLOAD, tables=8, rows=4096, dim=32, batch=1024, pooling=4,
                    batches=4, output="BENCH_cache.json"),
        flags=[
            ("--alphas", dict(type=_zipf_alpha, nargs="+", default=[1.05, 1.1, 1.2],
                              help="zipf skew values")),
            ("--capacities", dict(type=float, nargs="+", default=[0.05, 0.1, 0.2],
                                  help="cache capacity as a fraction of remote rows")),
            ("--policy", dict(choices=("lru", "lfu", "static-topk"), default="lru")),
        ],
        validate=validate_cachesweep_json,
    ),
    "faults": _Sweep(
        "serving SLOs (shed/degraded/p99/goodput) vs fault severity",
        run=lambda a: run_fault_sweep(
            _workload_from(a), a.severities, bases=a.backends, n_devices=a.gpus,
            n_requests=a.requests, arrival_qps=a.qps, deadline_ns=2.0 * ms,
            emb_deadline_ns=0.25 * ms, queue_limit=a.queue_limit,
            hedge_after_ns=a.hedge_ms * ms if a.hedge_ms is not None else None,
            seed=a.seed,
        ),
        shared=dict(_WORKLOAD, tables=8, rows=4096, dim=16, batch=512, pooling=4,
                    gpus=4, bases=_BASES, output=""),
        flags=[
            ("--severities", dict(type=float, nargs="+", default=[0.0, 0.3, 0.6, 0.9],
                                  help="fault severities in [0, 1] (0 = healthy)")),
            ("--requests", dict(type=int, default=48, help="requests per point")),
            ("--qps", dict(type=float, default=50_000.0, help="offered load")),
            ("--queue-limit", dict(type=int, default=512,
                                   help="shed arrivals beyond this queue depth")),
            ("--hedge-ms", dict(type=float, default=None,
                                help="hedge batches running longer than this (ms)")),
        ],
        validate=validate_faultsweep_json,
    ),
    "serve": _Sweep(
        "continuous-batching goodput vs in-flight depth K + BENCH_serving.json",
        run=lambda a: run_serve_sweep(
            a.preset, n_devices=a.gpus, backends=a.backends, qps=a.qps,
            max_in_flight=a.k, n_requests=a.requests, seed=a.seed,
        ),
        shared=dict(preset="tiny", gpus=2, backends=_BASES, seed=0,
                    output="BENCH_serving.json"),
        flags=[
            ("--qps", dict(type=float, nargs="+", default=[200_000.0],
                           help="offered arrival rates")),
            ("--k", dict(type=int, nargs="+", default=[1, 2],
                         help="max in-flight batches (scheduler depth) values")),
            ("--requests", dict(type=int, default=32, help="requests per point")),
        ],
        validate=validate_servesweep_json,
    ),
    "compress": _Sweep(
        "codec x backend wire/time/error grid + BENCH_compression.json",
        run=lambda a: run_comp_sweep(
            a.preset, n_devices=a.gpus, codecs=a.codecs, bases=a.backends,
            n_batches=a.batches, scale=a.scale, seed=a.seed,
        ),
        shared=dict(preset="tiny", gpus=2, bases=_BASES, batches=2, scale=1.0,
                    seed=None, output="BENCH_compression.json"),
        flags=[("--codecs", dict(nargs="+", choices=CODEC_NAMES, default=list(CODEC_NAMES),
                                 help="wire codecs to measure"))],
        validate=validate_compsweep_json,
    ),
    "chaos": _Sweep(
        "availability/goodput vs replication k x failures + BENCH_availability.json",
        run=lambda a: run_chaos_sweep(
            a.preset, n_devices=a.gpus, ks=a.k, bases=a.backends, n_batches=a.batches,
            scale=a.scale, seed=a.seed,
        ),
        shared=dict(preset="tiny", gpus=4, bases=_BASES, batches=6, scale=1.0,
                    seed=None, output="BENCH_availability.json"),
        flags=[("--k", dict(type=int, nargs="+", default=[1, 2],
                            help="replication factors to measure"))],
        validate=validate_chaossweep_json,
    ),
    "skew": _Sweep(
        "online resharding vs static placement under skew + BENCH_reshard.json",
        run=lambda a: run_skew_sweep(
            a.preset, n_devices=a.gpus, backends=a.backends, skews=a.skews,
            n_batches=a.batches, scale=a.scale, seed=a.seed,
        ),
        shared=dict(preset="tiny", gpus=4,
                    backends=["pgas", "pgas+reshard", "baseline", "baseline+reshard"],
                    batches=10, scale=1.0, seed=None, output="BENCH_reshard.json"),
        flags=[("--skews", dict(type=float, nargs="+", default=[0.0, 1.05],
                                help="table traffic skew exponents (0 = uniform)"))],
        validate=validate_skewsweep_json,
    ),
    "hier": _Sweep(
        "flat vs hierarchical routing across node geometries + BENCH_hier.json",
        run=lambda a: run_hiersweep(
            a.preset, n_batches=a.batches, scale=a.scale, seed=a.seed
        ),
        shared=dict(preset="tiny", batches=2, scale=1.0, seed=None,
                    output="BENCH_hier.json"),
        validate=validate_hiersweep_json,
    ),
    "critpath": _Sweep(
        "traced critical-path attribution + BENCH_critpath.json, optionally gated",
        run=lambda a: run_critpath(
            a.preset, n_devices=a.gpus, backends=a.backends, n_batches=a.batches,
            scale=a.scale, seed=a.seed,
        ),
        shared=dict(preset="tiny", gpus=2, backends=_BASES, batches=2, scale=1.0,
                    seed=None, output="BENCH_critpath.json"),
        flags=[
            ("--gate", dict(default=None, metavar="BASELINE_JSON",
                            help="compare against this committed artifact; "
                                 "exit 1 on breach")),
            ("--gate-abs-ns", dict(type=float, default=1000.0,
                                   help="absolute tolerance floor for the gate (ns)")),
        ],
        validate=validate_critpath_json,
        gate=_critpath_gate,
    ),
    "metrics": _Sweep(
        "pgas-vs-baseline telemetry metrics + BENCH_metrics.json",
        run=lambda a: run_metrics(
            a.preset, n_devices=a.gpus, backends=a.backends, n_batches=a.batches,
            scale=a.scale, include_series=a.series, seed=a.seed,
        ),
        shared=dict(preset="weak", gpus=2, backends=_BASES, batches=1, scale=1.0,
                    seed=None, output="BENCH_metrics.json"),
        flags=[("--series", dict(action=argparse.BooleanOptionalAction, default=True,
                                 help="include per-bin gauge series in the artifact"))],
        validate=validate_metrics_json,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="PGAS-style multi-GPU embedding retrieval (SC'24 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("reproduce", help="regenerate the paper's tables and figures")
    rp.add_argument("--batches", type=_positive_int, default=10,
                    help="batches per measurement")
    rp.add_argument("--scale", type=_scale, default=1.0, help="batch-size scale factor")
    rp.add_argument("--only", choices=EXPERIMENT_IDS, default=None)

    rn = sub.add_parser("run", help="time one workload on both backends")
    _flags(rn, **_WORKLOAD)
    rn.add_argument("--batches", type=_positive_int, default=1)

    sw = sub.add_parser("sweep", help="sweep a workload knob, or run a named sweep")
    _flags(sw, **_WORKLOAD)
    names = sw.add_subparsers(dest="sweep", required=True)
    for name, entry in SWEEPS.items():
        sp = names.add_parser(name, help=entry.help)
        _flags(sp, **entry.shared)
        for flag, kwargs in entry.flags:
            sp.add_argument(flag, **kwargs)

    sub.add_parser("backends",
                   help="list registered backends and their capability flags")

    pl = sub.add_parser("plan", help="capacity-aware table placement")
    pl.add_argument("--criteo-tables", type=int, default=26)
    pl.add_argument("--dim", type=int, default=64)
    pl.add_argument("--gpus", type=_positive_int, default=None,
                    help="force a device count (default: minimal feasible)")
    pl.add_argument("--reserve", type=float, default=0.1,
                    help="HBM fraction reserved for activations")
    pl.add_argument("--seed", type=_non_negative_int, default=7)

    rm = sub.add_parser("report", help="write the markdown reproduction report")
    rm.add_argument("--batches", type=_positive_int, default=10)
    rm.add_argument("--scale", type=_scale, default=1.0)
    rm.add_argument("--output", default="REPORT.md")

    tr = sub.add_parser("trace", help="write a chrome://tracing timeline of one batch")
    _flags(tr, **_WORKLOAD)
    tr.add_argument("--backend", choices=tuple(available_backends()), default="pgas")
    tr.add_argument("--zipf", type=_zipf_alpha, default=None,
                    help="zipf skew for the traced batch (cached backends profit)")
    tr.add_argument("--output", default="repro_trace.json")
    tr.add_argument("--counters", action=argparse.BooleanOptionalAction, default=True,
                    help="include raw counter tracks (--no-counters for spans only)")
    tr.add_argument("--telemetry", action="store_true",
                    help="also export derived telemetry.* gauge tracks")

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


def _cmd_sweep(args: argparse.Namespace) -> int:
    entry = SWEEPS[args.sweep]
    result = entry.run(args)
    print(result.render())
    if getattr(args, "output", ""):
        result.write_json(args.output)
        # Self-check: the artifact just written must pass its own validator.
        with open(args.output) as fh:
            entry.validate(json.load(fh))
        print(f"wrote {args.output} (schema-valid, "
              f"{len(result.points)} {result.collection})")
    return entry.gate(args, result) if entry.gate else 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "report": _cmd_report,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "backends": _cmd_backends,
    "plan": _cmd_plan,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
