"""Two-clock benchmark runner: simulated time and the simulator's host time.

One workload, measured in this process::

    python3 benchmarks/perf/run.py --workload paper --seed 2024 --seconds 25 --trace 0

Every workload, each in its own fresh single-threaded subprocess, one at
a time::

    python3 benchmarks/perf/run.py [--workloads paper scale-g64 ...] [--seed 2024]
                                   [--traced] [--out DIR] [--smoke]

A run repeats fixed-length rounds of its workload (see ``workloads.py``)
until ``--seconds`` are spent.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
rounds, reports the per-layer metrics, and writes the traced rounds' spans
to ``DIR/trace_<workload>.json``.  Each metric prints as
``<workload> <metric> <value> <unit>``; the last line of a one-workload run
is its JSON result.  A failed correctness check exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# Single-threaded numerics: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"

#: a run measures at least this many rounds: a median, a round-to-round
#: determinism check, and (traced) one untraced plus one traced round
MIN_ROUNDS = 2

#: per-layer host metric -> (tracer name, field): 0 = calls, 1 = self ns
HOST_LAYERS = {
    "data.gen_ms": ("data.gen", 1),
    "workload.build_ms": ("workload.build", 1),
    "workload.dst_bytes_ms": ("workload.dst_bytes", 1),
    "workload.dst_bytes_calls": ("workload.dst_bytes", 0),
    "workload.wave_dst_ms": ("workload.wave_dst", 1),
    "kernel.wave_model_ms": ("kernel.wave_model", 1),
    "engine.loop_self_ms": ("engine.loop", 1),
    "comm.put_ms": ("comm.put", 1),
    "comm.put_calls": ("comm.put", 0),
    "comm.a2a_ms": ("comm.a2a", 1),
    "interconnect.transfer_ms": ("interconnect.transfer", 1),
    "interconnect.transfer_calls": ("interconnect.transfer", 0),
    "profiler.record_ms": ("profiler.record", 1),
    "profiler.record_calls": ("profiler.record", 0),
}

#: span labels with one call per simulated batch or step, per backend
BATCH_LABELS = ("retrieval.forward", "train.step")


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def import_repro():
    """Put this checkout's ``src/`` first on the path; exit if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    c0 = time.process_time()
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, expected {SRC / 'repro'}")
    return workloads, time.process_time() - c0


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_round(workload, state):
    """Drive one round; returns (result, CPU seconds of each unit of work)."""
    units = []
    steps = workload.run(state)
    c0 = time.process_time()
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            units.append(time.process_time() - c0)
            return stop.value, units
        c1 = time.process_time()
        units.append(c1 - c0)
        c0 = c1


def fastest(rounds) -> float:
    """CPU seconds of a round assembled from each unit's fastest repeat.

    Other tenants of a shared machine only ever slow work down, in bursts;
    the fastest repeat of each unit (the reasoning behind ``timeit``'s
    minimum) filters the bursts at the granularity of one batch or step.
    """
    return sum(min(unit) for unit in zip(*(r["units"] for r in rounds)))


def measure(workload, seconds: float, tracer):
    """Repeat rounds until ``seconds`` are spent; returns (rounds, last state).

    With a tracer, odd rounds run traced and even rounds untraced, so one
    run yields both the per-layer numbers and the tracing overhead.
    """
    rounds = []
    state = None
    t_start = time.monotonic()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        state = None  # release the previous round's objects before building new ones
        c0 = time.process_time()
        state = workload.setup()
        setup_cpu = time.process_time() - c0
        rnd = {"traced": traced, "setup_cpu": setup_cpu}
        if traced:
            rnd["before"], rnd["mark"] = tracer.snapshot(), len(tracer.spans)
        with tracer.installed() if traced else contextlib.nullcontext():
            w0 = time.perf_counter()
            rnd["result"], rnd["units"] = run_round(workload, state)
            rnd["host_wall"] = time.perf_counter() - w0
        if traced:
            rnd["after"], rnd["end"] = tracer.snapshot(), len(tracer.spans)
        rounds.append(rnd)
        elapsed = time.monotonic() - t_start
        # Stop before a round that would likely overrun the budget.
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, state


def check(workload, rounds) -> list:
    """Correctness gate: invariants, round-to-round identity, backend equivalence."""
    from repro.core.verify import VerificationError, verify_backend_equivalence

    errors = []
    for i, rnd in enumerate(rounds):
        errors += [f"round {i}: {e}" for e in rnd["result"].errors]
    reference = rounds[0]["result"].record
    bad = sorted(k for k, v in reference.items() if not math.isfinite(v))
    if bad:
        errors.append(f"non-finite simulated values: {bad}")
    for i, rnd in enumerate(rounds[1:], start=1):
        diff = sorted(k for k in reference if rnd["result"].record.get(k) != reference[k])
        if diff:
            errors.append(f"round {i} simulated differently from round 0: {diff[:5]}")
        if len(rnd["units"]) != len(rounds[0]["units"]):
            errors.append(f"round {i} ran {len(rnd['units'])} units, round 0 ran "
                          f"{len(rounds[0]['units'])}")
    # Functional equivalence on each measured shape, rows and batch shrunk.
    for cfg, n_devices in workload.shapes():
        small = replace(cfg, rows_per_table=512, batch_size=128)
        try:
            verify_backend_equivalence(small, n_devices, n_batches=1, seed=workload.seed)
        except VerificationError as exc:
            errors.append(f"backend equivalence T={cfg.num_tables} G={n_devices}: {exc}")
    return errors


def _delta(rnd, name: str, fieldno: int) -> int:
    zero = (0, 0, 0)
    return rnd["after"].get(name, zero)[fieldno] - rnd["before"].get(name, zero)[fieldno]


def host_layers(rounds, tracer) -> dict:
    """Per-layer host metrics, per round: the fastest traced round's value.

    Counts repeat exactly; times take the minimum over traced rounds.
    """
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    out = {}
    for metric, (name, fieldno) in HOST_LAYERS.items():
        value = min(_delta(r, name, fieldno) for r in traced)
        out[metric] = value if fieldno == 0 else value / 1e6
    events = rounds[0]["result"].events
    out["engine.events"] = float(events)
    loop_ns = min(_delta(r, "engine.loop", 2) for r in traced)
    out["engine.host_ns_per_event"] = loop_ns / events if events else 0.0
    for be in ("pgas", "baseline"):
        labels = {f"{prefix}.{be}" for prefix in BATCH_LABELS}
        durations = [
            s[2] - s[1]
            for r in traced
            for s in tracer.spans[r["mark"]:r["end"]]
            if s[0] in labels
        ]
        out[f"batch.host_ms_p50.{be}"] = statistics.median(durations) / 1e6 if durations else 0.0
    untraced_cpu = fastest(untraced)
    traced_cpu = fastest(traced)
    out["host_wall_s"] = min(r["host_wall"] for r in untraced)
    out["host_ms_per_op"] = 1e3 * untraced_cpu / rounds[0]["result"].attempted
    out["trace.overhead_pct"] = 100.0 * (traced_cpu / untraced_cpu - 1.0)
    return out


def run_one(args) -> int:
    """Measure one workload in this process; print its metrics and JSON result."""
    spec = load_spec()
    workloads, import_s = import_repro()
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    rounds, state = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = rounds[0]["result"].record
    attempted = sum(r["result"].attempted for r in rounds)
    failed = sum(r["result"].failed for r in rounds)

    if args.trace:
        with tracer.installed():
            values = workload.layers(state, record)
        values.update(host_layers(rounds, tracer))
        values["telemetry.report_ms"] = tracer.totals.get("telemetry.report", (0, 0, 0))[2] / 1e6
        values["setup.import_s"] = import_s
        values["failed_frac"] = failed / attempted
        declared = spec["per_layer"]
        undeclared = sorted(set(values) - {m["name"] for m in declared})
        if undeclared:
            raise KeyError(f"metrics missing from BENCHMARK.json per_layer: {undeclared}")
        tracer.write_chrome(Path(args.out) / f"trace_{args.workload}.json")
    else:
        values = {
            "setup_s": statistics.median(r["setup_cpu"] for r in rounds),
            "host_s": fastest(rounds),
            "peak_rss_mb": peak_rss_mb,
            "sim_ms": workload.sim_ms(record),
        }
        declared = spec["end_to_end"]
    state = None

    errors = check(workload, rounds)
    for err in errors:
        print(f"CHECK FAILED [{args.workload}] {err}", file=sys.stderr)
    # A layer the workload does not exercise reads 0.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print_lines(args.workload, result)
    print(f"# {args.workload}: {len(rounds)} rounds, seed {args.seed}", flush=True)
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


# ---------------------------------------------------------------------------
# every workload, one subprocess each
# ---------------------------------------------------------------------------


def print_lines(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']!r} {m['unit']}")
    print(f"{workload} attempted {result['attempted']} count")
    print(f"{workload} failed {result['failed']} count")


def run_child(name: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its JSON result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: no result (exit code {proc.returncode})")
    return json.loads(lines[-1])


def run_many(args, names) -> int:
    """Every named workload, untraced (and traced), one subprocess at a time."""
    out = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version()},
        "untraced": {}, "traced": {},
    }
    ok = True
    for trace in ((0, 1) if args.traced else (0,)):
        for name in names:
            result = run_child(name, args, trace)
            out["traced" if trace else "untraced"][name] = result
            print_lines(name, result)
            ok &= result["correct"]
    path = Path(args.out) / "results.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {path}")
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this one workload in this process")
    p.add_argument("--workloads", nargs="+", help="workloads to run (default: all)")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--traced", action="store_true",
                   help="without --workload: also run every workload traced")
    p.add_argument("--out", default=str(DEFAULT_OUT), help="directory for traces and results")
    p.add_argument("--smoke", action="store_true", help="short rounds, for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload:
        if args.workload not in names:
            sys.exit(f"error: unknown workload {args.workload!r}; know {names}")
        return run_one(args)
    unknown = sorted(set(args.workloads or ()) - set(names))
    if unknown:
        sys.exit(f"error: unknown workloads {unknown}; know {names}")
    return run_many(args, args.workloads or names)


if __name__ == "__main__":
    sys.exit(main())
