"""Run-to-run noise of the benchmark, measured against its own bounds.

    python3 benchmarks/perf/repeat.py --runs 10 [--sets 2] [--workloads ...]
                                      [--seed 2024] [--seconds S] [--out DIR]

Runs every workload ``--runs`` times per set, untraced, one fresh
subprocess at a time, alternating the workload order between runs.  Run
*i* of every set uses seed ``--seed + i``, so the sets see the same inputs
and their simulated metrics must agree exactly.  For each end-to-end
metric it prints the median, the interquartile range and the max-min
range (both as a share of the median) next to the metric's bound, and
flags a spread above a third of the bound (``noisy``) or above the bound
(``FAIL``); with several sets the spreads are the worst set's.  With ``--sets 2`` or more it also prints how far each later
set's median moved from the first set's, in the metric's worse direction,
and flags a move beyond the bound.  The spread of ``setup_s`` is reported
but never flagged; only its median drift is.  Raw values go to
``DIR/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run


def spread(values) -> tuple:
    """(median, IQR / median, (max - min) / median) as ``statistics`` computes them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def worse_by(first: float, later: float, better: str) -> float:
    """How much ``later`` is worse than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", default=str(run.DEFAULT_OUT))
    args = p.parse_args(argv)
    spec = run.load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    # values[set][workload][metric] -> list over runs
    values = [{n: {m["name"]: [] for m in spec["end_to_end"]} for n in names}
              for _ in range(args.sets)]
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            order = names if i % 2 == 0 else names[::-1]
            child = argparse.Namespace(
                seed=args.seed + i, seconds=args.seconds, out=args.out, smoke=False
            )
            for name in order:
                t0 = time.monotonic()
                result = run.run_child(name, child, trace=0)
                ok &= result["correct"] and result["failed"] == 0
                for metric, m in result["metrics"].items():
                    values[s][name][metric].append(m["value"])
                print(f"# set {s} run {i} {name} seed {args.seed + i}: "
                      f"{time.monotonic() - t0:.1f} s wall, correct {result['correct']}",
                      flush=True)

    print(f"{'workload':16} {'metric':12} {'median':>14} {'IQR%':>7} {'range%':>7} "
          f"{'bound%':>7} {'drift%':>7}  flag")
    for name in names:
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            spreads = [spread(values[s][name][metric]) for s in range(args.sets)]
            med = spreads[0][0]
            iqr = max(sp[1] for sp in spreads)  # the worst set's spread
            rng = max(sp[2] for sp in spreads)
            drift = max(
                (worse_by(med, statistics.median(values[s][name][metric]), m["better"])
                 for s in range(1, args.sets)),
                default=0.0,
            )
            flags = []
            if metric != "setup_s" and iqr > bound:
                flags.append("FAIL")
            elif metric != "setup_s" and iqr > bound / 3:
                flags.append("noisy")
            if drift > bound:
                flags.append("DRIFT")
            ok &= "FAIL" not in flags and "DRIFT" not in flags
            print(f"{name:16} {metric:12} {med:14.6g} {100 * iqr:7.2f} {100 * rng:7.2f} "
                  f"{100 * bound:7.2f} {100 * drift:7.2f}  {' '.join(flags)}")
    path = Path(args.out) / "repeat.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": args.seed, "runs": args.runs, "sets": args.sets,
                                "seconds": args.seconds, "values": values}, indent=1) + "\n")
    print(f"# wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
