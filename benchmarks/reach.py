"""Function-level reachability of ``src/`` from every CI producer.

Every committed artifact (the examples, the perf workloads, the
``BENCH_*.json`` sweeps, the paper-figure benches and ``REPORT.md``) comes
from a command CI runs.  A function none of them ever calls is shown by no
artifact: only tests reach it.  This tool runs each producer under
cProfile and lists every function defined under ``src/`` that no producer
called, one ``path::qualname`` a line, sorted, in ``benchmarks/reach.txt``::

    PYTHONPATH=src python benchmarks/reach.py             # rewrite reach.txt
    PYTHONPATH=src python benchmarks/reach.py --output -  # print, write nothing

The producers run in a scratch copy of the tree (``src``, ``benchmarks``,
``examples`` and the root files they read) inside a temporary directory,
so no tracked file is written.  Each runs with a ``sitecustomize`` on its
``PYTHONPATH`` that profiles the whole interpreter, child processes
included, and dumps the ``src/`` functions it saw at exit.
pytest-benchmark suspends any profiler around each measured call
(``PauseInstrumentation``), so the pytest producers load a ``-p`` plugin
that makes that pause a no-op; patching it from ``sitecustomize`` would
import the module before pytest's assertion rewriting can claim it.

The analysis half maps cProfile's ``(file, first line, name)`` keys onto
the ``def`` statements of each module's AST.  A decorated function's code
starts at its first decorator, so a definition is keyed by that line.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "benchmarks" / "reach.txt"

#: what a producer needs from the tree, copied into the scratch root
COPIED = ("src", "benchmarks", "examples", "BENCHMARK.json", "pyproject.toml",
          "BENCH_critpath.json")

#: a cProfile function key: (absolute file name, first line, code name)
Key = Tuple[str, int, str]

HEADER = (
    "# Functions under src/ that no CI producer calls (benchmarks/reach.py).\n"
    "# Regenerate with: PYTHONPATH=src python benchmarks/reach.py\n"
)

SITECUSTOMIZE = '''\
import atexit
import cProfile
import os

_out = os.environ.get("REACH_OUT")
if _out:
    _profile = cProfile.Profile()

    def _dump():
        _profile.disable()
        _profile.create_stats()
        src = os.path.join(os.environ["REACH_ROOT"], "src") + os.sep
        lines = sorted(
            f"{f}\\t{line}\\t{name}\\n"
            for f, line, name in _profile.stats
            if f.startswith(src)
        )
        with open(os.path.join(_out, f"{os.getpid()}.keys"), "a") as fh:
            fh.writelines(lines)

    atexit.register(_dump)
    _profile.enable()
'''

PLUGIN = '''\
"""pytest plugin: keep an outer profiler running through pytest-benchmark."""


class _NoPause:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def pytest_configure(config):
    import pytest_benchmark.fixture

    pytest_benchmark.fixture.PauseInstrumentation = _NoPause
'''

_EXAMPLE_ARGS = {"reproduce_paper.py": ["--batches", "1", "--scale", "0.125"]}

#: the CI sweep commands, with ``hier`` at its smallest preset
_CI_SWEEPS = [
    ["metrics", "--preset", "tiny"],
    ["cache"],
    ["serve", "--preset", "tiny", "--k", "1", "2"],
    ["faults", "--hedge-ms", "0.15", "--queue-limit", "8"],
    ["compress", "--preset", "strong", "--gpus", "4"],
    ["chaos", "--preset", "tiny", "--gpus", "4", "--batches", "4"],
    ["skew", "--preset", "tiny"],
    ["critpath", "--preset", "tiny", "--seed", "3"],
    ["hier", "--preset", "tiny"],
]

_KNOB_SWEEPS = [
    ["batch_size", "1024", "2048"],
    ["max_pooling", "8", "32"],
    ["num_tables", "8", "16"],
]

#: ``trace`` runs at this size, so the ``+cache`` backends finish quickly
_TRACE_SIZE = ["--tables", "8", "--rows", "10000", "--batch", "1024", "--pooling", "16"]


def producers(root: Path) -> List[Tuple[str, List[str]]]:
    """Every producer as ``(name, argv)``, to run with ``root`` as cwd."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    plugin = ["-p", "reach_nopause"]
    out: List[Tuple[str, List[str]]] = []
    for script in sorted((root / "examples").glob("*.py")):
        out.append((f"example {script.name}",
                    [py, f"examples/{script.name}", *_EXAMPLE_ARGS.get(script.name, [])]))
    out.append(("pytest benchmarks/perf", [py, "-m", "pytest", "-q", *plugin, "benchmarks/perf"]))
    workloads = ["paper", "scale-g64", "train-strong-g4", "serve-prod-g8"]
    for w in workloads:
        for trace in ("0", "1"):
            out.append((f"perf {w} --trace {trace}",
                        [py, "benchmarks/perf/run.py", "--workload", w, "--seconds", "0",
                         "--trace", trace, "--out", "perf-out"]))
    for sweep in _CI_SWEEPS:
        out.append((f"sweep {' '.join(sweep)}",
                    [*repro, "sweep", *sweep, "--output", f"BENCH_{sweep[0]}.out.json"]))
    out.append(("sweep critpath --gate",
                [*repro, "sweep", "critpath", "--preset", "tiny", "--seed", "3",
                 "--output", "", "--gate", "BENCH_critpath.json"]))
    out.append(("pytest benchmarks",
                [py, "-m", "pytest", "-q", *plugin, "benchmarks", "--ignore=benchmarks/perf"]))
    out.append(("report", [*repro, "report", "--batches", "2", "--output", "REPORT.out.md"]))
    out.append(("reproduce", [*repro, "reproduce", "--batches", "1", "--scale", "0.125"]))
    out.append(("run", [*repro, "run", "--tables", "8", "--rows", "10000"]))
    out.append(("plan", [*repro, "plan"]))
    out.append(("backends", [*repro, "backends"]))
    for knob in _KNOB_SWEEPS:
        out.append((f"sweep {knob[0]}", [*repro, "sweep", *knob, *_TRACE_SIZE]))
    backends = subprocess.run(
        [py, "-c", "from repro.core.retrieval import available_backends as a; "
                   "print(*a())"],
        capture_output=True, text=True, check=True, env=_env(root, None),
    ).stdout.split()
    for backend in backends:
        zipf = ["--zipf", "1.1"] if "+cache" in backend else []
        out.append((f"trace {backend}",
                    [*repro, "trace", "--backend", backend, "--telemetry", *_TRACE_SIZE,
                     *zipf, "--output", f"trace.{backend}.json"]))
    return out


def _env(root: Path, hooks: "Path | None", out: "Path | None" = None) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([str(hooks)] if hooks else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    if out is not None:
        env["REACH_OUT"] = str(out)
        env["REACH_ROOT"] = str(root)
    return env


def collect() -> List[str]:
    """Run every producer in a scratch copy; returns the copy's unreached
    functions (see :func:`unreached`).  The copy is analysed, not the
    tree, so an edit made while the producers run cannot shift a key."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        root = Path(tmp).resolve() / "tree"
        root.mkdir()
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(src, root / name)
        hooks = Path(tmp) / "hooks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(SITECUSTOMIZE)
        (hooks / "reach_nopause.py").write_text(PLUGIN)
        keys_dir = Path(tmp) / "keys"
        keys_dir.mkdir()
        env = _env(root, hooks, keys_dir)
        for name, argv in producers(root):
            print(f"reach: {name}", file=sys.stderr, flush=True)
            proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"reach: producer {name!r} failed:\n{proc.stderr}")
        return unreached(read_keys(keys_dir.glob("*.keys"), root), root)


def read_keys(files: Iterable[Path], root: Path) -> Set[Key]:
    """Keys from the profiler dumps, file names made relative to ``root``."""
    keys: Set[Key] = set()
    for path in files:
        for line in path.read_text().splitlines():
            fname, lineno, name = line.split("\t")
            rel = Path(fname).resolve().relative_to(root).as_posix()
            keys.add((rel, int(lineno), name))
    return keys


# -- analysis ------------------------------------------------------------------


def definitions(source: str) -> List[Tuple[int, str, str]]:
    """Every ``def`` in a module as ``(first line, name, qualname)``.

    The first line is the code object's: the first decorator's line for a
    decorated function.  Qualnames follow Python's: a closure is
    ``outer.<locals>.inner``, a nested class's method ``Outer.Inner.m``.
    """
    found: List[Tuple[int, str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.name, qual))
                visit(child, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unreached(reached: Set[Key], root: Path = ROOT) -> List[str]:
    """``path::qualname`` of every function under ``root/src`` whose key is
    not in ``reached``, sorted and without duplicates."""
    missing: Set[str] = set()
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for first, name, qual in definitions(path.read_text()):
            if (rel, first, name) not in reached:
                missing.add(f"{rel}::{qual}")
    return sorted(missing)


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=str(OUTPUT),
                    help="where to write the unreached list ('-' for stdout)")
    args = ap.parse_args(argv)
    text = HEADER + "".join(f"{line}\n" for line in collect())
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
        print(f"reach: wrote {args.output} ({text.count(chr(10)) - 2} functions)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
