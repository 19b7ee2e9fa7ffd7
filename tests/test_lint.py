"""Pyproject's ruff rules, in tier 1.

Ruff runs in CI's ``lint`` job but may be missing where tier 1 runs, so
two stdlib passes repeat its checks here.

* ``E9``/``F63``/``F7``: every ``.py`` file under ``src/``, ``tests/``,
  ``examples/`` and ``benchmarks/`` compiles with compiler warnings made
  errors.  That fails a syntax error, ``is`` with a literal, an ``assert``
  on a tuple, a call of a literal, ``break``/``continue``/``return``
  outside their blocks, and an invalid escape sequence (a
  ``SyntaxWarning`` from Python 3.12 on, a ``DeprecationWarning`` before).
* ``F401`` over ``src/``: an import whose bound name the module never
  reads is an error.  As the ruff config has it, ``__init__.py`` files are
  skipped (they re-export), names listed in ``__all__`` count as read, and
  so do names read only in quoted annotations; ``from __future__`` imports
  and lines marked ``noqa`` are left alone.  The check is module-wide, so
  it is no stricter than ruff's per-scope one.
* ``F821`` over the same directories as the compile check: a global name
  that some scope reads (the module body, a function, a class body or a
  comprehension) but that the module never binds (an assignment, an
  import, a ``def``/``class``, or a ``global`` name assigned in a
  function) and that is not a builtin is an error.  Names read only in
  quoted annotations are not checked.
"""

from __future__ import annotations

import ast
import builtins
import symtable
import warnings
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: every directory of Python sources the ruff config covers
LINTED = ("src", "tests", "examples", "benchmarks")


def compile_error(source: str, path: str = "<src>") -> str:
    """The error compiling ``source`` with compiler warnings made errors,
    as ``path:line: message``, or ``""`` when it compiles cleanly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            compile(source, path, "exec", dont_inherit=True)
        except SyntaxError as exc:
            return f"{path}:{exc.lineno}: {exc.msg}"
    return ""


def test_every_file_compiles_without_warnings():
    paths = sorted(path for name in LINTED for path in (ROOT / name).rglob("*.py"))
    assert len(paths) > 250
    errors = [compile_error(p.read_text(), str(p.relative_to(ROOT))) for p in paths]
    assert [e for e in errors if e] == []


@pytest.mark.parametrize(
    "source, message",
    [
        ("def f(:\n    pass\n", ""),
        ("x = 1\nif x is 1:\n    pass\n", '"is" with a literal'),
        ("assert (1 > 2, 'never')\n", "assertion is always true"),
        ("x = [1]()\n", "is not callable"),
        ("break\n", "'break' outside loop"),
        ("def f():\n    continue\n", "'continue' not properly in loop"),
        ("return 1\n", "'return' outside function"),
        ("pattern = '\\d+'\n", "invalid escape sequence"),
    ],
)
def test_the_compile_check_fails_what_ruff_fails(source, message):
    error = compile_error(source)
    assert error.startswith("<src>:") and message in error


def _bound(alias: ast.alias) -> str:
    """The name an import binds: ``import a.b`` binds ``a``."""
    return alias.asname or alias.name.split(".")[0]


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads: loads, ``__all__`` entries and names in
    quoted annotations."""
    names: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.update(
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _read_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def unused_imports(source: str, path: str = "<src>") -> List[str]:
    """``path:line: name`` for every import in ``source`` whose name is never read."""
    tree = ast.parse(source, path)
    lines = source.splitlines()
    read = _read_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = _bound(alias)
                if name != "*" and name not in read:
                    found.append(f"{path}:{node.lineno}: {name}")
    return found


def test_src_has_no_unused_import():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            found += unused_imports(path.read_text(), str(path.relative_to(SRC.parent)))
    assert found == []


def test_the_check_finds_what_ruff_finds():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from typing import List, Optional\n"
        "from json import dumps as to_json\n"
        "from math import pi  # noqa: F401\n"
        "__all__ = ['to_json']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [sys.maxsize]\n"
    )
    assert unused_imports(source) == ["<src>:2: os", "<src>:3: numpy"]


#: names every module can read without binding them
BUILTIN_NAMES = frozenset(dir(builtins)) | {"__file__", "__builtins__", "__path__", "__cached__"}


def _tables(table: symtable.SymbolTable) -> Iterator[symtable.SymbolTable]:
    """``table`` and every scope nested in it."""
    yield table
    for child in table.get_children():
        yield from _tables(child)


def undefined_names(source: str, path: str = "<src>") -> List[str]:
    """``path: name`` for every global name ``source`` reads and never binds,
    builtins aside, sorted."""
    module = symtable.symtable(source, path, "exec")
    bound = {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}
    read: Set[str] = set()
    for table in _tables(module):
        for sym in table.get_symbols():
            if table is module:
                if sym.is_referenced():
                    read.add(sym.get_name())
            elif sym.is_global():
                if sym.is_referenced():
                    read.add(sym.get_name())
                if sym.is_declared_global() and sym.is_assigned():
                    bound.add(sym.get_name())
    return [f"{path}: {name}" for name in sorted(read - bound - BUILTIN_NAMES)]


def test_no_undefined_names():
    found = []
    for path in sorted(path for name in LINTED for path in (ROOT / name).rglob("*.py")):
        found += undefined_names(path.read_text(), str(path.relative_to(ROOT)))
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "print(missing)\n",
        "def f(x):\n    return x + missing\n",
        "class C:\n    size = missing\n",
        "squares = [missing * i for i in range(3)]\n",
    ],
    ids=["module", "function", "class-body", "comprehension"],
)
def test_the_name_check_finds_a_missing_name(source):
    assert undefined_names(source) == ["<src>: missing"]


def test_the_name_check_passes_bound_names():
    source = (
        "import os\n"
        "from math import pi as PI\n"
        "def setup():\n"
        "    global ready\n"
        "    ready = True\n"
        "def area(r):\n"
        "    scale = 2\n"
        "    inner = lambda: scale * PI * r * r\n"
        "    return [inner() for _ in range(len(os.sep))], ready, __file__\n"
        "class Shape:\n"
        "    sides = 0\n"
        "    names = [str(i) for i in range(sides)]\n"
    )
    assert undefined_names(source) == []
