"""Unused imports in ``src/``: pyproject's ruff ``F401`` rule, in tier 1.

Ruff runs in CI's ``lint`` job but may be missing where tier 1 runs, so
this stdlib ``ast`` pass repeats its ``F401`` check over ``src/``: an
import whose bound name the module never reads is an error.  As the ruff
config has it, ``__init__.py`` files are skipped (they re-export), names
listed in ``__all__`` count as read, and so do names read only in quoted
annotations; ``from __future__`` imports and lines marked ``noqa`` are
left alone.  The check is module-wide, so it is no stricter than ruff's
per-scope one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parents[1] / "src"


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
