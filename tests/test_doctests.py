"""Every ``>>>`` example in the library's docstrings runs and prints what it shows."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent


def _modules_with_examples():
    for path in sorted(ROOT.rglob("*.py")):
        if ">>>" in path.read_text():
            parts = path.relative_to(ROOT.parent).with_suffix("").parts
            yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = list(_modules_with_examples())


def test_examples_found():
    assert {"repro", "repro.cache", "repro.core.retrieval"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_docstring_examples(module):
    result = doctest.testmod(
        importlib.import_module(module), optionflags=doctest.ELLIPSIS, report=False
    )
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
