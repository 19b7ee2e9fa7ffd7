"""The analysis half of ``benchmarks/reach.py``: cProfile keys map onto the
right ``def`` statements, so a function shows as unreached exactly when
no profiled call entered it."""

from __future__ import annotations

import cProfile
import importlib.util
import textwrap
from pathlib import Path

import pytest

_REACH = Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _REACH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = textwrap.dedent('''\
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @deco
    @deco
    def decorated(x):
        return x + 1


    @deco
    def decorated_unused(x):
        return x


    def outer(n):
        def closure(k):
            return k * n
        def closure_unused():
            return n
        return closure(2)


    class Box:
        @property
        def size(self):
            return 3

        @size.setter
        def size(self, value):
            pass

        @staticmethod
        def helper():
            return 0

        class Inner:
            def method(self):
                return 1

            def method_unused(self):
                return 2


    def run():
        decorated(1)
        outer(3)
        Box().size
        Box.Inner().method()
''')


@pytest.fixture
def tree(tmp_path):
    """A root with one module under ``src/``, profiled while ``run()`` runs;
    returns ``(root, reached keys)``."""
    path = tmp_path / "src" / "pkg" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("reach_synthetic_mod", path)
    mod = importlib.util.module_from_spec(spec)
    profile = cProfile.Profile()
    profile.enable()
    spec.loader.exec_module(mod)
    mod.run()
    profile.disable()
    profile.create_stats()
    dump = tmp_path / "1.keys"
    dump.write_text("".join(
        f"{f}\t{line}\t{name}\n" for f, line, name in profile.stats
        if f.startswith(str(tmp_path / "src"))
    ))
    return tmp_path, reach.read_keys([dump], tmp_path.resolve())


def test_definitions_key_decorated_functions_by_their_first_decorator():
    defs = {qual: (first, name) for first, name, qual in reach.definitions(MODULE)}
    lines = MODULE.splitlines()
    first, name = defs["decorated"]
    assert (lines[first - 1], name) == ("@deco", "decorated")
    assert lines[defs["Box.helper"][0] - 1].strip() == "@staticmethod"
    assert "outer.<locals>.closure" in defs
    assert "deco.<locals>.wrapper" in defs
    assert "Box.Inner.method" in defs


def test_unreached_lists_exactly_the_functions_never_called(tree):
    root, reached = tree
    assert reach.unreached(reached, root=root) == [
        "src/pkg/mod.py::Box.Inner.method_unused",
        "src/pkg/mod.py::Box.helper",
        "src/pkg/mod.py::Box.size",  # the setter: the getter ran
        "src/pkg/mod.py::decorated_unused",
        "src/pkg/mod.py::outer.<locals>.closure_unused",
    ]


def test_keys_are_relative_to_the_root(tree):
    root, reached = tree
    first = {qual: first for first, _, qual in reach.definitions(MODULE)}["decorated"]
    assert ("src/pkg/mod.py", first, "decorated") in reached
    assert all(not Path(f).is_absolute() for f, _, _ in reached)
