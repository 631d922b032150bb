"""Rules the package source keeps, checked on the source text itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "walklab").glob("*.py"))


def test_sources_found():
    assert any(path.name == "wl.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; raise InvariantViolation instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"


def test_benchmark_hooks_resolve():
    # the benchmark's tracer skips a hook whose function is gone, so a
    # renamed function would read 0 in its per-layer metric instead of failing
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.HOOKS and not missing, f"hooks with no function to wrap: {missing}"
