"""Rules the package source keeps, checked on the source text itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


def _tracing():
    """perfbench's tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_hooks_resolve():
    # the benchmark's tracer skips a hook whose function is gone, so a
    # renamed function would read 0 in its per-layer metric instead of failing
    tracing = _tracing()
    missing = [(module, attr) for module, attr, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.HOOKS and not missing, f"hooks with no function to wrap: {missing}"


def test_traced_operator_hook_returns_the_items():
    # the tracer wraps experiments.prepare_items and reads item.ops of every
    # item it returns; without TrainItem.ops a traced run fails every call
    from walklab import experiments
    from walklab.graphs import erdos_renyi
    from walklab.models import FAMILIES

    graphs = [erdos_renyi(n, 0.3, seed) for seed, n in enumerate((9, 9, 12, 9))]
    terms = tuple(dict.fromkeys(t for family in ("", "D2") for t in FAMILIES[family]))
    items = _tracing()._prepare_and_build(
        experiments.prepare_items, graphs, [np.ones((g.n, 1)) for g in graphs],
        [1.0, 2.0, 3.0, 4.0], terms=terms)
    assert [item.graph for item in items] == graphs
    assert [item.target.item() for item in items] == [1.0, 2.0, 3.0, 4.0]
    for item in items:
        assert item.ops.shape == (1, item.graph.n)
        assert list(item.layer0) == list(terms)
