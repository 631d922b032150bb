"""Rules the package source keeps, checked on the source text itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from oracles import item_row

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_top_level_imports_are_used(path):
    # a removal can leave its imports behind; an import kept only to be
    # looked up from outside says so with ``# noqa: F401``
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        unused += [(node.lineno, name) for name in names if name not in used]
    assert not unused, f"{path.name}: unused import(s) (line, name): {unused}"


def _import_time_imports(tree):
    """The import statements a module runs when it is imported: all but
    those inside functions and ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _scipy_imports(nodes):
    """The (line, module) of every import of scipy among ``nodes``."""
    found = []
    for node in nodes:
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
            alias.name for alias in node.names]
        found += [(node.lineno, name) for name in names if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_scipy_is_imported_on_first_use(path):
    # loading scipy.sparse takes about half of a bare CLI start-up, and
    # wl, demo-wl-gap and gen never build a sparse matrix
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _scipy_imports(_import_time_imports(tree))
    assert not found, f"{path.name}: scipy imported at module level (line, module): {found}"


@pytest.mark.parametrize("path", [path for path in SOURCES
                                  if path.name not in ("graphs.py", "models.py")],
                         ids=lambda path: path.name)
def test_scipy_only_in_graphs_and_models(path):
    # the BFS of graphs and the float operators of models are the only
    # sparse matrices; every exact count is numpy alone
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _scipy_imports(node for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, f"{path.name}: scipy imported (line, module): {found}"


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
    rows = [item_row(item) for item in items]
    assert [row.graph for row in rows] == graphs
    assert [row.target.item() for row in rows] == [1.0, 2.0, 3.0, 4.0]
    for item, row in zip(items, rows):
        assert item.ops.shape == (1, row.graph.n)
        assert list(row.layer0) == list(terms)
