"""Outside-in tracing of walklab's layers.

A hook replaces a public function on the module that looks it up at call
time (``walklab.training.forward``, ``walklab.cli.triangle_total``, ...)
with a wrapper that records a span: name, start, end and parent. Spans
stay in memory and are written out when the run ends. Nothing in the
program changes; with no tracer installed the program runs untouched.

A hook whose attribute no longer exists is skipped, so a later change to
the program's internals loses that span instead of breaking the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# (module that looks the function up, attribute, span name). One function
# can be looked up from several modules; each binding needs its own hook.
HOOKS = (
    ("walklab.experiments", "prepare_items", "models.operators"),
    ("walklab.experiments", "fit", "training.fit"),
    ("walklab.experiments", "evaluate", "training.evaluate"),
    ("walklab.training", "evaluate", "training.evaluate"),
    ("walklab.training", "forward", "models.forward"),
    ("walklab.training", "adam_step", "training.adam_step"),
    ("walklab.autodiff", "backward", "autodiff.backward"),
    ("walklab.models", "diag_closed_walks", "walks.diag_closed_walks"),
    ("walklab.walks", "diag_closed_walks", "walks.diag_closed_walks"),
    ("walklab.walks", "triangle_counts_per_node", "walks.triangle_counts_per_node"),
    ("walklab.data", "erdos_renyi", "graphs.erdos_renyi"),
    ("walklab.data", "triangle_total", "walks.triangle_total"),
    ("walklab.data", "four_cycle_count", "walks.four_cycle_count"),
    ("walklab.cli", "read_edge_list", "graphs.read_edge_list"),
    ("walklab.cli", "triangle_total", "walks.triangle_total"),
    ("walklab.cli", "four_cycle_count", "walks.four_cycle_count"),
    ("walklab.cli", "triangle_counts_per_node", "walks.triangle_counts_per_node"),
    ("walklab.cli", "wl_distinguish", "wl.wl_distinguish"),
    ("walklab.cli", "augmented_distinguish", "wl.augmented_distinguish"),
    ("walklab.cli", "is_isomorphic_small", "wl.is_isomorphic_small"),
    ("walklab.wl", "triangle_counts_per_node", "walks.triangle_counts_per_node"),
)

# Per-layer metrics: (name, unit, how, span names or counter).
#   total: summed span durations; self: durations minus child spans;
#   calls: number of spans; count: a counter per pass.
PER_LAYER = (
    ("autodiff.backward_s", "s", "total", ("autodiff.backward",)),
    ("autodiff.tape_nodes_per_step", "count/step", "ratio", ("autodiff.tape_nodes", "autodiff.backward")),
    ("models.forward_s", "s", "total", ("models.forward",)),
    ("models.forward_calls", "count", "calls", ("models.forward",)),
    ("models.operators_s", "s", "total", ("models.operators",)),
    ("training.adam_step_s", "s", "total", ("training.adam_step",)),
    ("training.fit_self_s", "s", "self", ("training.fit",)),
    ("training.evaluate_s", "s", "total", ("training.evaluate",)),
    ("training.steps", "count", "calls", ("training.adam_step",)),
    ("experiments.run_experiment_self_s", "s", "self", ("experiments.run_experiment",)),
    ("experiments.cells", "count", "count", ("experiments.cells",)),
    ("walks.diag_closed_walks_s", "s", "total", ("walks.diag_closed_walks",)),
    ("walks.diag_closed_walks_calls", "count", "calls", ("walks.diag_closed_walks",)),
    ("walks.triangle_total_s", "s", "total", ("walks.triangle_total",)),
    ("walks.four_cycle_count_s", "s", "total", ("walks.four_cycle_count",)),
    ("walks.triangle_counts_per_node_s", "s", "total", ("walks.triangle_counts_per_node",)),
    ("graphs.read_edge_list_s", "s", "total", ("graphs.read_edge_list",)),
    ("graphs.erdos_renyi_s", "s", "total", ("graphs.erdos_renyi",)),
    ("data.gen_dataset_s", "s", "total", ("data.gen_dataset",)),
    ("data.save_dataset_s", "s", "total", ("data.save_dataset",)),
    ("data.load_dataset_s", "s", "total", ("data.load_dataset",)),
    ("wl.refine_s", "s", "self", ("wl.wl_distinguish", "wl.augmented_distinguish")),
    ("wl.canonical_s", "s", "total", ("wl.is_isomorphic_small",)),
    ("wl.rounds", "count", "count", ("wl.rounds",)),
    ("cli.main_self_s", "s", "self", ("cli.main",)),
)


class Tracer:
    """Spans and counters of one phase of a run, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost spans only) and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total"] += end - start
        return out

    def dump(self, fh, phase: str) -> None:
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"phase": phase, "id": i, "name": name, "parent": parent,
                                 "start": start - self.t0, "end": end - self.t0}) + "\n")


def _count_tape(tracer: Tracer, root) -> None:
    """Add the number of tape nodes reachable from ``root`` to the counters.

    Tensors expose no public parent list; a renamed attribute only makes
    the count read as one node per step."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    tracer.counts["autodiff.tape_nodes"] += len(seen)


def _prepare_and_build(prepare_items, *args, **kwargs):
    """Run ``prepare_items`` and build each graph's structure operators now
    instead of inside the first forward pass. An operator exposed as a
    cached attribute rather than a method is built by the access itself."""
    items = prepare_items(*args, **kwargs)
    for item in items:
        for name, op_args in (("adjacency", ()), ("adjacency_with_loops", ()),
                              ("closed_walk_diag", (3,)), ("inv_degree_plus_one", ())):
            attr = getattr(item.ops, name, None)
            if callable(attr):
                attr(*op_args)
    return items


def _wrap(tracer: Tracer, name: str, fn):
    if name == "models.operators":
        return lambda *args, **kwargs: tracer.call(name, _prepare_and_build, fn, *args, **kwargs)
    if name == "autodiff.backward":
        def traced(root, *args, **kwargs):
            # Counted in a span of its own, so no layer's self time pays for it.
            tracer.call("trace.tape_count", _count_tape, tracer, root)
            return tracer.call(name, fn, root, *args, **kwargs)
        return traced
    return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)


class Hooks:
    """Context manager that installs every hook for one tracer and
    restores the original functions on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, span in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrap(self.tracer, span, fn))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def per_layer_metrics(setup: Tracer, setups: int, passes: Tracer, n_passes: int) -> dict:
    """Every per-layer metric for one set-up plus one pass of the workload:
    set-up spans divided by the number of set-ups, pass spans by the
    number of traced passes."""
    parts = [(setup.summary(), setup.counts, setups), (passes.summary(), passes.counts, n_passes)]

    def span_value(field: str, names) -> float:
        return sum(s[name][field] / k for s, _, k in parts for name in names if name in s)

    def counter(name: str) -> float:
        return sum(c[name] / k for _, c, k in parts)

    out = {}
    for name, unit, how, keys in PER_LAYER:
        if how == "count":
            value = counter(keys[0])
        elif how == "ratio":
            steps = span_value("calls", keys[1:])
            value = counter(keys[0]) / steps if steps else 0.0
        else:
            value = span_value(how, keys)
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(path, header: dict, phases: dict[str, Tracer]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for phase, tracer in phases.items():
            tracer.dump(fh, phase)
