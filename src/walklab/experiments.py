"""Cross-validated regression experiments and the two report commands.

The experiment config is a flat ``key = value`` text file (``#`` starts
a comment). Its keys, their types and defaults are the fields of
:class:`ExperimentConfig` and of its nested :class:`TrainConfig`; the
README's "Experiment config" table says what each one means. Unknown
keys are hard errors, and every value is checked when the config is
parsed, before any cell trains. Node features are a single constant-one
column, so everything a model learns comes from graph structure.

Each (model, fold) cell trains from its own seed, derived as
``SeedSequence(seed, model_index, fold_index)``, and no cell's result
depends on another cell; results therefore depend only on the config
contents, not on the order or the grouping in which cells run. The
folds of one model train in lockstep, as one group whose every step is
one stacked pass (:func:`walklab.training.fit`); with fewer trained
models than workers, each model's folds are cut into ceil(workers /
trained models) groups, and no group holds more than
:data:`MAX_GROUP_PARAMS` coordinates. The groups train in parallel: a
pool of forked worker processes, one per usable core and never more,
inherits the prepared graphs and returns the rows in cell order. Every
graph's layer-0 terms, for every term the configured models sum, and
their closed-walk diagonals are built before the fork, once per store
of same-size graphs (:func:`walklab.training.prepare_items`), so no
worker rebuilds them. Each forked worker first raises glibc's mmap and
trim thresholds (:func:`_init_worker`), so that its large numpy temporaries
are reused from the heap instead of being mapped and unmapped on every
step; the setting applies only to forked workers, never to the calling
process.
With one usable core, or where the platform cannot fork, the same group
function runs in this process, with the allocator as it is.
``results.csv`` carries one row per cell and is byte-identical for any
core count. ``summary.json`` aggregates mean/std test MSE per model next
to the mean-predictor baseline and lists, under ``cells``, how each
trained cell's training went; ``prepare_seconds`` is the serial layer-0
build before the fork, next to ``wall_clock_seconds``. Only its timings
depend on the core count.
``summary.json`` is strict JSON: a non-finite number is written as
``null``.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, FoldPlan, baseline_mean, kfold_split, load_dataset
from .errors import (CapacityError, ConfigError, InputError, InvariantViolation,
                     NumericError, TrainingError)
from .graphs import (Graph, RegionSpec, atomic_write_text, cycle_graph,
                     bfs_distances, disjoint_union, read_text, region_from_distances)
from .models import MAX_HIDDEN_DIM, ModelSpec, build_model, spec_from_model_name
from .training import TrainConfig, evaluate, fit, prepare_items
from .walks import triangle_counts_per_node
from .wl import Verdict, compare_pair

RESULTS_HEADER = "model,fold,train_mse,val_mse,test_mse"

# Capacity limit on region_report: k_max times the graph's size, its n
# nodes plus its 2m CSR entries. Each radius builds two regions, each a
# pass over every entry and Python sets of up to n nodes and m edges. At
# the limit, with k_max = n (shared 2-core x86-64, Python 3.11): K_215
# takes 3.0 s, ER(1000, 0.0085) 3.5 s and a 1826-node path 1.4 s, at
# most 80 MB peak RSS.
MAX_REGION_WORK = 10**7

# Most parameter coordinates (cells x coordinates per model) in one lockstep
# group. Training holds five arrays of that size (the weights, the
# gradient, two Adam moments and the best snapshots), a sixth when cells
# step apart (a scratch copy of the rows a step takes), and peaks at about
# nine to twelve during an Adam update (tracemalloc, GCN-2L at hidden 128):
# 32 MiB each at this cap. A model of more coordinates trains a cell a group.
MAX_GROUP_PARAMS = 1 << 22

# How a config value is read, by the annotation of the field it fills
_PARSERS = {"str": str, "int": int, "float": float,
            "tuple[str, ...]": lambda raw: tuple(m.strip() for m in raw.split(",") if m.strip())}
# The optimiser keys: TrainConfig's fields but the fit seed each cell derives
_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig) if f.name != "seed"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Each field is the config key of its name, except
    ``train``, which holds the optimiser keys."""

    dataset: str
    models: tuple[str, ...] = ("baseline",)
    folds: int = 10
    seed: int = 0
    hidden: int = 16
    mlp_depth: int = 2
    train: TrainConfig = TrainConfig()
    normalize: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        listed = [name.upper() for name in self.models]
        if not listed:
            raise ConfigError("config key 'models' names no models")
        for i, name in enumerate(self.models):
            if listed[i] in listed[:i]:
                raise ConfigError(f"config key 'models' names {name!r} more than once")
            if listed[i] != "BASELINE":
                self.model_spec(name)  # ConfigError on a bad name or mlp_depth
        for name in self.normalize:
            if name.upper() not in listed:
                raise ConfigError(f"config key 'normalize' names unknown model {name!r}")
        for key, value, least in (("folds", self.folds, 3), ("hidden", self.hidden, 1),
                                  ("seed", self.seed, 0)):
            if value < least:
                raise ConfigError(f"config key {key!r} must be >= {least}, got {value}")
        if self.hidden > MAX_HIDDEN_DIM:
            raise ConfigError(f"config key 'hidden' must be <= {MAX_HIDDEN_DIM}, got {self.hidden}")

    def model_spec(self, name: str) -> ModelSpec:
        """The spec model ``name`` trains with: ``mlp_depth`` in every layer,
        degree-normalised when ``normalize`` lists it (in any case)."""
        try:
            return spec_from_model_name(
                name, name.upper() in (m.upper() for m in self.normalize), self.mlp_depth)
        except InputError as exc:
            raise ConfigError(f"config: {exc}") from exc

    def echo(self) -> dict:
        """Every config key and its value, flat, as ``summary.json`` records them."""
        values = {**self.train.__dict__, **self.__dict__}
        return {k: list(values[k]) if isinstance(values[k], tuple) else values[k] for k in _KEYS}


# Every config key and the annotation it is read by, in field order
_KEYS = {key: kind for f in fields(ExperimentConfig)
         for key, kind in (_TRAIN_KEYS.items() if f.name == "train" else [(f.name, f.type)])}


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"config key {key!r} is given twice, "
                              f"on line {lines[key]} and line {lineno}")
        try:
            values[key] = _PARSERS[_KEYS[key]](val)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {val!r}") from exc
    if not values.get("dataset"):
        raise ConfigError("config key 'dataset' is required and must name a file")
    if seed_override is not None:
        values["seed"] = seed_override
    try:
        train = TrainConfig(**{key: values.pop(key) for key in _TRAIN_KEYS if key in values})
    except InputError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return ExperimentConfig(train=train, **values)


def read_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        return parse_config(read_text(path), seed_override)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except InputError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class Row:
    model: str
    fold: int
    train_mse: float
    val_mse: float
    test_mse: float


@dataclass
class ExperimentReport:
    """``cells`` holds one record per trained cell, in cell order: its
    model and fold, the epochs run, the best epoch, the stop reason
    (``early_stop``, ``max_epochs`` or ``diverged``), the lr cuts and
    ``seconds``, the wall time of the lockstep group the cell trained in
    (building, training and scoring all of the group's cells), so cells
    of one group record the same seconds. A diverged cell records None
    (null in ``summary.json``) for the epochs, best epoch and lr cuts.
    ``prepare_seconds`` is the part of ``wall_clock`` spent building the
    graphs' layer-0 terms and closed-walk diagonals, serially, before any
    worker forks."""

    config: dict
    rows: list[Row]
    summary: dict
    wall_clock: float
    prepare_seconds: float
    cells: list[dict]

    def results_csv(self) -> str:
        buf = io.StringIO()
        buf.write(RESULTS_HEADER + "\n")
        for r in self.rows:
            buf.write(f"{r.model},{r.fold},{_fmt(r.train_mse)},{_fmt(r.val_mse)},{_fmt(r.test_mse)}\n")
        return buf.getvalue()


def _fmt(x: float) -> str:
    return "nan" if not np.isfinite(x) else repr(float(x))


def _mean_std(values: list[float]) -> tuple[float, float]:
    ok = [v for v in values if np.isfinite(v)]
    if not ok:
        return float("nan"), float("nan")
    mean = float(np.mean(ok))
    std = float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0
    return mean, std


def _worker_count(trained_cells: int) -> int:
    """Pool size: at most one worker per usable core and per trained cell."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        usable = os.cpu_count() or 1
    return max(1, min(usable, os.cpu_count() or 1, trained_cells))


# (cfg, plan, items, targets) of the running experiment. run_experiment
# sets it just before its workers fork, so they inherit every graph
# instead of receiving it pickled.
_RUN: tuple | None = None


def _run_group(group: tuple[int, str, tuple[int, ...]]) -> list[tuple[Row, dict | None]]:
    """Train (or, for the baseline, score) model ``mi`` on each of its
    ``folds`` as one lockstep group: per fold, in order, its row and, for
    a trained cell, its record in ``cells``."""
    mi, name, folds = group
    cfg, plan, items, targets = _RUN
    rounds = [plan.round(fold) for fold in folds]
    if name.lower() == "baseline":
        out = []
        for fold, (train_idx, val_idx, test_idx) in zip(folds, rounds):
            train_t = [targets[i] for i in train_idx]
            out.append((Row(model=name, fold=fold,
                            train_mse=baseline_mean(train_t, train_t),
                            val_mse=baseline_mean(train_t, [targets[i] for i in val_idx]),
                            test_mse=baseline_mean(train_t, [targets[i] for i in test_idx])), None))
        return out
    start = time.perf_counter()
    seeds = [[int(s) for s in np.random.SeedSequence(cfg.seed, spawn_key=(mi, fold))
              .generate_state(2)] for fold in folds]
    spec = cfg.model_spec(name)
    models = [build_model(spec, input_dim=1, hidden_dim=cfg.hidden, seed=build_seed)
              for build_seed, _ in seeds]
    stack = models[0].with_flat(np.stack([m.flat for m in models]))
    splits = [[[items[i] for i in idx] for idx in r] for r in rounds]
    results = fit(stack, [s[0] for s in splits], [s[1] for s in splits],
                  [replace(cfg.train, seed=fit_seed) for _, fit_seed in seeds])
    out = []
    for f, (fold, result, (train_items, _, test_items)) in enumerate(zip(folds, results, splits)):
        row = Row(model=name, fold=fold, train_mse=float("nan"),
                  val_mse=float("nan"), test_mse=float("nan"))
        record = {"epochs": None, "best_epoch": None, "stop_reason": "diverged", "lr_cuts": None}
        if result.stop_reason != "diverged":
            # how training went, even when scoring the snapshot then fails
            record = {"epochs": len(result.history) - 1, "best_epoch": result.best_epoch,
                      "stop_reason": result.stop_reason, "lr_cuts": result.lr_cuts}
            model = stack.with_flat(stack.flat[f])
            try:
                row = Row(model=name, fold=fold,
                          train_mse=evaluate(model, train_items),
                          val_mse=result.best_val,
                          test_mse=evaluate(model, test_items))
            except NumericError:
                pass
        out.append((row, record))
    seconds = time.perf_counter() - start
    return [(row, {"model": name, "fold": fold, **record, "seconds": seconds})
            for fold, (row, record) in zip(folds, out)]


def _plan_groups(cfg: ExperimentConfig, folds: int,
                 workers: int) -> list[tuple[int, str, tuple[int, ...]]]:
    """The lockstep groups ``(model index, model name, folds)`` of an
    experiment, in config order: one per model, its folds cut into
    ``ceil(workers / trained models)`` groups when there are fewer trained
    models than workers, and into more when a group would hold more than
    :data:`MAX_GROUP_PARAMS` coordinates; never more groups than folds."""
    trained = [name for name in cfg.models if name.lower() != "baseline"]
    groups = []
    for mi, name in enumerate(cfg.models):
        cuts = 1
        if name.lower() != "baseline":
            size = build_model(cfg.model_spec(name), 1, cfg.hidden, seed=0).flat.size
            per_group = max(1, MAX_GROUP_PARAMS // size)
            cuts = min(folds, max(-(-workers // len(trained)), -(-folds // per_group)))
        groups += [(mi, name, tuple(range(folds * j // cuts, folds * (j + 1) // cuts)))
                   for j in range(cuts)]
    return groups


# glibc mallopt parameters (malloc.h) and the values a worker sets: blocks
# below 4 MiB come from the heap, and up to 16 MiB of free heap top stays
# mapped. By default glibc maps every block of 128 KiB or more on its own
# (evaluate's 512 KiB activations, Adam's (F, P) temporaries) and unmaps it
# on free, so each use pays fresh page faults. Over three train-cv passes
# on two workers (shared 2-core x86-64) the workers took 0.53-0.58 M minor
# faults and 1.2-1.3 s of system time, and 36 k and 0.1-0.15 s with these
# settings, at the same 49 MB peak RSS.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_MALLOPT = ((_M_MMAP_THRESHOLD, 4 << 20), (_M_TRIM_THRESHOLD, 16 << 20))


def _init_worker() -> None:
    """Pool initializer: keep a forked worker's large numpy temporaries
    on the heap through glibc ``mallopt``. Where the C library has no
    ``mallopt`` it does nothing, and it never raises, so it cannot break
    the pool; the calling process is left as it is."""
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        for param, value in _WORKER_MALLOPT:
            mallopt(param, value)
    except (ImportError, OSError, AttributeError, TypeError):
        pass  # no ctypes, no C library or no mallopt: the default allocator is fine


def _map_groups(groups: list[tuple[int, str, tuple[int, ...]]],
                workers: int) -> list[tuple[Row, dict | None]]:
    """:func:`_run_group` over ``groups`` on ``workers`` forked processes,
    or in this process when there is one worker or no fork: every cell's
    row and record, in the order of ``groups``. Each worker starts with
    :func:`_init_worker`; the in-process path does not call it."""
    import multiprocessing

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [cell for group in map(_run_group, groups) for cell in group]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a forked worker inherits _RUN, where a spawned one
    # would re-import the package and unpickle every graph
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker) as pool:
            return [cell for group in pool.map(_run_group, groups) for cell in group]
    except BrokenProcessPool as exc:
        cells = sum(len(folds) for _, _, folds in groups)
        raise TrainingError(f"a worker process died while training {cells} cells") from exc


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None) -> ExperimentReport:
    """Train every configured model over every fold and aggregate.

    The folds of each trained model train as one lockstep group; with
    fewer trained models than workers, each model's folds are cut into
    several (:func:`_plan_groups`). The groups run in a pool of forked
    processes, one per usable core, and their cells come back in cell
    order. A fold
    whose training diverges (a non-finite loss or non-finite activations)
    is recorded with NaN losses. Every cell with a non-finite MSE is
    listed under ``failed_folds``; the remaining folds still aggregate. A
    worker that dies raises :class:`TrainingError`; any other exception
    in a group reaches the caller with its type.
    """
    global _RUN
    start = time.monotonic()
    ds = dataset if dataset is not None else load_dataset(cfg.dataset)
    plan: FoldPlan = kfold_split(len(ds), cfg.folds, cfg.seed)
    graphs = ds.graphs()
    targets = ds.targets()
    features = [np.ones((g.n, 1)) for g in graphs]
    trained = [name for name in cfg.models if name.lower() != "baseline"]
    terms = tuple(dict.fromkeys(t for name in trained for t in cfg.model_spec(name).terms))
    prepare_start = time.perf_counter()
    items = prepare_items(graphs, features, targets, terms=terms)
    prepare_seconds = time.perf_counter() - prepare_start
    workers = _worker_count(len(trained) * plan.k)
    _RUN = (cfg, plan, items, targets)
    try:
        rows, records = zip(*_map_groups(_plan_groups(cfg, plan.k, workers), workers))
    finally:
        _RUN = None
    failed: dict[str, list[int]] = {}
    for r in rows:
        if not np.isfinite([r.train_mse, r.val_mse, r.test_mse]).all():
            failed.setdefault(r.model, []).append(r.fold)
    per_model = {}
    for name in cfg.models:
        tests = [r.test_mse for r in rows if r.model == name]
        vals = [r.val_mse for r in rows if r.model == name]
        mean, std = _mean_std(tests)
        val_mean, _ = _mean_std(vals)
        per_model[name] = {
            "fold_test_mse": tests,
            "mean_test_mse": mean,
            "std_test_mse": std,
            "mean_val_mse": val_mean,
        }
    summary = {
        "dataset_size": len(ds),
        "models": per_model,
        "failed_folds": failed,
    }
    wall = time.monotonic() - start
    return ExperimentReport(config=cfg.echo(), rows=list(rows), summary=summary,
                            wall_clock=wall, prepare_seconds=prepare_seconds,
                            cells=[r for r in records if r is not None])


def write_report(report: ExperimentReport, out_dir) -> tuple[str, str]:
    """Write results.csv and summary.json into out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "summary.json")
    atomic_write_text(csv_path, report.results_csv())
    doc = {
        "config": report.config,
        **report.summary,
        "cells": report.cells,
        "wall_clock_seconds": report.wall_clock,
        "prepare_seconds": report.prepare_seconds,
    }
    atomic_write_text(json_path, json.dumps(_nan_to_none(doc), indent=1, allow_nan=False))
    return csv_path, json_path


def _nan_to_none(x):
    """``x`` with every non-finite float in its dicts and lists as None."""
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_nan_to_none(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def demo_wl_gap() -> dict:
    """The hexagon versus two triangles: refinement ties, triangles don't.

    Both graphs are 2-regular on six nodes, so degree-based refinement
    returns one colour class for each and cannot separate them, yet they
    are not isomorphic. Seeding the labels with per-node triangle counts
    breaks the tie.
    """
    ring = cycle_graph(6)
    twin_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    pair = compare_pair(ring, twin_triangles)
    report = {
        "graphs": {"g1": "C6", "g2": "C3+C3"},
        "wl": pair.wl.value,
        "augmented": pair.augmented.value,
        "isomorphic": pair.isomorphic,
        "triangles_per_node_g1": [int(t) for t in triangle_counts_per_node(ring)],
        "triangles_per_node_g2": [int(t) for t in triangle_counts_per_node(twin_triangles)],
    }
    expected = (Verdict.INDISTINGUISHABLE.value, Verdict.DISTINGUISHABLE.value, False)
    got = (report["wl"], report["augmented"], report["isomorphic"])
    if got != expected:
        raise InvariantViolation(f"demo expectations broken: {got} != {expected}")
    return report


def region_report(g: Graph, v: int, k_max: int) -> list[dict]:
    """Region sizes around v for radii 1..k_max, with the nesting check.

    ``k_max`` runs from 1 to n: no region grows past radius n - 1, and
    ``k_max * (n + 2m)`` may not pass :data:`MAX_REGION_WORK`. Raises
    :class:`InvariantViolation` if any D/L region fails the containment
    chain D_k within L_k within D_{k+1}. Only the regions of one radius
    are kept.
    """
    if not 1 <= k_max <= g.n:
        raise InputError(f"k_max must be in 1..{g.n} (the node count), got {k_max}")
    work = k_max * (g.n + g.indices.size)
    if work > MAX_REGION_WORK:
        raise CapacityError(f"regions up to radius {k_max} need k_max * (n + 2m) = {work} "
                            f"steps; the limit is {MAX_REGION_WORK}")
    rows = []
    dist = np.array(bfs_distances(g, v))
    d_next = region_from_distances(g, v, dist, RegionSpec("D", 1))
    for k in range(1, k_max + 1):
        d, l = d_next, region_from_distances(g, v, dist, RegionSpec("L", k))
        d_next = region_from_distances(g, v, dist, RegionSpec("D", k + 1))
        for small, big, tag in ((d, l, f"D_{k} <= L_{k}"),
                                (l, d_next, f"L_{k} <= D_{k + 1}")):
            if not (small.nodes <= big.nodes and small.edges <= big.edges):
                raise InvariantViolation(f"region nesting violated at {tag}")
        rows.append({
            "k": k,
            "d_nodes": len(d.nodes),
            "d_edges": len(d.edges),
            "l_nodes": len(l.nodes),
            "l_edges": len(l.edges),
        })
    return rows
