"""Cross-validated regression experiments and the two report commands.

The experiment config is a flat ``key = value`` text file (``#`` starts
a comment). Recognised keys::

    dataset        path to a JSONL dataset (required)
    models         comma list: GCN-<n>L, GCN-L1-<n>L, GCN-D2-<n>L, baseline
    folds          cross-validation folds (default 10)
    seed           master seed (default 0)
    hidden         hidden width (default 16)
    mlp_depth      combine MLP depth, 0, 1 or 2 (default 2)
    lr             Adam learning rate (default 0.001)
    l2             weight penalty (default 0.0005)
    dropout        hidden-activation dropout (default 0.1)
    patience       plateau patience in epochs (default 10)
    lr_factor      plateau LR multiplier (default 0.5)
    max_epochs     epoch cap (default 300)
    normalize      comma list of model names that divide rows by deg+1

Unknown keys are hard errors. Node features are a single constant-one
column, so everything a model learns comes from graph structure.

Each (model, fold) cell trains from its own seed, derived as
``SeedSequence(seed, model_index, fold_index)``, and no cell's result
depends on another cell; results therefore depend only on the config
contents, not on the order in which cells run. So the cells train in
parallel: a pool of forked worker processes, one per usable core and
never more, inherits the prepared graphs and returns the rows in cell
order. With one usable core, or where the platform cannot fork, the
same cell function runs in this process. Both reports are
byte-identical for any core count. ``results.csv`` carries one row per
cell and ``summary.json`` aggregates mean/std test MSE per model next to
the mean-predictor baseline. ``summary.json`` is strict JSON: a
non-finite number is written as ``null``.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FoldPlan, baseline_mean, kfold_split, load_dataset
from .errors import (ConfigError, InputError, InvariantViolation, NumericError,
                     TrainingError)
from .graphs import (Graph, RegionSpec, atomic_write_text, cycle_graph,
                     disjoint_union, extract_region)
from .models import build_model, spec_from_model_name
from .training import TrainConfig, evaluate, fit, prepare_items
from .walks import triangle_counts_per_node
from .wl import Verdict, augmented_distinguish, is_isomorphic_small, wl_distinguish

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "read_config",
    "ExperimentReport",
    "run_experiment",
    "write_report",
    "demo_wl_gap",
    "region_report",
    "RESULTS_HEADER",
]

RESULTS_HEADER = "model,fold,train_mse,val_mse,test_mse"

_DEFAULTS = {
    "dataset": None,
    "models": "baseline",
    "folds": "10",
    "seed": "0",
    "hidden": "16",
    "mlp_depth": "2",
    "lr": "0.001",
    "l2": "0.0005",
    "dropout": "0.1",
    "patience": "10",
    "lr_factor": "0.5",
    "max_epochs": "300",
    "normalize": "",
}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    models: tuple[str, ...]
    folds: int
    seed: int
    hidden: int
    mlp_depth: int
    lr: float
    l2: float
    dropout: float
    patience: int
    lr_factor: float
    max_epochs: int
    normalize: tuple[str, ...]

    def echo(self) -> dict:
        d = dict(self.__dict__)
        d["models"] = list(self.models)
        d["normalize"] = list(self.normalize)
        return d

    def train_config(self, seed: int = 0) -> TrainConfig:
        """The optimisation settings of one cell, whose fit seed is ``seed``."""
        return TrainConfig(lr=self.lr, l2=self.l2, dropout=self.dropout,
                           patience=self.patience, lr_factor=self.lr_factor,
                           max_epochs=self.max_epochs, seed=seed)


def _convert(key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


def parse_config(text: str, seed_override: int | None = None) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val.strip()
    if values["dataset"] is None:
        raise ConfigError("config key 'dataset' is required")
    models = tuple(m.strip() for m in values["models"].split(",") if m.strip())
    if not models:
        raise ConfigError("config key 'models' names no models")
    normalize = tuple(m.strip() for m in values["normalize"].split(",") if m.strip())
    for name in models:
        if name.lower() != "baseline":
            spec_from_model_name(name)  # validates; raises InputError on junk
    for name in normalize:
        if name not in models:
            raise ConfigError(f"config key 'normalize' names unknown model {name!r}")
    seed = _convert("seed", values["seed"], int)
    if seed_override is not None:
        seed = seed_override
    cfg = ExperimentConfig(
        dataset=values["dataset"],
        models=models,
        folds=_convert("folds", values["folds"], int),
        seed=seed,
        hidden=_convert("hidden", values["hidden"], int),
        mlp_depth=_convert("mlp_depth", values["mlp_depth"], int),
        lr=_convert("lr", values["lr"], float),
        l2=_convert("l2", values["l2"], float),
        dropout=_convert("dropout", values["dropout"], float),
        patience=_convert("patience", values["patience"], int),
        lr_factor=_convert("lr_factor", values["lr_factor"], float),
        max_epochs=_convert("max_epochs", values["max_epochs"], int),
        normalize=normalize,
    )
    try:
        cfg.train_config()  # range checks now, not after the first cells train
    except InputError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return cfg


def read_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text, seed_override)
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
    config: dict
    rows: list[Row]
    summary: dict
    wall_clock: float

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


def _run_cell(cell: tuple[int, str, int]) -> Row:
    """Train (or, for the baseline, score) model ``mi`` on fold ``fold``."""
    mi, name, fold = cell
    cfg, plan, items, targets = _RUN
    train_idx, val_idx, test_idx = plan.round(fold)
    if name.lower() == "baseline":
        train_t = [targets[i] for i in train_idx]
        return Row(model=name, fold=fold,
                   train_mse=baseline_mean(train_t, train_t),
                   val_mse=baseline_mean(train_t, [targets[i] for i in val_idx]),
                   test_mse=baseline_mean(train_t, [targets[i] for i in test_idx]))
    spec = spec_from_model_name(name, degree_normalize=name in cfg.normalize)
    spec = replace(spec, layers=tuple(replace(layer, mlp_depth=cfg.mlp_depth)
                                      for layer in spec.layers))
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(mi, fold))
    build_seed, fit_seed = [int(s) for s in ss.generate_state(2)]
    model = build_model(spec, input_dim=1, hidden_dim=cfg.hidden, seed=build_seed)
    train_items = [items[i] for i in train_idx]
    val_items = [items[i] for i in val_idx]
    test_items = [items[i] for i in test_idx]
    try:
        result = fit(model, train_items, val_items, cfg.train_config(fit_seed))
        return Row(model=name, fold=fold,
                   train_mse=evaluate(model, train_items),
                   val_mse=result.best_val,
                   test_mse=evaluate(model, test_items))
    except (TrainingError, NumericError):
        return Row(model=name, fold=fold, train_mse=float("nan"),
                   val_mse=float("nan"), test_mse=float("nan"))


def _map_cells(cells: list[tuple[int, str, int]], workers: int) -> list[Row]:
    """:func:`_run_cell` over ``cells``, in order, on ``workers`` forked
    processes, or in this process when there is one worker or no fork."""
    import multiprocessing

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(_run_cell, cells))
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a forked worker inherits _RUN, where a spawned one
    # would re-import the package and unpickle every graph
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_cell, cells))
    except BrokenProcessPool as exc:
        raise TrainingError(f"a worker process died while training {len(cells)} cells") from exc


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None) -> ExperimentReport:
    """Train every configured model over every fold and aggregate.

    The (model, fold) cells run in a pool of forked processes, one per
    usable core, and come back in cell order. A fold whose training
    diverges (a non-finite loss or non-finite activations) is recorded
    with NaN losses. Every cell with a non-finite MSE is listed under
    ``failed_folds``; the remaining folds still aggregate. A worker that
    dies raises :class:`TrainingError`; any other exception in a cell
    reaches the caller with its type.
    """
    global _RUN
    start = time.monotonic()
    ds = dataset if dataset is not None else load_dataset(cfg.dataset)
    plan: FoldPlan = kfold_split(len(ds), cfg.folds, cfg.seed)
    graphs = ds.graphs()
    targets = ds.targets()
    features = [np.ones((g.n, 1)) for g in graphs]
    items = prepare_items(graphs, features, targets)
    cells = [(mi, name, fold) for mi, name in enumerate(cfg.models) for fold in range(plan.k)]
    trained = sum(1 for _, name, _ in cells if name.lower() != "baseline")
    _RUN = (cfg, plan, items, targets)
    try:
        rows = _map_cells(cells, _worker_count(trained))
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
    return ExperimentReport(config=cfg.echo(), rows=rows, summary=summary,
                            wall_clock=wall)


def write_report(report: ExperimentReport, out_dir) -> tuple[str, str]:
    """Write results.csv and summary.json into out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "summary.json")
    atomic_write_text(csv_path, report.results_csv())
    doc = {
        "config": report.config,
        **report.summary,
        "wall_clock_seconds": report.wall_clock,
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
    report = {
        "graphs": {"g1": "C6", "g2": "C3+C3"},
        "wl": wl_distinguish(ring, twin_triangles).value,
        "augmented": augmented_distinguish(ring, twin_triangles).value,
        "isomorphic": is_isomorphic_small(ring, twin_triangles),
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

    Raises :class:`InvariantViolation` if any D/L region fails the
    containment chain D_k within L_k within D_{k+1}.
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    rows = []
    regions = {}
    for k in range(1, k_max + 2):
        regions[("D", k)] = extract_region(g, v, RegionSpec("D", k))
        regions[("L", k)] = extract_region(g, v, RegionSpec("L", k))
    for k in range(1, k_max + 1):
        d, l, d_next = regions[("D", k)], regions[("L", k)], regions[("D", k + 1)]
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
