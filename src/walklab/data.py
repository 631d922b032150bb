"""Synthetic graph regression datasets and cross-validation splits.

A dataset is a list of (graph, target) pairs plus the generation
metadata needed to reproduce it. On disk it is JSON Lines, one graph per
line::

    {"n": 50, "edges": [[0, 3], [1, 7], ...], "target": 19}

with the metadata in a ``<path>.meta.json`` sidecar. Graph i of a run is
drawn from the PCG64 stream seeded by ``SeedSequence(seed, spawn_key=(i,))``,
so regeneration from metadata reproduces every edge and target exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, atomic_write_text, erdos_renyi, from_edge_list, read_text
from .walks import four_cycle_count, triangle_total

TARGET_KINDS = ("triangles", "four_cycles")


@dataclass(frozen=True)
class DatasetMeta:
    """Generation recipe; enough to rebuild the dataset bit-for-bit."""

    n_graphs: int
    n_nodes: int
    edge_prob: float
    target: str
    seed: int


@dataclass
class Dataset:
    items: list[tuple[Graph, float]]
    meta: DatasetMeta | None = None

    def __len__(self) -> int:
        return len(self.items)

    def graphs(self) -> list[Graph]:
        return [g for g, _ in self.items]

    def targets(self) -> list[float]:
        return [t for _, t in self.items]


def _target_value(g: Graph, kind: str) -> int:
    if kind == "triangles":
        return triangle_total(g)
    if kind == "four_cycles":
        return four_cycle_count(g)
    raise InputError(f"unknown target kind {kind!r}; expected one of {TARGET_KINDS}")


def gen_dataset(n_graphs: int, n_nodes: int, edge_prob: float, target: str,
                seed: int) -> Dataset:
    """Sample ER graphs and label each with an exact subgraph count."""
    if n_graphs < 1:
        raise InputError(f"need at least one graph, got {n_graphs}")
    if target not in TARGET_KINDS:
        raise InputError(f"unknown target kind {target!r}; expected one of {TARGET_KINDS}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    items = []
    for i in range(n_graphs):
        g = erdos_renyi(n_nodes, edge_prob,
                        np.random.SeedSequence(seed, spawn_key=(i,)))
        items.append((g, float(_target_value(g, target))))
    meta = DatasetMeta(n_graphs=n_graphs, n_nodes=n_nodes, edge_prob=edge_prob,
                       target=target, seed=seed)
    return Dataset(items=items, meta=meta)


def save_dataset(ds: Dataset, path) -> None:
    lines = []
    for g, t in ds.items:
        target = int(t) if float(t).is_integer() else float(t)
        lines.append(json.dumps(
            {"n": g.n, "edges": [[u, v] for u, v in g.edges()], "target": target},
            separators=(",", ":")))
    atomic_write_text(path, "\n".join(lines) + "\n")
    meta_path = str(path) + ".meta.json"
    if ds.meta is not None:
        atomic_write_text(meta_path, json.dumps(ds.meta.__dict__, indent=1))
    else:  # an older dataset's sidecar would be read as this one's
        try:
            os.unlink(meta_path)
        except FileNotFoundError:
            pass


def load_dataset(path) -> Dataset:
    items = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise InputError(f"{path}:{lineno}: bad JSON: {exc}") from exc
        try:
            g = from_edge_list(rec["n"], rec["edges"])
            target = rec["target"]
            if isinstance(target, bool) or not isinstance(target, _META_TYPES["float"]):
                raise InputError(f"target must be a number, got {target!r}")
            target = float(target)  # OverflowError for an int past the float range
        except KeyError as exc:
            raise InputError(f"{path}:{lineno}: missing dataset field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # InputError is a ValueError
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        except CapacityError as exc:
            raise CapacityError(f"{path}:{lineno}: {exc}") from exc
        if not math.isfinite(target):
            raise InputError(f"{path}:{lineno}: target {target} is not finite")
        items.append((g, target))
    if not items:
        raise InputError(f"{path}: empty dataset")
    meta_path = str(path) + ".meta.json"
    meta = _load_meta(meta_path) if os.path.exists(meta_path) else None
    if meta is not None:
        sizes = sorted({g.n for g, _ in items})
        if meta.n_graphs != len(items) or sizes != [meta.n_nodes]:
            raise InputError(
                f"{meta_path}: sidecar describes {meta.n_graphs} graphs of {meta.n_nodes}"
                f" nodes, but {path} holds {len(items)} graphs of {sizes} nodes")
    return Dataset(items=items, meta=meta)


# JSON types each DatasetMeta field accepts, by its annotation
_META_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _load_meta(path: str) -> DatasetMeta:
    """The sidecar at ``path``; any malformed document raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise InputError(f"{path}: bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    fields = {f.name: _META_TYPES[f.type] for f in dataclasses.fields(DatasetMeta)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise InputError(f"{path}: unknown sidecar keys {unknown}")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise InputError(f"{path}: missing sidecar keys {missing}")
    for name, kinds in fields.items():
        value = doc[name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise InputError(f"{path}: {name} must be {kinds[-1].__name__}, got {value!r}")
    return DatasetMeta(**doc)


@dataclass(frozen=True)
class FoldPlan:
    """Per-round index triples. Round i tests on fold i and validates on
    fold i+1 (cyclically); the remaining folds train."""

    k: int
    rounds: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]

    def round(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(train, val, test) index tuples for round i."""
        return self.rounds[i]


def kfold_split(size: int, k: int, seed: int) -> FoldPlan:
    """Shuffle 0..size-1 and cut into k near-equal folds.

    Every index lands in exactly one test fold and one validation fold
    across the k rounds; splits are disjoint within each round.
    """
    if k < 3:
        raise InputError(f"k-fold needs k >= 3 (train/val/test must be disjoint), got {k}")
    if size < k:
        raise InputError(f"cannot cut {size} items into {k} folds")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(size)]
    base, extra = divmod(size, k)
    folds: list[tuple[int, ...]] = []
    at = 0
    for f in range(k):
        width = base + (1 if f < extra else 0)
        folds.append(tuple(order[at:at + width]))
        at += width
    rounds = []
    for i in range(k):
        test = folds[i]
        val = folds[(i + 1) % k]
        train = tuple(idx for f in range(k) if f not in (i, (i + 1) % k)
                      for idx in folds[f])
        rounds.append((train, val, test))
    return FoldPlan(k=k, rounds=tuple(rounds))


def baseline_mean(train_targets, eval_targets) -> float:
    """MSE of always predicting the training-set mean."""
    train = np.asarray(list(train_targets), dtype=np.float64)
    ev = np.asarray(list(eval_targets), dtype=np.float64)
    if train.size == 0 or ev.size == 0:
        raise InputError("baseline needs nonempty target lists")
    mean = float(train.mean())
    d = ev - mean
    return float((d * d).mean())
