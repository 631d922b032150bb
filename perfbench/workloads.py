"""The three workloads: what each one runs, and how its outputs are checked.

Every workload drives walklab through its public functions in-process:
``train-cv`` calls ``walklab.experiments.run_experiment``, the other two
call the CLI entry ``walklab.cli.main``. A workload is a list of calls
that make up one pass; the runner repeats passes and times each call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Outcome:
    """What checking one call found: failed ops, messages, traced counts."""

    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class Call:
    """One timed call into the program.

    ``key`` names the call across passes, ``span`` is its root span when
    traced, and ``ops`` is how many user-visible operations it performs.
    """

    key: str
    span: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


class Workload:
    """Defaults for a workload whose program needs no set-up of its own."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, call) -> None:
        """The program's own input preparation; ``call(span, fn, *args)``."""

    def check_setup(self) -> list[str]:
        return []

    def make_inputs(self, trace: bool) -> None:
        raise NotImplementedError

    def warm_up_calls(self) -> list[Call]:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def units(self) -> dict[str, float]:
        """Work per pass, by name; the runner reports each per second."""
        return {}

    def finish(self) -> dict:
        """Information about the run beyond the metrics."""
        return {}


def _read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if path.exists():
            os.remove(path)


def _cli_call(key: str, argv: list[str], out: Path, expect, counts=None) -> Call:
    """A ``walklab.cli.main`` call whose JSON output must satisfy ``expect``.

    The output file is removed after each check, so a run that writes
    nothing cannot pass on an earlier run's file. ``counts`` are added to
    the traced counters for each call.
    """
    from walklab import cli

    def check(rc) -> Outcome:
        if rc != 0:
            return Outcome(1, [f"{key}: exit code {rc}"])
        try:
            doc = _read_json(out)
        except (OSError, ValueError) as exc:
            return Outcome(1, [f"{key}: unreadable output: {exc}"])
        errors = expect(doc)
        return Outcome(1 if errors else 0, [f"{key}: {e}" for e in errors], dict(counts or {}))

    return Call(key, "cli.main", 1, lambda: cli.main(argv + ["--out", str(out)]), check)


# --- train-cv -------------------------------------------------------------

# The desk-scale acceptance config: two datasets of 200 ER(50, 0.1) graphs.
# Digests are sha256 over the canonical text of (n, edges, target) per
# graph, so they pin the dataset content, not its file layout.
RECIPES = {
    "triangles": dict(n_graphs=200, n_nodes=50, edge_prob=0.1, target="triangles", seed=1001,
                      digest="38d8b5476d5edab006a08964e9225f860e3b25d23b848cee1bef5895683d2464"),
    "four_cycles": dict(n_graphs=200, n_nodes=50, edge_prob=0.1, target="four_cycles", seed=1002,
                        digest="cbe795385322e2441260818488799f58f5b75f9f2e96c5b51c7d71e1c573e647"),
}
MODELS = {
    "triangles": ("baseline,GCN-2L,GCN-3L,GCN-L1-1L,GCN-D2-1L", "GCN-2L,GCN-3L"),
    "four_cycles": ("baseline,GCN-D2-1L", ""),
}
FOLDS = 10
# One epoch with patience >= max_epochs: early stopping cannot fire, so
# the number of optimisation steps never depends on float rounding.
MAX_EPOCHS = 1
WARM_UP_GRAPHS = 30


def dataset_digest(ds) -> str:
    h = hashlib.sha256()
    for g, t in ds.items:
        h.update(f"{g.n}:{g.edges()}:{float(t)!r}\n".encode())
    return h.hexdigest()


def _config(path: Path, key: str, seed: int, folds: int):
    from walklab.experiments import parse_config

    models, normalize = MODELS[key]
    return parse_config(
        f"dataset = {path}\nmodels = {models}\nnormalize = {normalize}\n"
        f"folds = {folds}\nseed = {seed}\n"
        f"max_epochs = {MAX_EPOCHS}\npatience = {MAX_EPOCHS}\n")


class TrainCV(Workload):
    """Cross-validated training of the desk-scale config; one op is one
    (model, fold) cell. The seed picks the fold split and the initial
    weights; the datasets are the fixed recipes above."""

    name = "train-cv"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.datasets = {}
        self.configs = {}
        self.csv: dict[str, bytes] = {}
        self.summaries: dict[str, dict] = {}

    def prepare(self, call) -> None:
        from walklab import data

        for key, r in RECIPES.items():
            path = self.work / f"{key}.jsonl"
            ds = call("data.gen_dataset", data.gen_dataset, r["n_graphs"], r["n_nodes"],
                      r["edge_prob"], r["target"], r["seed"])
            call("data.save_dataset", data.save_dataset, ds, path)
            self.datasets[key] = call("data.load_dataset", data.load_dataset, path)

    def check_setup(self) -> list[str]:
        errors = []
        for key, r in RECIPES.items():
            ds = self.datasets[key]
            meta = ds.meta.__dict__ if ds.meta is not None else {}
            recipe = {k: v for k, v in r.items() if k != "digest"}
            if meta != recipe:
                errors.append(f"{key}: dataset metadata {meta} != recipe {recipe}")
            digest = dataset_digest(ds)
            if digest != r["digest"]:
                errors.append(f"{key}: dataset digest {digest} != {r['digest']}")
            bad = 0
            for g, t in ds.items:
                edges = g.edges()
                want = (sum(oracles.triangles_per_node(g.n, edges)) // 3 if key == "triangles"
                        else oracles.four_cycles(g.n, edges))
                bad += want != t
            if bad:
                errors.append(f"{key}: {bad} targets differ from the independent count")
        return errors

    def make_inputs(self, trace: bool) -> None:
        for key in RECIPES:
            self.configs[key] = _config(self.work / f"{key}.jsonl", key, self.seed, FOLDS)

    def _call(self, key: str, cfg, ds, compare: bool) -> Call:
        from walklab import experiments

        models = len(cfg.models)

        def check(report) -> Outcome:
            rows = report.rows
            finite = [r for r in rows
                      if all(math.isfinite(x) for x in (r.train_mse, r.val_mse, r.test_mse))]
            failed = models * cfg.folds - len(finite)
            errors = []
            if report.summary["failed_folds"]:
                errors.append(f"{key}: failed_folds {report.summary['failed_folds']}")
            if failed:
                errors.append(f"{key}: {failed} cells without finite MSEs")
            if compare:
                out = self.work / f"report-{key}"
                csv_path, _ = experiments.write_report(report, out)
                with open(csv_path, "rb") as fh:
                    csv = fh.read()
                if self.csv.setdefault(key, csv) != csv:
                    errors.append(f"{key}: results.csv differs between repeats")
                    failed = models * cfg.folds
                self.summaries[key] = report.summary
            return Outcome(failed, errors, {"experiments.cells": len(rows)})

        return Call(key, "experiments.run_experiment", models * cfg.folds,
                    lambda: experiments.run_experiment(cfg, dataset=ds), check)

    def warm_up_calls(self) -> list[Call]:
        from walklab.data import Dataset

        key = "triangles"
        small = Dataset(items=self.datasets[key].items[:WARM_UP_GRAPHS])
        cfg = _config(self.work / f"{key}.jsonl", key, self.seed, 3)
        return [self._call(key, cfg, small, compare=False)]

    def calls(self) -> list[Call]:
        return [self._call(key, self.configs[key], self.datasets[key], compare=True)
                for key in RECIPES]

    def units(self) -> dict[str, float]:
        from walklab.data import kfold_split

        steps = 0
        for key, cfg in self.configs.items():
            plan = kfold_split(len(self.datasets[key]), cfg.folds, cfg.seed)
            trained = sum(1 for m in cfg.models if m.lower() != "baseline")
            steps += trained * MAX_EPOCHS * sum(len(plan.round(i)[0]) for i in range(plan.k))
        return {"train_steps": steps}

    def finish(self) -> dict:
        def ratio(key, model):
            models = self.summaries[key]["models"]
            return models[model]["mean_test_mse"] / models["baseline"]["mean_test_mse"]

        info = {}
        if len(self.summaries) == len(RECIPES):
            info["l1_tri_mse_ratio"] = ratio("triangles", "GCN-L1-1L")
            info["d2_fc_mse_ratio"] = ratio("four_cycles", "GCN-D2-1L")
        info["results_csv_sha256"] = {k: hashlib.sha256(v).hexdigest() for k, v in self.csv.items()}
        return info


# --- count-large ----------------------------------------------------------

# Sparse ER graphs with average degree 10. The top rung stays below about
# 1000 nodes because the dense count path needs O(n^2) memory and O(n^3)
# time; the 10^4 to 10^5 tier waits for a sparse path.
LADDER = (300, 450, 650, 900)
AVG_DEGREE = 10
WARM_UP_NODES = 200


class CountLarge(Workload):
    """``walklab count`` over a ladder of graph sizes; one op is one call."""

    name = "count-large"

    def _graph_call(self, key: str, n: int, rng) -> tuple[Call, int]:
        edges = oracles.sparse_er(n, AVG_DEGREE, rng)
        path = self.work / f"{key}.txt"
        path.write_text(oracles.edge_list_text(n, edges), encoding="utf-8")
        per_node = oracles.triangles_per_node(n, edges)
        want = {"n": n, "edges": len(edges), "triangles": sum(per_node) // 3,
                "four_cycles": oracles.four_cycles(n, edges), "triangles_per_node": per_node}

        def expect(doc) -> list[str]:
            return [f"{k} {doc.get(k)!r:.60} != {v!r:.60}" for k, v in want.items()
                    if doc.get(k) != v]

        return _cli_call(key, ["count", str(path)], self.work / f"{key}.json", expect), len(edges)

    def make_inputs(self, trace: bool) -> None:
        self._calls, self._edges = [], 0
        for n in LADDER:
            call, m = self._graph_call(f"n{n}", n, np.random.default_rng([self.seed, n]))
            self._calls.append(call)
            self._edges += m
        self._warm, _ = self._graph_call("warm-up", WARM_UP_NODES,
                                         np.random.default_rng([self.seed, WARM_UP_NODES]))

    def warm_up_calls(self) -> list[Call]:
        return [self._warm]

    def calls(self) -> list[Call]:
        return self._calls

    def units(self) -> dict[str, float]:
        return {"count_edges": self._edges}


# --- wl-pairs -------------------------------------------------------------

# Sizes and structures are fixed so that every seed asks for the same
# work; the seed draws the relabellings and the cubic graphs.
# Caterpillars with 60-100 spine nodes need 30-50 refinement rounds.
CATERPILLAR_SPINES = (60, 70, 85, 100)
# Same-size random cubic graphs: plain refinement stops after one round,
# triangle labels tell many pairs apart.
CUBIC_SIZES = (100, 140, 170, 200)
# 8-node pairs take the exact canonical-form path, whose cost depends on
# the graph's structure, so those structures come from a fixed seed.
SMALL_PAIRS = 4
SMALL_N = 8
SMALL_STRUCTURE_SEED = 8


class WLPairs(Workload):
    """``walklab wl`` on graph pairs with verdicts known by construction."""

    name = "wl-pairs"

    def make_inputs(self, trace: bool) -> None:
        rng = np.random.default_rng(self.seed)
        pairs = []  # (kind, n, edges1, edges2, wl, augmented, isomorphic)
        for spine in CATERPILLAR_SPINES:
            n, edges = oracles.caterpillar(spine)
            pairs.append(("caterpillar", n, oracles.permuted(n, edges, rng),
                          oracles.permuted(n, edges, rng),
                          "indistinguishable", "indistinguishable", None))
        for n in CUBIC_SIZES:
            e1, e2 = oracles.random_cubic(n, rng), oracles.random_cubic(n, rng)
            hist = [Counter(oracles.triangles_per_node(n, e)) for e in (e1, e2)]
            # Equal histograms leave the augmented verdict open.
            aug = "distinguishable" if hist[0] != hist[1] else None
            pairs.append(("cubic", n, e1, e2, "indistinguishable", aug, None))
        structure = np.random.default_rng(SMALL_STRUCTURE_SEED)
        for i in range(SMALL_PAIRS):
            iso = i % 2 == 0
            e1, e2 = oracles.small_pair(SMALL_N, structure, iso)
            verdict = "indistinguishable" if iso else "distinguishable"
            pairs.append(("small", SMALL_N, oracles.permuted(SMALL_N, e1, rng),
                          oracles.permuted(SMALL_N, e2, rng), verdict, verdict, iso))

        self._calls = []
        for i, (kind, n, e1, e2, wl, aug, iso) in enumerate(pairs):
            paths = []
            for j, edges in enumerate((e1, e2)):
                path = self.work / f"pair{i}-{j}.txt"
                path.write_text(oracles.edge_list_text(n, edges), encoding="utf-8")
                paths.append(str(path))
            self._calls.append(self._pair_call(f"{kind}{i}", n, paths, (e1, e2), wl, aug, iso, trace))

    def _pair_call(self, key, n, paths, edge_lists, wl, aug, iso, trace) -> Call:
        def expect(doc) -> list[str]:
            errors = []
            if doc.get("wl") != wl:
                errors.append(f"wl {doc.get('wl')!r} != {wl!r}")
            if aug is not None and doc.get("augmented") != aug:
                errors.append(f"augmented {doc.get('augmented')!r} != {aug!r}")
            if iso is not None and doc.get("isomorphic") is not iso:
                errors.append(f"isomorphic {doc.get('isomorphic')!r} != {iso!r}")
            return errors

        counts = ({"wl.rounds": sum(_refinement_rounds(n, edges) for edges in edge_lists)}
                  if trace else None)
        return _cli_call(key, ["wl"] + paths, self.work / f"{key}.json", expect, counts)

    def warm_up_calls(self) -> list[Call]:
        return [self._calls[0], self._calls[-1]]

    def calls(self) -> list[Call]:
        return self._calls

    def units(self) -> dict[str, float]:
        return {"wl_pairs": len(self._calls)}


def _refinement_rounds(n: int, edges) -> int:
    """Rounds that plain and triangle-augmented refinement take on one
    graph, by the public ``wl_refine``; labels come from the benchmark's
    own counts, so no traced span runs."""
    from walklab.graphs import from_edge_list
    from walklab.wl import cantor_pair, wl_refine

    g = from_edge_list(n, edges)
    deg = [len(a) for a in oracles.neighbour_sets(n, edges)]
    tri = oracles.triangles_per_node(n, edges)
    augmented = [cantor_pair(d, t) for d, t in zip(deg, tri)]
    return wl_refine(g).rounds + wl_refine(g, augmented).rounds


WORKLOADS = {w.name: w for w in (TrainCV, CountLarge, WLPairs)}
