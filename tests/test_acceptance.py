"""End-to-end acceptance gate.

One test per headline guarantee, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). The
cross-validated benchmark at the bottom trains real models on 400
graphs and takes a few minutes; everything above it finishes in
seconds.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np

from oracles import (count_simple_cycles_brute, cubic_graphs_on_8_nodes, gradient_check,
                     is_isomorphic_by_search, region_by_walk_dp,
                     triangles_at_node_brute)
from walklab.data import gen_dataset, save_dataset
from walklab.experiments import demo_wl_gap, parse_config, run_experiment
from walklab.graphs import (RegionSpec, erdos_renyi, extract_region,
                            from_edge_list)
from walklab.models import build_model, spec_from_model_name
from walklab.training import prepare_items
from walklab.walks import diag_closed_walks, four_cycle_count, triangle_total
from walklab.wl import (Verdict, augmented_distinguish, canonical_form,
                        lex_min_adjacency, wl_distinguish)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _count_corpus():
    rng = np.random.default_rng(2024)
    graphs = []
    for i in range(100):
        n = int(rng.integers(4, 31))
        p = (0.1, 0.3, 0.5)[i % 3]
        graphs.append(erdos_renyi(n, p, rng))
    return graphs


def test_cycle_counts_match_exhaustive_search():
    start = time.monotonic()
    mismatches = 0
    for g in _count_corpus():
        if triangle_total(g) != count_simple_cycles_brute(g, 3):
            mismatches += 1
        if four_cycle_count(g) != count_simple_cycles_brute(g, 4):
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict("triangle/4-cycle closed forms == exhaustive cycle search "
             "on 100 random graphs",
             mismatches == 0 and elapsed < 60.0,
             f"mismatches={mismatches}, {elapsed:.1f}s")


def test_closed_walk_diagonal_is_twice_triangles():
    bad = 0
    for g in _count_corpus():
        diag = diag_closed_walks(g, 3)
        brute = [2 * triangles_at_node_brute(g, v) for v in range(g.n)]
        if list(diag) != brute:
            bad += 1
    _verdict("closed 3-walk diagonal == 2x per-node triangles on the "
             "same corpus", bad == 0, f"graphs off={bad}")


def test_count_statistics_on_reference_distribution():
    rng = np.random.default_rng(777)
    tri, fc = [], []
    for _ in range(200):
        g = erdos_renyi(100, 0.07, rng)
        tri.append(triangle_total(g))
        fc.append(four_cycle_count(g))
    tri_mean = float(np.mean(tri))
    fc_mean = float(np.mean(fc))
    fc_expect = 3.0 * math.comb(100, 4) * 0.07**4
    tri_ok = 50.0 <= tri_mean <= 61.0
    fc_ok = abs(fc_mean - fc_expect) <= 0.10 * fc_expect
    _verdict("sampled means of ER(100, 0.07) counts sit on the analytic "
             "expectations",
             tri_ok and fc_ok,
             f"triangles {tri_mean:.1f} in [50, 61]; "
             f"4-cycles {fc_mean:.1f} vs {fc_expect:.1f} +-10%")


def test_refinement_gap_on_regular_graphs():
    demo = demo_wl_gap()  # raises if the built-in pair misbehaves
    demo_ok = (demo["wl"] == "indistinguishable"
               and demo["augmented"] == "distinguishable"
               and demo["isomorphic"] is False)

    classes: dict[tuple, list] = {}
    for g in cubic_graphs_on_8_nodes():
        classes.setdefault(canonical_form(g), []).append(g)
    reps = [members[0] for members in classes.values()]
    class_count = len(reps)

    monotone = True
    separated = 0
    for a, b in itertools.combinations(reps, 2):
        wl = wl_distinguish(a, b)
        aug = augmented_distinguish(a, b)
        if wl is Verdict.DISTINGUISHABLE and aug is not Verdict.DISTINGUISHABLE:
            monotone = False
        if aug is Verdict.DISTINGUISHABLE:
            separated += 1

    false_positive = 0
    for members in classes.values():
        rep = members[0]
        for copy in members[1:40]:
            if (wl_distinguish(rep, copy) is Verdict.DISTINGUISHABLE
                    or augmented_distinguish(rep, copy) is Verdict.DISTINGUISHABLE):
                false_positive += 1

    _verdict("triangle-augmented refinement is strictly finer than plain "
             "refinement and sound on relabelled copies",
             demo_ok and class_count == 6 and monotone
             and separated >= 1 and false_positive == 0,
             f"cubic classes={class_count}, separated pairs={separated}/15, "
             f"false positives={false_positive}")


def test_region_extraction_matches_walk_coverage():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        g = erdos_renyi(n, float(rng.uniform(0.1, 0.9)), rng)
        v = int(rng.integers(0, n))
        for k in (1, 2, 3):
            for kind, budget in (("D", 2 * k), ("L", 2 * k + 1)):
                got = extract_region(g, v, RegionSpec(kind, k))
                nodes, edges = region_by_walk_dp(g, v, budget)
                if got.nodes != nodes or got.edges != edges:
                    mismatches += 1

    nesting_violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        g = erdos_renyi(n, float(rng.uniform(0.1, 0.9)), rng)
        v = int(rng.integers(0, n))
        regions = {}
        for k in (1, 2, 3, 4):
            regions[("D", k)] = extract_region(g, v, RegionSpec("D", k))
            if k <= 3:
                regions[("L", k)] = extract_region(g, v, RegionSpec("L", k))
        for k in (1, 2, 3):
            d, l, d_next = regions[("D", k)], regions[("L", k)], regions[("D", k + 1)]
            if not (d.nodes <= l.nodes and d.edges <= l.edges
                    and l.nodes <= d_next.nodes and l.edges <= d_next.edges):
                nesting_violations += 1

    _verdict("region extraction == walk-coverage oracle (500 graphs, "
             "k=1..3) with an intact nesting chain (1000 pairs)",
             mismatches == 0 and nesting_violations == 0,
             f"mismatches={mismatches}, nesting violations={nesting_violations}")


def test_gradient_fidelity_across_model_families():
    rng = np.random.default_rng(11)
    names = [f"{family}{layers}L"
             for family in ("GCN-", "GCN-L1-", "GCN-D2-")
             for layers in (1, 2, 3)]
    worst = 0.0
    for i in range(20):
        name = names[i % len(names)]
        n = int(rng.integers(4, 11))
        g = erdos_renyi(n, 0.4, rng)
        model = build_model(spec_from_model_name(name), input_dim=1, hidden_dim=4,
                            seed=int(rng.integers(2**31)))
        item = prepare_items([g], [rng.normal(size=(n, 1))],
                             [float(rng.normal())])[0]
        worst = max(worst, gradient_check(model, item))
    _verdict("analytic gradients within 1e-4 of finite differences for "
             "all three families, 1-3 layers, 20 graphs",
             worst <= 1e-4, f"max relative error {worst:.2e}")


def test_canonical_form_is_an_isomorphism_certificate():
    worked = lex_min_adjacency([[1, 1], [1, 0]]) == (0, 1, 1, 1)

    counts = {}
    sound = True
    complete = True
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        buckets: dict[tuple, list] = {}
        for mask in range(2 ** len(pairs)):
            edges = [pairs[j] for j in range(len(pairs)) if mask >> j & 1]
            g = from_edge_list(n, edges)
            buckets.setdefault(canonical_form(g), []).append(g)
        counts[n] = len(buckets)
        for members in buckets.values():
            rep = members[0]
            if not all(is_isomorphic_by_search(rep, m) for m in members[1:]):
                sound = False
        reps = [members[0] for members in buckets.values()]
        for a, b in itertools.combinations(reps, 2):
            if is_isomorphic_by_search(a, b):
                complete = False
    # unlabelled graph counts on 1..5 nodes
    counts_ok = [counts[n] for n in range(1, 6)] == [1, 2, 4, 11, 34]

    _verdict("canonical form equality coincides with permutation-search "
             "isomorphism on every graph with n <= 5",
             worked and sound and complete and counts_ok,
             f"worked example={worked}, class counts="
             f"{[counts[n] for n in range(1, 6)]}")


def test_training_runs_are_reproducible(tmp_path):
    ds_path = tmp_path / "tiny.jsonl"
    save_dataset(gen_dataset(30, 12, 0.3, "triangles", seed=9), ds_path)
    cfg_path = tmp_path / "experiment.cfg"
    cfg_path.write_text(
        f"dataset = {ds_path}\n"
        "models = baseline,GCN-1L,GCN-L1-1L\n"
        "folds = 3\n"
        "seed = 7\n"
        "hidden = 4\n"
        "max_epochs = 10\n")
    outputs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "walklab", "train",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "results.csv").read_bytes())
    _verdict("two train invocations with one config produce byte-identical "
             "results.csv", outputs[0] == outputs[1],
             f"{len(outputs[0])} bytes each")


def test_benchmark_ratios_at_desk_scale(tmp_path):
    start = time.monotonic()
    tri_path = tmp_path / "tri.jsonl"
    fc_path = tmp_path / "fc.jsonl"
    save_dataset(gen_dataset(200, 50, 0.1, "triangles", seed=1001), tri_path)
    save_dataset(gen_dataset(200, 50, 0.1, "four_cycles", seed=1002), fc_path)

    tri_report = run_experiment(parse_config(
        f"dataset = {tri_path}\n"
        "models = baseline,GCN-2L,GCN-3L,GCN-L1-1L,GCN-D2-1L\n"
        "normalize = GCN-2L,GCN-3L\n"
        "folds = 10\n"
        "seed = 42\n"
        "max_epochs = 200\n"))
    fc_report = run_experiment(parse_config(
        f"dataset = {fc_path}\n"
        "models = baseline,GCN-D2-1L\n"
        "folds = 10\n"
        "seed = 42\n"
        "max_epochs = 200\n"))
    elapsed = time.monotonic() - start

    def ratio(report, name):
        models = report.summary["models"]
        return models[name]["mean_test_mse"] / models["baseline"]["mean_test_mse"]

    r_l1 = ratio(tri_report, "GCN-L1-1L")
    r_gcn2 = ratio(tri_report, "GCN-2L")
    r_gcn3 = ratio(tri_report, "GCN-3L")
    r_d2_tri = ratio(tri_report, "GCN-D2-1L")
    r_d2_fc = ratio(fc_report, "GCN-D2-1L")
    clean = (tri_report.summary["failed_folds"] == {}
             and fc_report.summary["failed_folds"] == {})

    ok = (r_l1 < 0.6
          and r_gcn2 >= 0.9 and r_gcn3 >= 0.9
          and r_d2_fc < 0.3
          and r_d2_tri < 0.6
          and clean
          and elapsed < 1800.0)
    _verdict("desk-scale benchmark reproduces the qualitative MSE ordering",
             ok,
             f"vs baseline: L1 {r_l1:.3f} (<0.6), "
             f"plain 2L {r_gcn2:.3f} / 3L {r_gcn3:.3f} (>=0.9), "
             f"D2 on 4-cycles {r_d2_fc:.3f} (<0.3), "
             f"D2 on triangles {r_d2_tri:.3f} (<0.6), "
             f"{elapsed:.0f}s (<1800)")
