import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from walklab import cli, experiments, walks, wl
from walklab.cli import main
from walklab.errors import CapacityError, InputError
from walklab.graphs import (MAX_ER_NODES, MAX_NODES, cycle_graph, disjoint_union, erdos_renyi,
                            from_edge_list)

from oracles import (caterpillar, complete_graph, cubic_graphs_on_8_nodes, path_graph,
                     random_cubic, relabel, write_edge_list)


def _graph_file(tmp_path, g, name):
    path = tmp_path / name
    write_edge_list(g, path)
    return str(path)


def _write(tmp_path, name, data) -> str:
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


def _not_utf8(tmp_path, name, text):
    # byte 0xff never occurs in UTF-8: the command exits 1 naming the file
    path = _write(tmp_path, name, text.encode() + b"\xff\n")
    return path, f"error: {path}: not UTF-8 text"


def _not_utf8_args(tmp_path, name, text, before=(), after=()):
    path, message = _not_utf8(tmp_path, name, text)
    return [*before, path, *after], message


def _assert_fails(command, row, tmp_path, capsys):
    """Run one failure-table row: ``build(tmp_path)`` gives the arguments of
    ``command`` and the message; the command exits ``code`` with that
    error line, no traceback, and no output file."""
    build, code = row
    args, message = build(tmp_path)
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert not out.exists()


def _config_file(tmp_path, dataset, /, **overrides):
    lines = {
        "dataset": dataset,
        "models": "baseline,GCN-1L",
        "folds": "3",
        "seed": "1",
        "hidden": "4",
        "max_epochs": "3",
    }
    lines.update(overrides)
    path = tmp_path / "experiment.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "walklab" in capsys.readouterr().out

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "--graphs", "3"]) == 1
        capsys.readouterr()


# Malformed input, one table per command: case -> (build, exit code), where
# build(tmp_path) writes the inputs and returns (arguments, error message).
# In the gen rows a repeated flag overrides the one in _GEN.
_GEN = ["--graphs", "2", "--nodes", "5", "--prob", "0.5", "--target", "triangles"]
GEN_FAILURES = {
    "bad-probability": (lambda d: (_GEN + ["--prob", "1.5"],
                                   "edge probability must be in [0, 1], got 1.5"), 1),
    "negative-seed": (lambda d: (_GEN + ["--seed", "-5"], "error: seed must be >= 0, got -5"), 1),
    "too-many-nodes": (lambda d: (_GEN + ["--nodes", str(MAX_ER_NODES + 1), "--prob", "0.001"],
                                  "error: erdos_renyi supports"), 2),
}


class TestGen:
    def test_writes_dataset_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "toy.jsonl"
        code = main(["gen", "--graphs", "4", "--nodes", "6", "--prob", "0.5",
                     "--target", "triangles", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "wrote 4 graphs" in capsys.readouterr().out
        assert len(out.read_text().strip().split("\n")) == 4
        meta = json.loads((tmp_path / "toy.jsonl.meta.json").read_text())
        assert meta == {"n_graphs": 4, "n_nodes": 6, "edge_prob": 0.5,
                        "target": "triangles", "seed": 3}

    def test_four_cycle_target_spelling(self, tmp_path, capsys):
        out = tmp_path / "fc.jsonl"
        code = main(["gen", "--graphs", "2", "--nodes", "5", "--prob", "0.0",
                     "--target", "four-cycles", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert all(json.loads(line)["target"] == 0
                   for line in out.read_text().strip().split("\n"))

    @pytest.mark.parametrize("target, digest", [
        ("triangles", "580c2fe0f480e7b281a649d66e03b84df76c5d89d1ee160e560b06d653b863d5"),
        ("four-cycles", "f0466b866107fe3fa3746a6fbba523c5ada2d52958e1142ac020cb8e50327163"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, capsys, target, digest):
        # the bytes of the dataset and its sidecar
        out = tmp_path / "pin.jsonl"
        assert main(["gen", "--graphs", "30", "--nodes", "20", "--prob", "0.25",
                     "--target", target, "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_bytes() + (tmp_path / "pin.jsonl.meta.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    @pytest.mark.parametrize("case", GEN_FAILURES)
    def test_failure(self, tmp_path, capsys, case):
        _assert_fails("gen", GEN_FAILURES[case], tmp_path, capsys)


def _star(tmp_path):
    # L leaves: sum_v d_v^2 = L^2 + L, just above the sparse product limit
    leaves = math.isqrt(walks.MAX_PRODUCT_WORK) + 1
    edges = "".join(f"0 {leaf}\n" for leaf in range(1, leaves + 1))
    return [_write(tmp_path, "star.txt", f"{leaves + 1} {leaves}\n{edges}")]


def _bad_edge_list(text, message):
    return lambda d: ([_write(d, "bad.txt", text.encode())], message), 1


COUNT_FAILURES = {
    "missing-file": (lambda d: ([str(d / "absent.txt")], "No such file"), 2),
    "malformed-line": (lambda d: ([_write(d, "bad.txt", "3 1\n0 zero\n")], "'0 zero'"), 1),
    "three-ids": _bad_edge_list("3 1\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
    "one-id": _bad_edge_list("3 2\n0 1\n2\n", "line 3: expected edge 'u v', got '2'"),
    "float-id": _bad_edge_list("3 1\n0 1.0\n", "line 2: bad edge line '0 1.0'"),
    "too-many-lines": _bad_edge_list("# c\n3 1\n0 1\n\n1 2\n",
                                     "line 5: header declares 1 edges but more lines follow"),
    "too-few-lines": _bad_edge_list("3 2\n0 1\n",
                                    "line 2: input ends after 1 of the 2 edges the header"),
    "negative-id": _bad_edge_list("3 1\n-1 2\n", "line 2: edge (-1, 2) out of range for n=3"),
    "id-equal-to-n": _bad_edge_list("3 1\n0 3\n", "line 2: edge (0, 3) out of range for n=3"),
    "id-above-int64": _bad_edge_list(f"3 1\n0 {2**64}\n",
                                     f"line 2: edge (0, {2**64}) out of range for n=3"),
    # Deliberately narrower than Python's int(): digit separators and
    # non-ASCII digits are not edge-list integers.
    "underscore-id": _bad_edge_list("12 1\n1_0 2\n", "line 2: bad edge line '1_0 2'"),
    "non-ascii-digit": _bad_edge_list("3 1\n0 \u0661\n", "line 2: bad edge line '0 \u0661'"),
    "product-work-guard": (lambda d: (_star(d), "error: sparse walk product"), 2),
    "node-limit": (lambda d: ([_write(d, "huge.txt", "10000000000 1\n0 1\n")],
                              f"graphs support n <= {MAX_NODES}"), 2),
    "not-utf8": (lambda d: _not_utf8_args(d, "g.txt", "3 1\n0 1\n# "), 1),
}


class TestCount:
    def test_complete_graph_counts(self, tmp_path, capsys):
        path = _graph_file(tmp_path, complete_graph(4), "k4.txt")
        assert main(["count", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"n": 4, "edges": 6, "triangles": 4, "four_cycles": 3,
                       "triangles_per_node": [3, 3, 3, 3]}

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = _graph_file(tmp_path, cycle_graph(4), "c4.txt")
        out = tmp_path / "counts.json"
        assert main(["count", path, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["four_cycles"] == 1
        assert doc["triangles"] == 0

    def test_one_wedge_sort_per_count(self, tmp_path, capsys, monkeypatch):
        # a sparse graph's 4-cycles come from one sort of wedge keys, a dense
        # graph's from a dense square; neither forms a sparse product
        real, sorts, products = walks._sorted_wedges, [], []
        monkeypatch.setattr(walks, "_sorted_wedges",
                            lambda indptr, indices: sorts.append(1) or real(indptr, indices))
        monkeypatch.setattr(walks, "_checked_matmul", lambda a, b: products.append(1))
        k4_and_isolated = disjoint_union(complete_graph(4), from_edge_list(36, []))
        for g, counts, wedge_sorts in ((k4_and_isolated, (4, 3), 1), (complete_graph(5), (10, 15), 0)):
            sorts.clear()
            assert main(["count", _graph_file(tmp_path, g, "g.txt")]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert (doc["triangles"], doc["four_cycles"]) == counts
            assert (len(sorts), len(products)) == (wedge_sorts, 0)

    @pytest.mark.parametrize("case", COUNT_FAILURES)
    def test_failure(self, tmp_path, capsys, case):
        _assert_fails("count", COUNT_FAILURES[case], tmp_path, capsys)


def _c3(tmp_path):
    return _graph_file(tmp_path, cycle_graph(3), "c3.txt")


WL_FAILURES = {
    "malformed-line": (lambda d: ([_c3(d), _write(d, "bad.txt", "3 1\n0 zero\n")],
                                  "'0 zero'"), 1),
    "not-utf8": (lambda d: _not_utf8_args(d, "g.txt", "3 1\n0 1\n# ", before=[_c3(d)]), 1),
}


class TestWl:
    def test_hexagon_vs_two_triangles(self, tmp_path, capsys):
        g1 = _graph_file(tmp_path, cycle_graph(6), "c6.txt")
        g2 = _graph_file(tmp_path, disjoint_union(cycle_graph(3), cycle_graph(3)),
                         "cc.txt")
        assert main(["wl", g1, g2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"wl": "indistinguishable",
                       "augmented": "distinguishable",
                       "isomorphic": False}

    @pytest.mark.parametrize("n,extra", [(9, {}), (8, {"isomorphic": True})])
    def test_large_graphs_skip_isomorphism(self, tmp_path, capsys, n, extra):
        # the exact verdict is reported up to the canonical-form node limit
        g1 = _graph_file(tmp_path, cycle_graph(n), "a.txt")
        g2 = _graph_file(tmp_path, cycle_graph(n), "b.txt")
        assert main(["wl", g1, g2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"wl": "indistinguishable", "augmented": "indistinguishable", **extra}

    @pytest.mark.parametrize("case", WL_FAILURES)
    def test_failure(self, tmp_path, capsys, case):
        _assert_fails("wl", WL_FAILURES[case], tmp_path, capsys)

    def test_degree_separated_pair_counts_no_triangles(self, tmp_path, capsys, monkeypatch):
        # K4 has sum_v d_v^2 = 36: past the limit, but the plain verdict
        # answers both runs, so the walk product is never formed
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 10)
        g1 = _graph_file(tmp_path, complete_graph(4), "k4.txt")
        g2 = _graph_file(tmp_path, cycle_graph(4), "c4.txt")
        assert main(["wl", g1, g2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"wl": "distinguishable", "augmented": "distinguishable",
                       "isomorphic": False}

    def test_tied_pair_still_needs_the_product(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 10)
        cc = disjoint_union(cycle_graph(3), cycle_graph(3))
        row = (lambda d: ([_graph_file(d, cycle_graph(6), "c6.txt"), _graph_file(d, cc, "cc.txt")],
                          "error: sparse walk product"), 2)
        _assert_fails("wl", row, tmp_path, capsys)

    def test_refinement_guard(self, tmp_path, capsys, monkeypatch):
        # one 20-node path: 58 layout entries and about 10 rounds
        monkeypatch.setattr(wl, "MAX_REFINE_WORK", 500)
        with pytest.raises(CapacityError, match="the limit is 500 entry-rounds"):
            wl.wl_refine(path_graph(20))
        # a verdict runs a bounded number of rounds, so the limit never
        # refuses a pair
        paths = [_graph_file(tmp_path, path_graph(20), name) for name in ("a.txt", "b.txt")]
        assert main(["wl", *paths]) == 0
        assert json.loads(capsys.readouterr().out) == {"wl": "indistinguishable",
                                                       "augmented": "indistinguishable"}

    def test_unstable_smaller_half_result_is_an_invariant_violation(self, tmp_path, capsys,
                                                                    monkeypatch):
        monkeypatch.setattr(wl, "_split_smaller_halves", lambda nbrs, colors, before: colors)
        paths = [_graph_file(tmp_path, caterpillar(30), name) for name in ("a.txt", "b.txt")]
        assert main(["wl", *paths, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: ") and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()


REGIONS_FAILURES = {
    "node-out-of-range": (lambda d: ([_graph_file(d, complete_graph(3), "k3.txt"), "--node", "7"],
                                     "node 7 out of range 0..2"), 1),
    "kmax-above-node-count": (lambda d: ([_graph_file(d, path_graph(5), "p5.txt"), "--node", "0",
                                          "--kmax", "100000000"], "k_max must be in 1..5"), 1),
    # k_max * (n + 2m) = 1900 * 5698, past the 10**7 steps of MAX_REGION_WORK
    "over-the-work-limit": (lambda d: ([_graph_file(d, path_graph(1900), "p1900.txt"), "--node",
                                        "0", "--kmax", "1900"], "the limit is 10000000"), 2),
    "not-utf8": (lambda d: _not_utf8_args(d, "g.txt", "3 1\n0 1\n# ", after=["--node", "0"]),
                 1),
}


class TestRegions:
    def test_table_output(self, tmp_path, capsys):
        path = _graph_file(tmp_path, cycle_graph(6), "c6.txt")
        assert main(["regions", path, "--node", "0", "--kmax", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == ["k=1  D: 3 nodes / 2 edges  L: 3 nodes / 2 edges",
                       "k=2  D: 5 nodes / 4 edges  L: 5 nodes / 4 edges"]

    def test_json_output(self, tmp_path, capsys):
        path = _graph_file(tmp_path, complete_graph(3), "k3.txt")
        out = tmp_path / "regions.json"
        assert main(["regions", path, "--node", "0", "--kmax", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text()) == [
            {"k": 1, "d_nodes": 3, "d_edges": 2, "l_nodes": 3, "l_edges": 3}]

    def test_kmax_is_bounded_by_node_count(self, tmp_path, capsys):
        # two BFS passes per radius: a huge --kmax is refused at once
        start = time.monotonic()
        _assert_fails("regions", REGIONS_FAILURES["kmax-above-node-count"], tmp_path, capsys)
        assert time.monotonic() - start < 1.0
        path = _graph_file(tmp_path, path_graph(5), "p5.txt")
        assert main(["regions", path, "--node", "0", "--kmax", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5

    @pytest.mark.parametrize("case", REGIONS_FAILURES)
    def test_failure(self, tmp_path, capsys, case):
        _assert_fails("regions", REGIONS_FAILURES[case], tmp_path, capsys)


_RECORD = '{"n":3,"edges":[[0,1]],"target":0}\n'


def _config(tmp_path, **overrides):
    """``--config`` flags of an experiment whose dataset a failing run never reads."""
    return ["--config", _config_file(tmp_path, str(tmp_path / "never-read.jsonl"), **overrides)]


def _bad_record(record, message=""):
    def build(tmp_path):
        ds = _write(tmp_path, "bad.jsonl", _RECORD * 5 + record + "\n")
        return ["--config", _config_file(tmp_path, ds)], f"bad.jsonl:6: {message}"
    return build


def _bad_sidecar(tmp_path):
    ds = _write(tmp_path, "tiny.jsonl", _RECORD * 6)
    _write(tmp_path, "tiny.jsonl.meta.json", '{"n_graphs": 6, "colour": 1}')
    return (["--config", _config_file(tmp_path, ds)],
            "tiny.jsonl.meta.json: unknown sidecar keys ['colour']")


def _other_sidecar(tmp_path):
    # the sidecar of a six-graph dataset of 8-node graphs
    ds = _write(tmp_path, "tiny.jsonl", _RECORD * 6)
    _write(tmp_path, "tiny.jsonl.meta.json", '{"n_graphs": 6, "n_nodes": 8, "edge_prob": 0.5,'
                                             ' "target": "triangles", "seed": 1}')
    return (["--config", _config_file(tmp_path, ds)],
            "tiny.jsonl.meta.json: sidecar describes 6 graphs of 8 nodes")


def _not_utf8_config(tmp_path):
    path, message = _not_utf8(tmp_path, "experiment.cfg", "dataset = d.jsonl\n# ")
    return ["--config", path], message


def _not_utf8_dataset(tmp_path):
    path, message = _not_utf8(tmp_path, "d.jsonl", _RECORD)
    return ["--config", _config_file(tmp_path, path)], message


TRAIN_FAILURES = {
    "dataset-short-pair": (_bad_record('{"n":3,"edges":[[0]],"target":1}'), 1),
    "dataset-bool-id": (_bad_record('{"n":3,"edges":[[true,2]],"target":1}'), 1),
    "dataset-float-id": (_bad_record('{"n":3,"edges":[[1.0,2]],"target":1}'), 1),
    "dataset-nan-target": (_bad_record('{"n":3,"edges":[[0,1]],"target":NaN}'), 1),
    "dataset-huge-target": (_bad_record('{"n":3,"edges":[[0,1]],"target":1' + "0" * 400 + "}",
                                        "int too large to convert to float"), 1),
    "dataset-long-integer": (_bad_record('{"n":3,"edges":[[0,1]],"target":' + "1" * 5000 + "}",
                                         "bad JSON"), 1),
    "dataset-node-limit": (_bad_record('{"n":10000000000,"edges":[],"target":1}',
                                       f"graphs support n <= {MAX_NODES}"), 2),
    "dataset-missing": (lambda d: (["--config", _config_file(d, str(d / "absent.jsonl"))],
                                   "No such file"), 2),
    "dataset-not-utf8": (_not_utf8_dataset, 1),
    "sidecar-unknown-key": (_bad_sidecar, 1),
    "sidecar-other-dataset": (_other_sidecar, 1),
    "config-not-utf8": (_not_utf8_config, 1),
    "config-unknown-key": (lambda d: (["--config", _write(d, "bad.cfg",
                                                          "dataset = d.jsonl\nwidth = 9\n")],
                                      "unknown config key 'width'"), 1),
    "config-repeated-key": (lambda d: (["--config", _write(d, "bad.cfg",
                                                           "dataset = d.jsonl\nlr = 0.1\n"
                                                           "\nlr = 0.2\n")],
                                       "config key 'lr' is given twice, on line 2 and line 4"),
                            1),
    "lr-inf": (lambda d: (_config(d, lr="inf"), "lr must be positive and finite"), 1),
    "hidden-0": (lambda d: (_config(d, hidden="0"), "config key 'hidden' must be >= 1"), 1),
    "hidden-above-limit": (lambda d: (_config(d, hidden="10000000"),
                                      "config key 'hidden' must be <= 1024"), 1),
    "mlp-depth-5": (lambda d: (_config(d, mlp_depth="5"), "config: mlp_depth must be 0, 1, or 2"),
                    1),
    "seed-negative": (lambda d: (_config(d, seed="-1"), "config key 'seed' must be >= 0"), 1),
    "seed-flag-negative": (lambda d: (_config(d) + ["--seed", "-2"],
                                      "error: config key 'seed' must be >= 0, got -2"), 1),
    "dataset-empty": (lambda d: (_config(d, dataset=""), "config key 'dataset' is required"), 1),
    "model-unknown": (lambda d: (_config(d, models="baseline,GAT-2L"),
                                 "config: unknown model name 'GAT-2L'"), 1),
    "model-too-deep": (lambda d: (_config(d, models="baseline,GCN-100000000L"),
                                  "config: model 'GCN-100000000L' has 100000000 layers; "
                                  "the limit is 64"), 1),
    "model-repeated": (lambda d: (_config(d, models="baseline,GCN-1L,gcn-1l"),
                                  "names 'gcn-1l' more than once"), 1),
    "model-alias": (lambda d: (_config(d, models="baseline,GCN-1L,GCN-01L"),
                               "config: unknown model name 'GCN-01L'"), 1),
}


class TestTrain:
    def test_end_to_end_report(self, tmp_path, capsys):
        ds = tmp_path / "tiny.jsonl"
        assert main(["gen", "--graphs", "9", "--nodes", "8", "--prob", "0.4",
                     "--target", "triangles", "--seed", "5", "--out", str(ds)]) == 0
        cfg = _config_file(tmp_path, str(ds))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "results.csv" in printed
        assert "baseline: test MSE" in printed
        assert "GCN-1L: test MSE" in printed
        csv = (out_dir / "results.csv").read_text()
        assert csv.startswith("model,fold,train_mse,val_mse,test_mse\n")
        assert len(csv.strip().split("\n")) == 7
        doc = json.loads((out_dir / "summary.json").read_text())
        assert doc["config"]["folds"] == 3
        assert doc["failed_folds"] == {}

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        ds = tmp_path / "tiny.jsonl"
        main(["gen", "--graphs", "9", "--nodes", "8", "--prob", "0.4",
              "--target", "triangles", "--seed", "5", "--out", str(ds)])
        cfg = _config_file(tmp_path, str(ds), models="baseline,GCN-2L")
        outs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            assert main(["train", "--config", cfg, "--out", str(out_dir)]) == 0
            outs.append((out_dir / "results.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_diverging_model_still_writes_report(self, tmp_path, capsys):
        ds = tmp_path / "er.jsonl"
        assert main(["gen", "--graphs", "12", "--nodes", "20", "--prob", "0.2",
                     "--target", "triangles", "--seed", "3", "--out", str(ds)]) == 0
        cfg = _config_file(tmp_path, str(ds), lr="1e200")
        out_dir = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", cfg, "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert "non-finite activations" not in err
        # both reports are written, then the run fails: GCN-1L has no finite fold
        assert code == 2
        assert "no finite fold for GCN-1L" in err
        doc = json.loads((out_dir / "summary.json").read_text())
        assert doc["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        assert doc["models"]["GCN-1L"]["mean_test_mse"] is None
        assert "GCN-1L,0,nan,nan,nan" in (out_dir / "results.csv").read_text()

    @pytest.mark.parametrize("case", TRAIN_FAILURES)
    def test_failure(self, tmp_path, capsys, case):
        _assert_fails("train", TRAIN_FAILURES[case], tmp_path, capsys)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    @pytest.mark.parametrize("fault,code,message", [
        ("exit", 2, "error: a worker process died while training 6 cells"),
        ("raise", 1, "error: rejected in a worker"),
    ])
    def test_worker_failure_exit_code(self, tmp_path, capsys, monkeypatch, fault, code, message):
        def broken_fit(stack, train_splits, val_splits, cfgs):
            if fault == "exit":
                os._exit(1)
            raise InputError("rejected in a worker")

        monkeypatch.setattr(experiments, "_worker_count", lambda trained: 2)
        monkeypatch.setattr(experiments, "fit", broken_fit)
        ds = tmp_path / "tiny.jsonl"
        assert main(["gen", "--graphs", "9", "--nodes", "8", "--prob", "0.4",
                     "--target", "triangles", "--seed", "5", "--out", str(ds)]) == 0
        cfg = _config_file(tmp_path, str(ds))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_seed_override_lands_in_summary(self, tmp_path, capsys):
        ds = tmp_path / "tiny.jsonl"
        main(["gen", "--graphs", "9", "--nodes", "8", "--prob", "0.4",
              "--target", "triangles", "--seed", "5", "--out", str(ds)])
        cfg = _config_file(tmp_path, str(ds), models="baseline")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--seed", "77",
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        doc = json.loads((out_dir / "summary.json").read_text())
        assert doc["config"]["seed"] == 77

class TestDemo:
    def test_demo_report(self, capsys):
        assert main(["demo-wl-gap"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wl"] == "indistinguishable"
        assert doc["augmented"] == "distinguishable"
        assert doc["isomorphic"] is False

    def test_out_in_missing_directory_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "demo.json"
        assert main(["demo-wl-gap", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []


# Each row: arguments of a command that writes one JSON report, and the
# file it writes (None for stdout).
REPORTS = {
    "count": lambda d: (["count", _graph_file(d, erdos_renyi(40, 0.2, 3), "er.txt")], None),
    "wl": lambda d: (["wl", _graph_file(d, cycle_graph(6), "c6.txt"), _c3(d)], None),
    "regions-out": lambda d: (["regions", _graph_file(d, cycle_graph(7), "c7.txt"), "--node", "2",
                               "--kmax", "4", "--out", str(d / "regions.json")],
                              d / "regions.json"),
    "demo-wl-gap": lambda d: (["demo-wl-gap"], None),
}


class TestReportBytes:
    @pytest.mark.parametrize("case", REPORTS)
    def test_report_is_indent_one_json(self, tmp_path, capsys, case):
        args, out = REPORTS[case](tmp_path)
        assert main(args) == 0
        text = capsys.readouterr().out if out is None else out.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    def test_encoder_matches_indent_one_on_nested_documents(self):
        docs = [{}, [], {"a": [], "b": {}}, [[], [1, [2, []]], {"c": [None, True]}],
                {"s": ["x, y", "\u00e9\n", 1.5, -0.0, float("nan"), 10**20]}, (1, (2, 3))]
        for doc in docs:
            assert cli._dumps(doc) == json.dumps(doc, indent=1)


def _wl_corpus():
    """Graph pairs that take every path of ``walklab wl``: a tree pair
    (many rounds, no triangles), random cubic pairs whose triangle
    histograms tie and differ, and an isomorphic and a non-isomorphic
    8-node pair, which reach the canonical search."""
    rng = np.random.default_rng(90)
    cat = caterpillar(30)
    cubic = cubic_graphs_on_8_nodes()[0]
    tied, differ = np.random.default_rng(63), np.random.default_rng(60)
    return {
        "caterpillar": (cat, relabel(cat, [int(x) for x in rng.permutation(cat.n)])),
        "cubic-tied-triangles": (random_cubic(tied, 20), random_cubic(tied, 20)),
        "cubic-other-triangles": (random_cubic(differ, 20), random_cubic(differ, 20)),
        "8-isomorphic": (cubic, relabel(cubic, [int(x) for x in rng.permutation(8)])),
        "8-not-isomorphic": (cycle_graph(8), disjoint_union(cycle_graph(4), cycle_graph(4))),
    }


class TestWlBytes:
    # exit code, stdout and stderr of walklab wl on a fixed corpus and of
    # demo-wl-gap, pinned: a faster verdict must print the same bytes
    WL_SHA256 = "22ff8cb352ca2b2d4070111794bb94fad70427009c5f659118a76e8d432cd7f8"

    def test_wl_output_bytes_are_pinned(self, tmp_path, capsys):
        runs = []
        for name, (g, h) in _wl_corpus().items():
            paths = [_graph_file(tmp_path, g, f"{name}-1.txt"),
                     _graph_file(tmp_path, h, f"{name}-2.txt")]
            runs.append((name, main(["wl", *paths]), capsys.readouterr()))
        runs.append(("demo-wl-gap", main(["demo-wl-gap"]), capsys.readouterr()))
        text = "".join(f"{name} {code}\n{out.out}{out.err}" for name, code, out in runs)
        assert hashlib.sha256(text.encode()).hexdigest() == self.WL_SHA256, text


class TestModuleInvocation:
    def test_python_dash_m_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "walklab", "demo-wl-gap",
             "--out", str(tmp_path / "demo.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["augmented"] == "distinguishable"

    def test_count_and_wl_under_optimised_interpreter(self, tmp_path):
        # python -O strips assert statements; invariants must not rely on them.
        path = _graph_file(tmp_path, complete_graph(5), "k5.txt")
        proc = subprocess.run([sys.executable, "-O", "-m", "walklab", "count", path],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["triangles"], doc["four_cycles"]) == (10, 15)
        assert doc["triangles_per_node"] == [6] * 5
        # a spine-30 caterpillar needs 15 rounds, so the pair reaches
        # smaller-half refinement and its stability check
        g = caterpillar(30)
        h = relabel(g, [int(x) for x in np.random.default_rng(3).permutation(g.n)])
        argv = ["-m", "walklab", "wl", _graph_file(tmp_path, g, "g.txt"),
                _graph_file(tmp_path, h, "h.txt")]
        runs = [subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True)
                for flags in ([], ["-O"])]
        assert [(p.returncode, p.stdout, p.stderr) for p in runs] == [
            (0, runs[0].stdout, "")] * 2
        assert json.loads(runs[0].stdout) == {"wl": "indistinguishable",
                                              "augmented": "indistinguishable"}

    def test_import_leaves_scipy_and_training_unloaded(self):
        # scipy.sparse and the training stack load in the subcommands that
        # use them, so start-up pays for neither
        lazy = ["scipy.sparse", "walklab.models", "walklab.training", "walklab.experiments"]
        code = f"import sys, walklab.cli; print([m for m in {lazy!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["wl", "demo-wl-gap", "gen-triangles", "count",
                                         "gen-four-cycles"])
    def test_commands_without_sparse_matrices_leave_scipy_unloaded(self, tmp_path, command):
        # C6 against two triangles reaches the per-node triangle count
        c6 = _graph_file(tmp_path, cycle_graph(6), "c6.txt")
        gen = ["gen", "--graphs", "3", "--nodes", "8", "--prob", "0.5",
               "--out", str(tmp_path / "d.jsonl"), "--target"]
        argv = {"wl": ["wl", c6, _c3(tmp_path)],
                "demo-wl-gap": ["demo-wl-gap"],
                "gen-triangles": [*gen, "triangles"],
                "count": ["count", _graph_file(tmp_path, complete_graph(5), "k5.txt")],
                "gen-four-cycles": [*gen, "four-cycles"],
                }[command]
        code = ("import sys; from walklab.cli import main; code = main(sys.argv[1:]); "
                "print(code, 'scipy.sparse' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.stderr.split() == ["0", "False"], proc.stderr

    def test_usage_failure_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "walklab", "count"],
                              capture_output=True, text=True)
        assert proc.returncode == 1

    def test_calls_in_one_process_match_separate_runs(self, tmp_path, capsys):
        # main builds its parser once per process, so no call may see another
        c6 = _graph_file(tmp_path, cycle_graph(6), "c6.txt")
        cc = _graph_file(tmp_path, disjoint_union(cycle_graph(3), cycle_graph(3)), "cc.txt")
        runs = [["wl", c6, cc], ["count"], ["count", c6], ["wl", c6, c6]]
        separate = []
        for argv in runs:
            proc = subprocess.run([sys.executable, "-m", "walklab", *argv],
                                  capture_output=True, text=True)
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        together = []
        for argv in runs:
            code = main(argv)
            together.append((code, *capsys.readouterr()))
        assert together == separate
        assert [code for code, _, _ in together] == [0, 1, 0, 0]
