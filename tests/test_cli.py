import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from walklab import experiments, walks
from walklab.cli import main
from walklab.errors import InputError
from walklab.graphs import (MAX_ER_NODES, complete_graph, cycle_graph,
                            disjoint_union, write_edge_list)


def _graph_file(tmp_path, g, name):
    path = tmp_path / name
    write_edge_list(g, path)
    return str(path)


def _config_file(tmp_path, dataset, **overrides):
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

    def test_bad_probability(self, tmp_path, capsys):
        code = main(["gen", "--graphs", "2", "--nodes", "5", "--prob", "1.5",
                     "--target", "triangles", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_too_many_nodes_is_runtime_error(self, tmp_path, capsys):
        code = main(["gen", "--graphs", "1", "--nodes", str(MAX_ER_NODES + 1),
                     "--prob", "0.001", "--target", "triangles",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: erdos_renyi supports")
        assert not (tmp_path / "x.jsonl").exists()


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

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_product_work_guard_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 10)
        path = _graph_file(tmp_path, complete_graph(4), "k4.txt")
        assert main(["count", path]) == 2
        assert "error: sparse walk product" in capsys.readouterr().err

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 zero\n")
        assert main(["count", str(path)]) == 1
        capsys.readouterr()


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

    def test_large_graphs_skip_isomorphism(self, tmp_path, capsys):
        g1 = _graph_file(tmp_path, cycle_graph(9), "a.txt")
        g2 = _graph_file(tmp_path, cycle_graph(9), "b.txt")
        assert main(["wl", g1, g2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"wl": "indistinguishable", "augmented": "indistinguishable"}


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

    def test_node_out_of_range(self, tmp_path, capsys):
        path = _graph_file(tmp_path, complete_graph(3), "k3.txt")
        assert main(["regions", path, "--node", "7"]) == 1
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("record", [
        '{"n":3,"edges":[[0]],"target":1}',
        '{"n":3,"edges":[[true,2]],"target":1}',
        '{"n":3,"edges":[[1.0,2]],"target":1}',
        '{"n":3,"edges":[[0,1]],"target":NaN}',
    ])
    def test_malformed_dataset_is_a_usage_error(self, tmp_path, capsys, record):
        # an uncaught exception would escape main() and fail the test
        ds = tmp_path / "bad.jsonl"
        ds.write_text('{"n":3,"edges":[[0,1]],"target":0}\n' * 5 + record + "\n")
        cfg = _config_file(tmp_path, str(ds))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "bad.jsonl:6:" in capsys.readouterr().err

    def test_malformed_sidecar_is_a_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "tiny.jsonl"
        assert main(["gen", "--graphs", "6", "--nodes", "8", "--prob", "0.4",
                     "--target", "triangles", "--out", str(ds)]) == 0
        (tmp_path / "tiny.jsonl.meta.json").write_text('{"n_graphs": 6, "colour": 1}')
        cfg = _config_file(tmp_path, str(ds))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "tiny.jsonl.meta.json: unknown sidecar keys ['colour']" in err
        assert "Traceback" not in err

    def test_infinite_lr_is_a_config_error(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, str(tmp_path / "never-read.jsonl"), lr="inf")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "lr must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    @pytest.mark.parametrize("fault,code,message", [
        ("exit", 2, "error: a worker process died while training 6 cells"),
        ("raise", 1, "error: rejected in a worker"),
    ])
    def test_worker_failure_exit_code(self, tmp_path, capsys, monkeypatch, fault, code, message):
        def broken_fit(*args):
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

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = d.jsonl\nwidth = 9\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "width" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, str(tmp_path / "absent.jsonl"))
        assert main(["train", "--config", cfg]) == 2
        capsys.readouterr()


class TestDemo:
    def test_demo_report(self, capsys):
        assert main(["demo-wl-gap"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wl"] == "indistinguishable"
        assert doc["augmented"] == "distinguishable"
        assert doc["isomorphic"] is False


class TestModuleInvocation:
    def test_python_dash_m_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "walklab", "demo-wl-gap",
             "--out", str(tmp_path / "demo.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["augmented"] == "distinguishable"

    def test_count_under_optimised_interpreter(self, tmp_path):
        # python -O strips assert statements; invariants must not rely on them.
        path = _graph_file(tmp_path, complete_graph(5), "k5.txt")
        proc = subprocess.run([sys.executable, "-O", "-m", "walklab", "count", path],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["triangles"], doc["four_cycles"]) == (10, 15)
        assert doc["triangles_per_node"] == [6] * 5

    def test_usage_failure_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "walklab", "count"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
