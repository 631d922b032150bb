import hashlib
import json
import math
import multiprocessing
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import walklab.experiments as ex
from walklab.data import gen_dataset, save_dataset
from walklab.errors import CapacityError, ConfigError, InputError, NumericError, TrainingError
from walklab.experiments import (RESULTS_HEADER, demo_wl_gap, parse_config,
                                 read_config, region_report, run_experiment,
                                 write_report)
from walklab.graphs import cycle_graph
from walklab.models import spec_from_model_name
from walklab.training import FitResult

from oracles import complete_graph, item_row, path_graph


def _tiny_dataset(tmp_path, n_graphs=9, n_nodes=8, seed=5):
    path = tmp_path / "tiny.jsonl"
    save_dataset(gen_dataset(n_graphs, n_nodes, 0.4, "triangles", seed), path)
    return str(path)


def _diverged(cfgs):
    # what fit returns for a group whose every cell diverged
    return [FitResult(history=[], best_epoch=0, best_val=float("nan"),
                      stop_reason="diverged", lr_cuts=0) for _ in cfgs]


def _tiny_config(dataset, /, **overrides):
    lines = {
        "dataset": dataset,
        "models": "baseline,GCN-1L",
        "folds": "3",
        "seed": "1",
        "hidden": "4",
        "max_epochs": "3",
    }
    lines.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in lines.items())


class TestConfigParsing:
    def test_defaults_fill_unset_keys(self):
        cfg = parse_config("dataset = d.jsonl")
        assert cfg.models == ("baseline",)
        assert (cfg.folds, cfg.seed, cfg.hidden, cfg.mlp_depth) == (10, 0, 16, 2)
        assert (cfg.train.lr, cfg.train.l2, cfg.train.dropout) == (0.001, 0.0005, 0.1)
        assert (cfg.train.patience, cfg.train.lr_factor, cfg.train.max_epochs) == (10, 0.5, 300)
        assert cfg.normalize == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "# experiment\n\ndataset = d.jsonl  # inline\nfolds = 4\n")
        assert cfg.dataset == "d.jsonl"
        assert cfg.folds == 4

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="epochs_max"):
            parse_config("dataset = d\nepochs_max = 5")

    def test_dataset_required(self):
        with pytest.raises(ConfigError, match="dataset"):
            parse_config("folds = 3")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="'lr' is given twice, on line 2 and line 4"):
            parse_config("dataset = d\nlr = 0.1\n# again\nlr = 0.2\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="folds"):
            parse_config("dataset = d\nfolds = many")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("dataset = d\njust words\n")

    def test_bad_model_name_rejected(self):
        with pytest.raises(ConfigError, match="GAT-2L"):
            parse_config("dataset = d\nmodels = baseline,GAT-2L")

    @pytest.mark.parametrize("models", ["baseline,GCN-1L,GCN-1L", "GCN-L1-1L,gcn-l1-1l",
                                        "baseline,Baseline"])
    def test_repeated_model_name_rejected(self, models):
        with pytest.raises(ConfigError, match="more than once"):
            parse_config(f"dataset = d\nmodels = {models}")

    def test_normalize_must_name_listed_models(self):
        with pytest.raises(ConfigError, match="normalize"):
            parse_config("dataset = d\nmodels = GCN-2L\nnormalize = GCN-3L")
        cfg = parse_config("dataset = d\nmodels = GCN-2L,GCN-3L\nnormalize = GCN-3L")
        assert cfg.normalize == ("GCN-3L",)

    def test_normalize_is_read_case_insensitively(self):
        cfg = parse_config("dataset = d\nmodels = baseline,GCN-1L,GCN-L1-1L\nnormalize = gcn-1l")
        assert cfg.model_spec("GCN-1L").degree_normalize
        assert not cfg.model_spec("GCN-L1-1L").degree_normalize

    def test_model_spec_carries_mlp_depth(self):
        cfg = parse_config("dataset = d\nmodels = GCN-D2-2L\nmlp_depth = 0")
        assert cfg.model_spec("GCN-D2-2L").mlp_depth == 0

    def test_echo_is_the_flat_key_layout(self):
        echo = parse_config("dataset = d\nmodels = GCN-1L\nnormalize = GCN-1L\nlr = 0.01").echo()
        assert echo == {
            "dataset": "d", "models": ["GCN-1L"], "folds": 10, "seed": 0, "hidden": 16,
            "mlp_depth": 2, "lr": 0.01, "l2": 0.0005, "dropout": 0.1, "patience": 10,
            "lr_factor": 0.5, "max_epochs": 300, "normalize": ["GCN-1L"]}
        assert list(echo) == ["dataset", "models", "folds", "seed", "hidden", "mlp_depth",
                              "lr", "l2", "dropout", "patience", "lr_factor", "max_epochs",
                              "normalize"]

    def test_readme_table_matches_parser(self):
        # the README's "Experiment config" table lists exactly the accepted
        # keys, and each default it states parses to the parser's default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` +\| ([^|]+?) +\|", section, re.MULTILINE)
        defaults = parse_config("dataset = d").echo()
        assert sorted(key for key, _ in rows) == sorted(defaults)
        for key, stated in rows:
            if stated == "(required)":
                with pytest.raises(ConfigError, match=key):
                    parse_config("")
                continue
            value = "" if stated == "(empty)" else stated.strip("`")
            assert parse_config(f"dataset = d\n{key} = {value}").echo() == defaults, key

    def test_seed_override_wins(self):
        cfg = parse_config("dataset = d\nseed = 5", seed_override=99)
        assert cfg.seed == 99

    def test_read_config_wraps_model_name_errors(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dataset = d\nmodels = MLP-2L\n")
        with pytest.raises(ConfigError):
            read_config(path)

    @pytest.mark.parametrize("key,value", [
        ("lr", "inf"), ("lr", "nan"), ("l2", "inf"), ("l2", "nan"),
        ("dropout", "nan"), ("lr_factor", "inf"), ("lr", "-1"), ("max_epochs", "0"),
        ("hidden", "0"), ("mlp_depth", "5"), ("seed", "-1"), ("folds", "2"),
        ("dataset", ""), ("hidden", "10000000"),
    ])
    def test_bad_hyperparameter_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(_tiny_config("d.jsonl", **{key: value}))

    def test_read_config_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config("/nonexistent/experiment.cfg")


class TestRunExperiment:
    def test_rows_and_summary_shape(self, tmp_path):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        report = run_experiment(cfg)
        assert [r.model for r in report.rows] == ["baseline"] * 3 + ["GCN-1L"] * 3
        assert [r.fold for r in report.rows] == [0, 1, 2, 0, 1, 2]
        assert all(np.isfinite(r.test_mse) for r in report.rows)
        assert report.summary["dataset_size"] == 9
        assert report.summary["failed_folds"] == {}
        for name in ("baseline", "GCN-1L"):
            stats = report.summary["models"][name]
            assert len(stats["fold_test_mse"]) == 3
            assert np.isfinite(stats["mean_test_mse"])
            assert np.isfinite(stats["std_test_mse"])
            assert np.isfinite(stats["mean_val_mse"])
        assert report.config["models"] == ["baseline", "GCN-1L"]
        assert report.wall_clock > 0

    def test_results_csv_layout(self, tmp_path):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        csv = run_experiment(cfg).results_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == RESULTS_HEADER == "model,fold,train_mse,val_mse,test_mse"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "baseline" and first[1] == "0"
        for cell in first[2:]:
            float(cell)

    def test_identical_configs_identical_reports(self, tmp_path):
        text = _tiny_config(_tiny_dataset(tmp_path), models="baseline,GCN-2L")
        a = run_experiment(parse_config(text))
        b = run_experiment(parse_config(text))
        assert a.results_csv() == b.results_csv()

    def test_mean_std_match_rows(self, tmp_path):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        report = run_experiment(cfg)
        tests = [r.test_mse for r in report.rows if r.model == "GCN-1L"]
        stats = report.summary["models"]["GCN-1L"]
        assert stats["fold_test_mse"] == tests
        assert stats["mean_test_mse"] == pytest.approx(np.mean(tests))
        assert stats["std_test_mse"] == pytest.approx(np.std(tests, ddof=1))

    def test_normalized_model_runs(self, tmp_path):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path),
                                        models="baseline,GCN-1L",
                                        normalize="GCN-1L"))
        report = run_experiment(cfg)
        assert report.config["normalize"] == ["GCN-1L"]
        assert report.summary["failed_folds"] == {}

    def test_normalize_names_any_case(self, tmp_path):
        # normalize = gcn-1l must train GCN-1L degree-normalised
        ds = _tiny_dataset(tmp_path)
        csv = {norm: run_experiment(parse_config(
                   _tiny_config(ds, models="GCN-1L", normalize=norm))).results_csv()
               for norm in ("", "GCN-1L", "gcn-1l")}
        assert csv["gcn-1l"] == csv["GCN-1L"] != csv[""]

    def test_failed_fold_accounting(self, tmp_path, monkeypatch):
        def exploding_fit(stack, train_splits, val_splits, cfgs):
            return _diverged(cfgs)

        monkeypatch.setattr(ex, "fit", exploding_fit)
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        report = run_experiment(cfg)
        assert report.summary["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        nan_rows = [r for r in report.rows if r.model == "GCN-1L"]
        assert all(not np.isfinite(r.test_mse) for r in nan_rows)
        assert not np.isfinite(report.summary["models"]["GCN-1L"]["mean_test_mse"])
        csv = report.results_csv()
        assert "GCN-1L,0,nan,nan,nan" in csv
        # baseline rows are untouched by the failure
        assert np.isfinite(report.summary["models"]["baseline"]["mean_test_mse"])

    def test_diverging_cell_is_a_failed_fold(self, tmp_path):
        # lr = 1e200 blows the weights up on the first step, so the next
        # forward pass raises NumericError
        path = tmp_path / "er.jsonl"
        save_dataset(gen_dataset(12, 20, 0.2, "triangles", 3), path)
        cfg = parse_config(_tiny_config(str(path), lr="1e200"))
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(cfg)
        assert report.summary["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        assert "GCN-1L,2,nan,nan,nan" in report.results_csv()
        assert np.isfinite(report.summary["models"]["baseline"]["mean_test_mse"])
        assert [(c["stop_reason"], c["epochs"]) for c in report.cells] == [("diverged", None)] * 3


    def test_non_finite_mse_is_a_failed_fold(self, tmp_path, monkeypatch):
        # a cell can train yet score inf: every non-finite MSE is a failure
        real_evaluate = ex.evaluate

        def overflowing_evaluate(model, items):
            return float("inf") if len(items) == 3 else real_evaluate(model, items)

        monkeypatch.setattr(ex, "evaluate", overflowing_evaluate)
        report = run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        assert report.summary["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        assert "GCN-1L,0,nan," in report.results_csv()

    def test_scoring_error_keeps_how_training_went(self, tmp_path, monkeypatch):
        # every cell trains to max_epochs, then scoring its test split
        # raises NumericError: the row is NaN and a failed fold, and the
        # cell's record still says how fit ended, not that it diverged
        real_evaluate, calls = ex.evaluate, []

        def failing_on_test(model, items):
            calls.append(len(items))
            if len(calls) % 2 == 0:  # a cell scores its train split, then its test split
                raise NumericError("layer 0 produced non-finite activations")
            return real_evaluate(model, items)

        monkeypatch.setattr(ex, "evaluate", failing_on_test)
        monkeypatch.setattr(ex, "_worker_count", lambda trained: 1)
        report = run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        assert len(calls) == 6
        assert report.summary["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        assert "GCN-1L,0,nan,nan,nan" in report.results_csv()
        assert [(c["stop_reason"], c["epochs"], c["lr_cuts"]) for c in report.cells] == \
            [("max_epochs", 3, 0)] * 3
        assert all(0 <= c["best_epoch"] <= 3 for c in report.cells)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")


class TestWorkerPool:
    def test_worker_count_is_capped_by_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ex._worker_count(40) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert ex._worker_count(40) == 2
        assert ex._worker_count(1) == 1
        assert ex._worker_count(0) == 1

    @needs_fork
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path), models="GCN-1L,GCN-L1-1L"))
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(ex, "_worker_count", lambda trained, w=workers: w)
            reports.append(run_experiment(cfg))
        one, two = reports
        assert one.results_csv() == two.results_csv()
        assert one.summary == two.summary
        assert len(one.rows) == 6 and one.summary["failed_folds"] == {}

    @needs_fork
    def test_cell_records_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path), models="baseline,GCN-L1-1L",
                                        max_epochs="4", patience="1"))
        records = []
        for workers in (1, 2):
            monkeypatch.setattr(ex, "_worker_count", lambda trained, w=workers: w)
            cells = run_experiment(cfg).cells
            assert all(cell.pop("seconds") >= 0.0 for cell in cells)
            records.append(cells)
        assert records[0] == records[1]
        assert [(c["model"], c["fold"]) for c in records[0]] == \
            [("GCN-L1-1L", fold) for fold in range(3)]
        for c in records[0]:
            assert c["stop_reason"] in ("early_stop", "max_epochs")
            assert 0 <= c["best_epoch"] <= c["epochs"] <= 4
            assert 0 <= c["lr_cuts"] <= c["epochs"]

    @needs_fork
    def test_one_model_trains_in_one_group_per_worker(self, tmp_path, monkeypatch):
        # one trained model and two workers: its three folds train as two
        # lockstep groups, with the rows and records of a single group
        real_map = ex._map_groups
        seen = []

        def recording_map(groups, workers):
            seen.append(([g for g in groups if g[1] != "baseline"], workers))
            return real_map(groups, workers)

        monkeypatch.setattr(ex, "_map_groups", recording_map)
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(ex, "_worker_count", lambda trained, w=workers: w)
            reports.append(run_experiment(cfg))
        assert seen == [([(1, "GCN-1L", (0, 1, 2))], 1),
                        ([(1, "GCN-1L", (0,)), (1, "GCN-1L", (1, 2))], 2)]
        assert reports[0].results_csv() == reports[1].results_csv()
        one, two = ([{k: v for k, v in c.items() if k != "seconds"} for c in r.cells]
                    for r in reports)
        assert one == two and len(one) == 3

    def test_fewer_models_than_workers_share_out_the_workers(self):
        # ceil(workers / trained models) groups per model: two models on
        # eight workers take four groups of two or three folds each, and
        # four models on two workers one group each
        cfg = parse_config(_tiny_config("d.jsonl", models="baseline,GCN-1L,GCN-2L", folds="10"))
        groups = ex._plan_groups(cfg, 10, 8)
        assert groups[0] == (0, "baseline", tuple(range(10)))
        for mi in (1, 2):
            folds = [g[2] for g in groups if g[0] == mi]
            assert [len(f) for f in folds] == [2, 3, 2, 3]
            assert [i for f in folds for i in f] == list(range(10))
        cfg = parse_config(_tiny_config("d.jsonl", models="GCN-1L,GCN-2L,GCN-3L,GCN-L1-1L"))
        assert ex._plan_groups(cfg, 3, 2) == [(mi, name, (0, 1, 2)) for mi, name
                                              in enumerate(cfg.models)]

    def test_group_size_is_capped_by_parameter_count(self, tmp_path, monkeypatch):
        # GCN-1L at hidden 4 has 34 coordinates: a cap of 70 lets two
        # cells share a group, and the rows stay those of one group
        real_map = ex._map_groups
        seen = []

        def recording_map(groups, workers):
            seen.append([g[2] for g in groups if g[1] != "baseline"])
            return real_map(groups, workers)

        monkeypatch.setattr(ex, "_map_groups", recording_map)
        monkeypatch.setattr(ex, "_worker_count", lambda trained: 1)
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        whole = run_experiment(cfg).results_csv()
        monkeypatch.setattr(ex, "MAX_GROUP_PARAMS", 70)
        assert run_experiment(cfg).results_csv() == whole
        assert seen == [[(0, 1, 2)], [(0,), (1, 2)]]

    def test_layer0_terms_and_diagonals_built_before_cells_run(self, tmp_path, monkeypatch):
        # before the fork every item holds every configured term, and
        # arrays only: no structure matrix; and the stores hold the
        # closed-walk diagonals, so no cell counts one, in this process or
        # in a forked worker, which inherits the patch
        real_map = ex._map_groups
        built = []

        def uncounted(g, m):
            raise RuntimeError(f"closed {m}-walks counted after the stores were built")

        def inspecting_map(groups, workers):
            for item in ex._RUN[2]:
                layer0 = item_row(item).layer0
                held = [*vars(item).values(), *layer0.values()]
                built.append((list(layer0), any(sparse.issparse(v) for v in held)))
            monkeypatch.setattr("walklab.models.diag_closed_walks", uncounted)
            return real_map(groups, workers)

        monkeypatch.setattr(ex, "_map_groups", inspecting_map)
        run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path),
                                                 models="baseline,GCN-1L,GCN-D2-2L")))
        d2 = list(spec_from_model_name("GCN-D2-2L").terms)
        assert built == [(d2, False)] * 9

    @needs_fork
    def test_cells_run_in_worker_processes(self, tmp_path, monkeypatch):
        parent = os.getpid()
        real_fit = ex.fit

        def recording_fit(stack, train_splits, val_splits, cfgs):
            if os.getpid() == parent:
                raise AssertionError("a trained cell ran in the parent process")
            return real_fit(stack, train_splits, val_splits, cfgs)

        monkeypatch.setattr(ex, "_worker_count", lambda trained: 2)
        monkeypatch.setattr(ex, "fit", recording_fit)
        report = run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        assert report.summary["failed_folds"] == {}
        assert ex._RUN is None

    @needs_fork
    def test_dead_worker_is_a_training_error(self, tmp_path, monkeypatch):
        def dying_fit(stack, train_splits, val_splits, cfgs):
            os._exit(1)

        monkeypatch.setattr(ex, "_worker_count", lambda trained: 2)
        monkeypatch.setattr(ex, "fit", dying_fit)
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        with pytest.raises(TrainingError, match="6 cells"):
            run_experiment(cfg)
        assert ex._RUN is None

    @needs_fork
    def test_cell_exception_keeps_its_type(self, tmp_path, monkeypatch):
        def rejecting_fit(stack, train_splits, val_splits, cfgs):
            raise InputError("rejected in a worker")

        monkeypatch.setattr(ex, "_worker_count", lambda trained: 2)
        monkeypatch.setattr(ex, "fit", rejecting_fit)
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        with pytest.raises(InputError, match="rejected in a worker"):
            run_experiment(cfg)


class TestWorkerAllocator:
    @needs_fork
    def test_forked_workers_run_the_initializer(self, tmp_path, monkeypatch):
        # the pool hands _init_worker to every worker it forks, and only there
        parent, log = os.getpid(), tmp_path / "pids"

        def recording_init():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")

        monkeypatch.setattr(ex, "_init_worker", recording_init)
        monkeypatch.setattr(ex, "_worker_count", lambda trained: 2)
        run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        pids = [int(line) for line in log.read_text().split()]
        assert pids and parent not in pids and len(set(pids)) == len(pids) <= 2

    @pytest.mark.parametrize("fork", [True, False])
    def test_in_process_path_never_calls_the_initializer(self, tmp_path, monkeypatch, fork):
        # one worker, or two where the platform cannot fork
        def refusing_init():
            raise AssertionError("the in-process path ran the worker initializer")

        monkeypatch.setattr(ex, "_init_worker", refusing_init)
        monkeypatch.setattr(ex, "_worker_count", lambda trained: 1 if fork else 2)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        report = run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        assert report.summary["failed_folds"] == {}

    def test_initializer_sets_the_glibc_thresholds(self, monkeypatch):
        import ctypes

        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        assert ex._init_worker() is None
        assert calls == [(-3, 4 << 20), (-1, 16 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize("libc", ["no mallopt", "no library"])
    def test_initializer_without_mallopt_does_nothing(self, monkeypatch, libc):
        import ctypes

        def cdll(name):
            if libc == "no library":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert ex._init_worker() is None


class TestWriteReport:
    def test_files_round_trip(self, tmp_path):
        cfg = parse_config(_tiny_config(_tiny_dataset(tmp_path)))
        report = run_experiment(cfg)
        out = tmp_path / "run"
        csv_path, json_path = write_report(report, out)
        assert (out / "results.csv").read_text() == report.results_csv()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["dataset"] == cfg.dataset
        assert doc["dataset_size"] == 9
        assert "wall_clock_seconds" in doc
        assert 0.0 <= doc["prepare_seconds"] <= doc["wall_clock_seconds"] < math.inf
        assert set(doc["models"]) == {"baseline", "GCN-1L"}
        assert [(c["model"], c["fold"], c["epochs"]) for c in doc["cells"]] == \
            [("GCN-1L", fold, 3) for fold in range(3)]

    def test_summary_is_strict_json_with_null(self, tmp_path, monkeypatch):
        def exploding_fit(stack, train_splits, val_splits, cfgs):
            return _diverged(cfgs)

        monkeypatch.setattr(ex, "fit", exploding_fit)
        report = run_experiment(parse_config(_tiny_config(_tiny_dataset(tmp_path))))
        _, json_path = write_report(report, tmp_path / "run")

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        doc = json.loads(open(json_path).read(), parse_constant=reject)
        stats = doc["models"]["GCN-1L"]
        assert stats["fold_test_mse"] == [None, None, None]
        assert stats["mean_test_mse"] is None and stats["std_test_mse"] is None
        assert doc["failed_folds"] == {"GCN-1L": [0, 1, 2]}
        assert isinstance(doc["models"]["baseline"]["mean_test_mse"], float)


class TestResultsBytes:
    # results.csv of a small desk-like run, pinned: a change to how a step
    # or an evaluation computes its numbers changes these bytes. GCN-2L and
    # GCN-3L build A + I on every step; patience 1 cuts rates and stops
    # cells at different epochs, so later steps take a subset of the rows
    RESULTS_SHA256 = "a98a88883bb5847d060646432ad66fe3cb6f010492d0ce23110c42c4589dc10c"

    def test_results_csv_bytes_are_pinned(self, tmp_path):
        ds = gen_dataset(27, 50, 0.1, "triangles", 1001)
        cfg = parse_config("dataset = unused\n"
                           "models = baseline,GCN-2L,GCN-3L,GCN-L1-1L,GCN-D2-1L\n"
                           "normalize = GCN-2L,GCN-3L\nfolds = 3\nseed = 7\n"
                           "max_epochs = 6\npatience = 1\n")
        csv_path, _ = write_report(run_experiment(cfg, ds), tmp_path / "run")
        with open(csv_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.RESULTS_SHA256


class TestDemoWlGap:
    def test_report_fields(self):
        doc = demo_wl_gap()
        assert doc["wl"] == "indistinguishable"
        assert doc["augmented"] == "distinguishable"
        assert doc["isomorphic"] is False
        assert doc["triangles_per_node_g1"] == [0] * 6
        assert doc["triangles_per_node_g2"] == [1] * 6


class TestRegionReport:
    def test_triangle_growth(self):
        rows = region_report(complete_graph(3), 0, 1)
        assert rows == [{"k": 1, "d_nodes": 3, "d_edges": 2,
                         "l_nodes": 3, "l_edges": 3}]

    def test_hexagon_growth(self):
        rows = region_report(cycle_graph(6), 0, 3)
        assert [(r["d_nodes"], r["d_edges"]) for r in rows] == [(3, 2), (5, 4), (6, 6)]
        # C6 has no edge between same-distance nodes until the far pair
        assert [(r["l_nodes"], r["l_edges"]) for r in rows] == [(3, 2), (5, 4), (6, 6)]

    def test_isolated_node(self):
        rows = region_report(complete_graph(1), 0, 1)
        assert [(r["d_nodes"], r["d_edges"], r["l_nodes"], r["l_edges"])
                for r in rows] == [(1, 0, 1, 0)]

    def test_rejects_bad_kmax(self):
        with pytest.raises(InputError):
            region_report(complete_graph(3), 0, 0)
        # no region grows past radius n - 1, so k_max stops at n
        assert len(region_report(complete_graph(3), 0, 3)) == 3
        with pytest.raises(InputError, match="1..3"):
            region_report(complete_graph(3), 0, 4)

    def test_work_limit(self, monkeypatch):
        # k_max * (n + 2m) may reach MAX_REGION_WORK but not pass it; C6
        # has n + 2m = 18
        monkeypatch.setattr(ex, "MAX_REGION_WORK", 3 * 18)
        assert region_report(cycle_graph(6), 0, 3) == region_report(cycle_graph(6), 0, 2) + [
            {"k": 3, "d_nodes": 6, "d_edges": 6, "l_nodes": 6, "l_edges": 6}]
        with pytest.raises(CapacityError, match=r"= 72 steps; the limit is 54"):
            region_report(cycle_graph(6), 0, 4)

    def test_keeps_the_regions_of_one_radius(self, monkeypatch):
        # every radius's regions held at once grew as k_max^2 on a path
        real, alive, most = ex.region_masks, [], []

        def tracking(*args):
            region = real(*args)
            alive.append(weakref.ref(region[0]))
            most.append(sum(ref() is not None for ref in alive))
            return region

        monkeypatch.setattr(ex, "region_masks", tracking)
        rows = region_report(path_graph(40), 0, 40)
        assert [r["d_nodes"] for r in rows] == [min(k + 1, 40) for k in range(1, 41)]
        assert len(alive) == 81 and max(most) <= 4
