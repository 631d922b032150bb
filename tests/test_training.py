import numpy as np
import pytest

from walklab import autodiff as ad
from walklab import training
from walklab.errors import InputError, TrainingError
from walklab.graphs import complete_graph, erdos_renyi
from walklab.models import (LayerSpec, ModelSpec, build_model, forward,
                            gcn_d2_spec, gcn_l1_spec, gcn_spec,
                            self_loop_adjacency)
from walklab.training import (AdamState, TrainConfig, adam_step, evaluate,
                              fit, gradient_check, mse_loss, prepare_items)


def _ones_items(graphs, targets):
    return prepare_items(graphs, [np.ones((g.n, 1)) for g in graphs], targets)


class TestMseLoss:
    def test_perfect_prediction(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_entry(self):
        assert mse_loss([0.0], [2.0]) == 4.0

    def test_mean_over_entries(self):
        assert mse_loss([1.0, 3.0], [2.0, 2.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse_loss([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(InputError):
            mse_loss([], [])


class TestAdam:
    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after bias correction, so the step is lr/(1+eps)
        p = ad.parameter(np.array([[0.5]]))
        p.grad = np.array([[1.0]])
        state = AdamState({"p": p})
        adam_step(state, {"p": p}, lr=0.001)
        assert abs(p.value[0, 0] - 0.499) < 1e-9

    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.parameter(np.array([[1.5, -2.0]]))
        p.grad = np.zeros((1, 2))
        q = ad.parameter(np.array([[3.0]]))  # grad stays None
        state = AdamState({"p": p, "q": q})
        for _ in range(5):
            adam_step(state, {"p": p, "q": q}, lr=0.1)
        assert p.value.tolist() == [[1.5, -2.0]]
        assert q.value.tolist() == [[3.0]]

    def test_identical_sequences_identical_trajectories(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=(2, 2)) for _ in range(20)]
        traj = []
        for _ in range(2):
            p = ad.parameter(np.zeros((2, 2)))
            state = AdamState({"p": p})
            for g in grads:
                p.grad = g
                adam_step(state, {"p": p}, lr=0.05)
            traj.append(p.value.copy())
        assert np.array_equal(traj[0], traj[1])

    def test_l2_is_coupled_into_the_gradient(self):
        # a decayed step on data gradient g equals, bit for bit, a plain
        # step on g + 2 * l2 * w (L2 before the moments, not AdamW decay)
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(3)]
        l2 = 5e-4
        decayed = ad.parameter(w0.copy())
        plain = ad.parameter(w0.copy())
        s_decayed = AdamState({"w": decayed}, l2=l2, decay_names=("w",))
        s_plain = AdamState({"w": plain})
        for g in grads:
            decayed.grad = g.copy()
            plain.grad = g + (2.0 * l2) * plain.value
            adam_step(s_decayed, {"w": decayed}, lr=0.01)
            adam_step(s_plain, {"w": plain}, lr=0.01)
            assert np.array_equal(decayed.value, plain.value)

    def test_l2_skips_unlisted_params(self):
        # gates and biases are not in the model's weight names
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        unlisted = [k for k in model.params if k not in model.weight_names]
        assert unlisted == ["layer0.theta0", "layer0.b0", "layer0.b1", "head.b"]
        runs = []
        for l2 in (0.0, 0.5):
            params = {k: ad.parameter(model.params[k].value.copy()) for k in model.params}
            state = AdamState(params, l2=l2, decay_names=model.weight_names)
            for p in params.values():
                p.grad = np.ones_like(p.value)
            adam_step(state, params, lr=0.01)
            runs.append({k: p.value for k, p in params.items()})
        for k in model.params:
            same = np.array_equal(runs[0][k], runs[1][k])
            assert same == (k in unlisted), k

    def test_step_clears_every_gradient(self):
        p = ad.parameter(np.array([[1.0]]))
        q = ad.parameter(np.array([[2.0]]))
        p.grad = np.array([[0.5]])
        state = AdamState({"p": p, "q": q}, l2=0.1, decay_names=("p",))
        adam_step(state, {"p": p, "q": q}, lr=0.1)
        assert p.grad is None and q.grad is None

    def test_fit_leaves_no_gradients(self):
        graphs = [erdos_renyi(8, 0.4, s) for s in range(4)]
        items = _ones_items(graphs, [1.0, 2.0, 3.0, 4.0])
        model = build_model(gcn_l1_spec(1), input_dim=1, hidden_dim=4, seed=3)
        fit(model, items[:3], items[3:], TrainConfig(max_epochs=2, seed=0))
        assert all(p.grad is None for p in model.params.values())


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.l2, cfg.dropout) == (1e-3, 5e-4, 0.1)
        assert (cfg.patience, cfg.lr_factor, cfg.max_epochs) == (10, 0.5, 300)

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0},
        {"l2": -1e-4},
        {"dropout": 1.0},
        {"dropout": -0.1},
        {"patience": 0},
        {"lr_factor": 1.0},
        {"lr_factor": 0.0},
        {"max_epochs": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("key", ["lr", "l2", "dropout", "lr_factor"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_values(self, key, value):
        with pytest.raises(InputError, match=key):
            TrainConfig(**{key: value})


class TestEvaluate:
    def test_mean_over_items_with_zeroed_model(self):
        g = complete_graph(4)
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        model.load_param_values(
            {k: np.zeros_like(v) for k, v in model.param_values().items()})
        items = _ones_items([g, g], [3.0, 1.0])
        assert evaluate(model, items) == 5.0

    def test_empty_items_rejected(self):
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        with pytest.raises(InputError):
            evaluate(model, [])


class TestPrepareItems:
    def test_scalar_target_becomes_1x1(self):
        items = _ones_items([complete_graph(3)], [7.0])
        assert items[0].target.shape == (1, 1)
        assert items[0].features.shape == (3, 1)

    def test_rejects_non_graph(self):
        with pytest.raises(InputError):
            prepare_items([object()], [np.ones((2, 1))], [0.0])


class TestFit:
    def test_worsening_validation_stops_after_two_epochs(self):
        # val target equals the initial prediction, train target pulls away:
        # epoch 0 is already optimal, the first `patience` epochs burn
        # patience and halve the lr, the next `patience` exhaust the
        # post-cut window (two epochs at patience 1)
        g = erdos_renyi(8, 0.5, 11)
        x = np.ones((8, 1))
        for patience in (1, 2):
            model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=2)
            init = model.param_values()
            pred0 = float(forward(model, g, x).value[0, 0])
            train_items = _ones_items([g], [pred0 + 100.0])
            val_items = _ones_items([g], [pred0])
            cfg = TrainConfig(dropout=0.0, patience=patience, max_epochs=50, seed=0)
            result = fit(model, train_items, val_items, cfg)
            assert result.stop_reason == "early_stop"
            assert [s.epoch for s in result.history] == list(range(2 * patience + 1))
            assert result.best_epoch == 0
            assert result.best_val == 0.0
            assert [s.lr for s in result.history[1:]] == \
                [cfg.lr] * patience + [cfg.lr * cfg.lr_factor] * patience
            restored = model.param_values()
            assert all(np.array_equal(restored[k], init[k]) for k in init)

    def test_improvement_resets_the_plateau_count(self, monkeypatch):
        # scripted validation losses, patience 2: epochs 1-2 plateau and
        # cut the lr, epoch 3 is a new best, epochs 4-5 cut again and
        # epochs 6-7 exhaust the window
        vals = iter([10.0, 11.0, 12.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1.0])
        monkeypatch.setattr(training, "evaluate", lambda model, items: next(vals))
        items = _ones_items([complete_graph(3)], [1.0])
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        cfg = TrainConfig(dropout=0.0, patience=2, max_epochs=50, seed=0)
        result = fit(model, items, items, cfg)
        assert result.stop_reason == "early_stop"
        assert (result.best_epoch, result.best_val) == (3, 5.0)
        assert [s.epoch for s in result.history] == list(range(8))
        lr, f = cfg.lr, cfg.lr_factor
        assert [s.lr for s in result.history[1:]] == \
            [lr, lr, lr * f, lr * f, lr * f, lr * f * f, lr * f * f]

    def test_constant_target_converges(self):
        # one graph, constant target: the optimiser has to drive a single
        # prediction onto 0.25 within the epoch budget
        g = erdos_renyi(10, 0.3, 7)
        spec = gcn_spec(1)
        spec = ModelSpec(layers=tuple(
            LayerSpec(terms=l.terms, mlp_depth=1) for l in spec.layers))
        items = _ones_items([g], [0.25])
        for seed in (0, 1, 2):
            model = build_model(spec, input_dim=1, hidden_dim=8, seed=seed)
            cfg = TrainConfig(lr=0.01, l2=0.0, dropout=0.0, patience=10,
                              max_epochs=200, seed=seed)
            result = fit(model, items, items, cfg)
            assert result.best_val < 1e-3

    def test_best_snapshot_is_what_evaluate_sees(self):
        graphs = [erdos_renyi(8, 0.4, s) for s in range(6)]
        targets = [float(g.edge_count) for g in graphs]
        items = _ones_items(graphs, targets)
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=5)
        cfg = TrainConfig(dropout=0.0, max_epochs=20, seed=1)
        result = fit(model, items[:4], items[4:], cfg)
        assert evaluate(model, items[4:]) == result.best_val
        assert result.best_epoch <= len(result.history) - 1

    def test_identical_seeds_identical_histories(self):
        graphs = [erdos_renyi(8, 0.4, s) for s in range(4)]
        items = _ones_items(graphs, [1.0, 2.0, 3.0, 4.0])
        runs = []
        for _ in range(2):
            model = build_model(gcn_spec(2), input_dim=1, hidden_dim=4, seed=9)
            cfg = TrainConfig(max_epochs=8, seed=4)
            result = fit(model, items[:3], items[3:], cfg)
            # epoch 0 records train_loss as nan, which never compares equal
            runs.append((
                [(s.epoch, s.val_loss, s.lr) for s in result.history],
                [s.train_loss for s in result.history[1:]],
                model.param_values(),
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert all(np.array_equal(runs[0][2][k], runs[1][2][k]) for k in runs[0][2])

    def test_divergence_reports_epoch(self):
        g = complete_graph(5)
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        # finite but huge head weights: activations pass the finiteness
        # checks, squaring the error overflows
        vals = model.param_values()
        vals["head.w"] = np.full_like(vals["head.w"], 1e200)
        model.load_param_values(vals)
        items = _ones_items([g], [0.0])
        cfg = TrainConfig(dropout=0.0, max_epochs=5, seed=0)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="epoch 1"):
                fit(model, items, items, cfg)

    def test_empty_split_rejected(self):
        model = build_model(gcn_spec(1), input_dim=1, hidden_dim=4, seed=0)
        items = _ones_items([complete_graph(3)], [1.0])
        with pytest.raises(InputError):
            fit(model, [], items, TrainConfig())
        with pytest.raises(InputError):
            fit(model, items, [], TrainConfig())


class TestGradientCheck:
    def test_l1_model_on_triangle(self):
        rng = np.random.default_rng(0)
        g = complete_graph(3)
        model = build_model(gcn_l1_spec(1), input_dim=2, hidden_dim=4, seed=1)
        item = prepare_items([g], [rng.normal(size=(3, 2))],
                             [rng.normal()])[0]
        assert gradient_check(model, item) <= 1e-4

    def test_d2_model_on_random_graph(self):
        rng = np.random.default_rng(1)
        g = erdos_renyi(10, 0.3, 17)
        model = build_model(gcn_d2_spec(1), input_dim=1, hidden_dim=4, seed=2)
        item = prepare_items([g], [rng.normal(size=(10, 1))],
                             [rng.normal()])[0]
        assert gradient_check(model, item) <= 1e-4

    def test_repeated_check_is_stable(self):
        g = erdos_renyi(9, 0.4, 3)
        model = build_model(gcn_l1_spec(2), input_dim=1, hidden_dim=4, seed=4)
        item = _ones_items([g], [2.0])[0]
        first = gradient_check(model, item)
        assert all(p.grad is None for p in model.params.values())
        assert gradient_check(model, item) == first <= 1e-4

    def test_no_trainable_params_returns_zero(self):
        g = complete_graph(4)
        spec = ModelSpec(layers=(LayerSpec(terms=(self_loop_adjacency(),),
                                           mlp_depth=0),),
                         readout="sum", output_dim=1, head=False)
        model = build_model(spec, input_dim=1, hidden_dim=4, seed=0)
        model.params["layer0.theta0"].trainable = False
        item = _ones_items([g], [1.0])[0]
        assert gradient_check(model, item) == 0.0
