import gc
import itertools
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import oracles
import pytest
from oracles import (complete_graph, gradient_check, item_row, tape_loss_and_grads,
                     triangles_per_node_by_intersection)

from walklab import models, training, walks
from walklab.errors import CapacityError, CountOverflowError, InputError
from walklab.graphs import disjoint_union, erdos_renyi, from_edge_list
from walklab.models import (FAMILIES, GraphOperators, apply_term, backward, build_model,
                            diag_power, forward, spec_from_model_name)
from walklab.training import (AdamState, TrainConfig, adam_step, evaluate, fit, mse_loss,
                              prepare_items)


# every term a model family sums
ALL_TERMS = tuple(dict.fromkeys(t for terms in FAMILIES.values() for t in terms))


def _ones_items(graphs, targets):
    return prepare_items(graphs, [np.ones((g.n, 1)) for g in graphs], targets, terms=ALL_TERMS)


def _closed_walks(item, m):
    # an item's closed m-walk diagonal, held by its store's operators
    ops = item.store.ops
    return ops.closed_walk_diag(m).reshape(ops.shape)[item.row]


def _uncounted(g, m):
    raise RuntimeError(f"closed {m}-walks counted after the store was built")


def _fit_one(model, train_items, val_items, cfg):
    # one model trains as the stack of one, a view of its own vector
    result, = fit(model.with_flat(model.flat[None]), [train_items], [val_items], [cfg])
    return result


def _col(*values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = mse_loss(_col(1.0, 2.0), _col(1.0, 2.0))
        assert loss == 0.0
        assert np.array_equal(grad, _col(0.0, 0.0))

    def test_single_entry(self):
        loss, grad = mse_loss(_col(0.0), _col(2.0))
        assert loss == 4.0
        assert np.array_equal(grad, _col(-4.0))

    def test_mean_over_entries(self):
        loss, grad = mse_loss(_col(1.0, 3.0), _col(2.0, 2.0))
        assert loss == 1.0
        assert np.array_equal(grad, _col(-1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse_loss(_col(1.0), _col(1.0, 2.0))

    def test_empty(self):
        with pytest.raises(InputError):
            mse_loss(_col(), _col())


class TestAdam:
    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after bias correction, so the step is lr/(1+eps)
        w = np.array([0.5])
        state = AdamState(w)
        adam_step(state, w, np.array([1.0]), lr=0.001)
        assert abs(w[0] - 0.499) < 1e-9

    def test_zero_gradient_leaves_params_unchanged(self):
        w = np.array([1.5, -2.0, 3.0])
        state = AdamState(w)
        for _ in range(5):
            adam_step(state, w, np.zeros(3), lr=0.1)
        assert w.tolist() == [1.5, -2.0, 3.0]

    def test_identical_sequences_identical_trajectories(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=4) for _ in range(20)]
        traj = []
        for _ in range(2):
            w = np.zeros(4)
            state = AdamState(w)
            for g in grads:
                adam_step(state, w, g, lr=0.05)
            traj.append(w)
        assert np.array_equal(traj[0], traj[1])

    def test_l2_is_coupled_into_the_gradient(self):
        # a decayed step on data gradient g equals, bit for bit, a plain
        # step on g + 2 * l2 * w (L2 before the moments, not AdamW decay)
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=6)
        grads = [rng.normal(size=6) for _ in range(3)]
        l2 = 5e-4
        decayed, plain = w0.copy(), w0.copy()
        s_decayed = AdamState(decayed, l2=l2, decay=np.ones(6, dtype=bool))
        s_plain = AdamState(plain)
        for g in grads:
            adam_step(s_decayed, decayed, g.copy(), lr=0.01)
            adam_step(s_plain, plain, g + (2.0 * l2) * plain, lr=0.01)
            assert np.array_equal(decayed, plain)

    def test_l2_skips_unlisted_params(self):
        # gates and biases are outside the model's decay mask
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        ends = np.cumsum([p.size for p in model.params.values()])
        blocks = {k: slice(end - p.size, end) for (k, p), end in zip(model.params.items(), ends)}
        unlisted = [k for k, b in blocks.items() if not model.decay[b].any()]
        assert unlisted == ["layer0.theta0", "layer0.b0", "layer0.b1", "head.b"]
        runs = []
        for l2 in (0.0, 0.5):
            w = model.flat.copy()
            state = AdamState(w, l2=l2, decay=model.decay)
            adam_step(state, w, np.ones_like(w), lr=0.01)
            runs.append(w)
        for k, b in blocks.items():
            same = np.array_equal(runs[0][b], runs[1][b])
            assert same == (k in unlisted), k

    def test_gradients_are_not_modified(self):
        w = np.array([1.0])
        g = np.array([0.5])
        state = AdamState(w, l2=0.1, decay=np.array([True]))
        adam_step(state, w, g, lr=0.1)
        assert g.tolist() == [0.5]
        assert w.tolist() != [1.0]


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
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        model.flat[:] = 0.0
        items = _ones_items([g, g], [3.0, 1.0])
        assert evaluate(model, items) == 5.0

    def test_empty_items_rejected(self):
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        with pytest.raises(InputError):
            evaluate(model, [])

    @staticmethod
    def _one_pass_per_item(model, items):
        total = 0.0
        for item in items:
            row = item_row(item)
            total += mse_loss(forward(model, GraphOperators([row.graph]), row.features[None])[0],
                              row.target)[0]
        return total / len(items)

    @pytest.mark.parametrize("name", ["GCN-2L", "GCN-L1-1L", "GCN-D2-3L"])
    @pytest.mark.parametrize("readout", ["sum", "node"])
    @pytest.mark.parametrize("budget", [training.MAX_STACK_ENTRIES, 40])
    def test_equals_one_pass_per_item(self, monkeypatch, name, readout, budget):
        # mixed node counts in shuffled order, scalar or per-node targets,
        # and a budget of 40 entries that splits each node count's stack
        # into passes of one or two graphs
        monkeypatch.setattr(training, "MAX_STACK_ENTRIES", budget)
        rng = np.random.default_rng(len(name) + len(readout))
        sizes = rng.permutation([5] * 7 + [6] * 4 + [9] * 3)
        graphs = [erdos_renyi(int(n), 0.5, int(rng.integers(1 << 30))) for n in sizes]
        targets = [rng.normal(size=(g.n, 2)) if readout == "node" else rng.normal(size=(1, 2))
                   for g in graphs]
        spec = replace(spec_from_model_name(name, True), readout=readout, output_dim=2)
        items = prepare_items(graphs, [rng.normal(size=(g.n, 3)) for g in graphs], targets,
                              terms=spec.terms)
        model = build_model(spec, input_dim=3, hidden_dim=4, seed=3)
        assert evaluate(model, items) == self._one_pass_per_item(model, items)

    def test_items_of_several_calls_interleaved(self):
        # each pass gathers store by store, in item order
        rng = np.random.default_rng(9)
        graphs = [erdos_renyi(6, 0.5, s) for s in range(8)]
        spec = spec_from_model_name("GCN-D2-2L", True)
        calls = [prepare_items(graphs[k::2], [rng.normal(size=(6, 1)) for _ in graphs[k::2]],
                               rng.normal(size=4), terms=spec.terms) for k in (0, 1)]
        items = [calls[k % 2][k // 2] for k in (0, 1, 3, 2, 5, 4, 6, 7)]
        model = build_model(spec, input_dim=1, hidden_dim=4, seed=5)
        assert evaluate(model, items) == self._one_pass_per_item(model, items)

    def test_target_shape_checked(self):
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        items = _ones_items([complete_graph(3)], [np.ones(3)])
        with pytest.raises(InputError, match="target shape"):
            evaluate(model, items)


class TestPrepareItems:
    def test_scalar_target_becomes_1x1(self):
        row = item_row(_ones_items([complete_graph(3)], [7.0])[0])
        assert row.target.shape == (1, 1)
        assert row.features.shape == (3, 1)

    def test_rejects_non_graph(self):
        with pytest.raises(InputError):
            prepare_items([object()], [np.ones((2, 1))], [0.0])

    def test_rejects_features_of_another_node_count(self):
        with pytest.raises(InputError, match="3 rows"):
            prepare_items([complete_graph(3)], [np.ones((4, 1))], [0.0])

    def test_rejects_a_feature_vector(self):
        # features are (n, d) rows; a vector is not read as a column
        with pytest.raises(InputError, match=r"3 rows of d columns, got shape \(3,\)"):
            prepare_items([complete_graph(3)], [np.ones(3)], [0.0])

    def test_features_are_a_read_only_copy(self):
        x = np.ones((3, 1))
        row = item_row(prepare_items([complete_graph(3)], [x], [0.0])[0])
        assert row.features.shape == (3, 1)
        with pytest.raises(ValueError, match="read-only"):
            row.features[0, 0] = 2.0
        x[0] = 2.0
        assert row.features[0, 0] == 1.0

    def test_lists_of_different_lengths_rejected(self):
        # zipped, the lists were cut short to one item
        with pytest.raises(InputError, match="2 graphs, 1 feature arrays and 2 targets"):
            prepare_items([complete_graph(3), complete_graph(4)], [np.ones(3)], [1.0, 2.0])

    def test_layer0_terms_and_diagonals_kept_read_only(self, monkeypatch):
        g = erdos_renyi(8, 0.5, 1)
        terms = spec_from_model_name("GCN-D2-1L").terms
        item = prepare_items([g], [np.ones((8, 1))], [0.0], terms=terms)[0]
        row = item_row(item)
        assert list(row.layer0) == list(terms)
        ops = GraphOperators([g])
        for term in terms:
            assert np.array_equal(row.layer0[term], apply_term(term, ops, np.ones((8, 1))))
        want = ops.closed_walk_diag(3)
        # the store counted diag(A^3), and no other diagonal, when it was built
        monkeypatch.setattr(models, "diag_closed_walks", _uncounted)
        assert np.array_equal(_closed_walks(item, 3), want)
        with pytest.raises(RuntimeError, match="closed 5-walks"):
            _closed_walks(item, 5)
        for a in (*row.layer0.values(), _closed_walks(item, 3)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        with pytest.raises(TypeError):
            item.store.layer0[terms[0]] = row.features
        bare = prepare_items([g], [np.ones((8, 1))], [0.0])[0]
        assert not item_row(bare).layer0

    def test_missing_layer0_term_is_an_error(self):
        # fit and evaluate never build a term the items lack; they name it
        items = prepare_items([complete_graph(3)] * 2, [np.ones((3, 1))] * 2, [1.0, 2.0],
                              terms=FAMILIES[""])
        model = build_model(spec_from_model_name("GCN-L1-1L"), input_dim=1, hidden_dim=4,
                            seed=0)
        missing = r"lacks the layer-0 term .*diag_power.*k=3"
        with pytest.raises(InputError, match=missing):
            evaluate(model, items)
        with pytest.raises(InputError, match=missing):
            _fit_one(model, items, items, TrainConfig())
        evaluate(build_model(spec_from_model_name("GCN-2L"), 1, 4, seed=0), items)


class TestBatchedBuild:
    """prepare_items builds the layer-0 terms of a store on all of its
    graphs at once; each item must get its own graph's bits."""

    TERMS = (*ALL_TERMS, diag_power(5))

    @staticmethod
    def _graphs():
        # mixed node counts, an edgeless graph and a one-node graph
        return [erdos_renyi(9, 0.5, 1), from_edge_list(4, []), complete_graph(1),
                erdos_renyi(12, 0.3, 2), complete_graph(5), erdos_renyi(7, 0.6, 3),
                from_edge_list(3, [(0, 1)]), erdos_renyi(10, 0.4, 4)]

    def _assert_own_bits(self, items, graphs, xs):
        for item, g, x in zip(items, graphs, xs):
            ops = GraphOperators([g])
            for term in self.TERMS:
                got = item_row(item).layer0[term]
                assert np.array_equal(got, apply_term(term, ops, x))
                assert not got.flags.writeable
            for m in (3, 5):
                assert np.array_equal(_closed_walks(item, m), ops.closed_walk_diag(m))

    def test_terms_equal_each_graphs_own(self):
        # same-size graphs share a store: twice each graph of mixed sizes
        graphs = self._graphs() * 2
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(g.n, 3)) for g in graphs]
        items = prepare_items(graphs, xs, [0.0] * len(graphs), terms=self.TERMS)
        assert items[0].store is items[8].store
        self._assert_own_bits(items, graphs, xs)

    def test_features_of_another_width_keep_their_own_bits(self):
        graphs = self._graphs()[:4] * 2
        xs = [np.ones((g.n, 1 + i % 3)) for i, g in enumerate(graphs)]
        items = prepare_items(graphs, xs, [0.0] * 8, terms=self.TERMS)
        self._assert_own_bits(items, graphs, xs)

    def test_one_triangle_count_per_store(self, monkeypatch):
        # the D2 terms need diag(A^3) once: wedge passes over runs of the
        # store's concatenated arrays (walks._runs), and no walk product
        counts, products = [], []

        def counting(indptr, *args):
            counts.append(indptr.size - 1)
            return real(indptr, *args)

        real = walks._wedge_pass
        monkeypatch.setattr(walks, "_wedge_pass", counting)
        monkeypatch.setattr(walks, "_checked_matmul", lambda a, b: products.append(1))
        graphs = [erdos_renyi(20, 0.3, seed) for seed in range(40)]
        items = prepare_items(graphs, [np.ones((20, 1))] * 40, [0.0] * 40, terms=FAMILIES["D2"])
        assert sum(counts) == 800 and len(counts) == len(list(walks._runs(graphs)))
        assert len(counts) < 10
        assert products == []
        assert items[0].store.ops.closed_walk_diag(3).tolist() == [
            2 * t for g in graphs for t in triangles_per_node_by_intersection(g)]

    def test_one_structure_matrix_per_store(self, monkeypatch):
        # the D2 terms apply A + I once and A twice on all 40 graphs: one
        # matrix of each, built over the whole store
        built = []

        def counting(indptr, indices):
            built.append((indptr.size - 1, indices.size))
            return real(indptr, indices)

        real = models._matrix
        monkeypatch.setattr(models, "_matrix", counting)
        graphs = [erdos_renyi(20, 0.3, seed) for seed in range(40)]
        prepare_items(graphs, [np.ones((20, 1))] * 40, [0.0] * 40, terms=FAMILIES["D2"])
        entries = sum(g.indices.size for g in graphs)
        assert sorted(built) == [(800, entries), (800, entries + 800)]

    def test_one_structure_matrix_alive_at_a_time(self, monkeypatch):
        # each term runs on a fresh gather, so A + I is gone before A is built
        alive = []

        def tracking(indptr, indices):
            assert all(ref() is None for ref in alive)
            matrix = real(indptr, indices)
            alive.append(weakref.ref(matrix))
            return matrix

        real = models._matrix
        monkeypatch.setattr(models, "_matrix", tracking)
        graphs = [erdos_renyi(20, 0.3, seed) for seed in range(10)]
        prepare_items(graphs, [np.ones((20, 1))] * 10, [0.0] * 10, terms=FAMILIES["D2"])
        assert len(alive) == 2

    def test_graph_over_the_product_limit_is_a_capacity_error(self, monkeypatch):
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 100)
        small, big = complete_graph(3), complete_graph(8)  # 12 and 392 multiply-adds
        prepare_items([small] * 5, [np.ones((3, 1))] * 5, [0.0] * 5, terms=FAMILIES["L1"])
        for graphs in ([big], [small, big, small]):
            with pytest.raises(CapacityError, match="multiply-adds"):
                prepare_items(graphs, [np.ones((g.n, 1)) for g in graphs], [0.0] * len(graphs),
                              terms=FAMILIES["L1"])

    def test_union_overflow_bound_falls_back_to_each_graph(self):
        # the overflow bound of a walk product grows with the node count:
        # closed 39-walks of K4 fit alone but not on a union of 40 copies,
        # and closed 43-walks of K4 do not fit at all
        graphs = [complete_graph(4)] * 40
        with pytest.raises(CountOverflowError):
            walks.diag_closed_walks(disjoint_union(*graphs), 39)
        items = prepare_items(graphs, [np.ones((4, 1))] * 40, [0.0] * 40,
                              terms=(diag_power(39),))
        own = GraphOperators(graphs[:1]).closed_walk_diag(39)
        assert all(np.array_equal(_closed_walks(it, 39), own) for it in items)
        with pytest.raises(CountOverflowError):
            prepare_items(graphs, [np.ones((4, 1))] * 40, [0.0] * 40, terms=(diag_power(43),))


class TestFit:
    def test_worsening_validation_stops_after_two_epochs(self):
        # val target equals the initial prediction, train target pulls away:
        # epoch 0 is already optimal, the first `patience` epochs burn
        # patience and halve the lr, the next `patience` exhaust the
        # post-cut window (two epochs at patience 1)
        g = erdos_renyi(8, 0.5, 11)
        x = np.ones((8, 1))
        for patience in (1, 2):
            model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=2)
            init = model.flat.copy()
            pred0 = float(forward(model, GraphOperators([g]), x[None])[0, 0, 0])
            train_items = _ones_items([g], [pred0 + 100.0])
            val_items = _ones_items([g], [pred0])
            cfg = TrainConfig(dropout=0.0, patience=patience, max_epochs=50, seed=0)
            result = _fit_one(model, train_items, val_items, cfg)
            assert result.stop_reason == "early_stop"
            assert [s.epoch for s in result.history] == list(range(2 * patience + 1))
            assert result.best_epoch == 0
            assert result.best_val == 0.0
            assert [s.lr for s in result.history[1:]] == \
                [cfg.lr] * patience + [cfg.lr * cfg.lr_factor] * patience
            assert result.lr_cuts == 1
            assert np.array_equal(model.flat, init)

    def test_improvement_resets_the_plateau_count(self, monkeypatch):
        # scripted validation losses, patience 2: epochs 1-2 plateau and
        # cut the lr, epoch 3 is a new best, epochs 4-5 cut again and
        # epochs 6-7 exhaust the window
        vals = iter([10.0, 11.0, 12.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1.0])
        monkeypatch.setattr(training, "evaluate", lambda model, items: next(vals))
        items = _ones_items([complete_graph(3)], [1.0])
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        cfg = TrainConfig(dropout=0.0, patience=2, max_epochs=50, seed=0)
        result = _fit_one(model, items, items, cfg)
        assert result.stop_reason == "early_stop"
        assert (result.best_epoch, result.best_val) == (3, 5.0)
        assert [s.epoch for s in result.history] == list(range(8))
        lr, f = cfg.lr, cfg.lr_factor
        assert [s.lr for s in result.history[1:]] == \
            [lr, lr, lr * f, lr * f, lr * f, lr * f * f, lr * f * f]
        assert result.lr_cuts == 2

    def test_constant_target_converges(self):
        # one graph, constant target: the optimiser has to drive a single
        # prediction onto 0.25 within the epoch budget
        g = erdos_renyi(10, 0.3, 7)
        spec = spec_from_model_name("GCN-1L", mlp_depth=1)
        items = _ones_items([g], [0.25])
        for seed in (0, 1, 2):
            model = build_model(spec, input_dim=1, hidden_dim=8, seed=seed)
            cfg = TrainConfig(lr=0.01, l2=0.0, dropout=0.0, patience=10,
                              max_epochs=200, seed=seed)
            result = _fit_one(model, items, items, cfg)
            assert result.best_val < 1e-3

    def test_best_snapshot_is_what_evaluate_sees(self):
        graphs = [erdos_renyi(8, 0.4, s) for s in range(6)]
        targets = [float(g.edge_count) for g in graphs]
        items = _ones_items(graphs, targets)
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=5)
        cfg = TrainConfig(dropout=0.0, max_epochs=20, seed=1)
        result = _fit_one(model, items[:4], items[4:], cfg)
        assert evaluate(model, items[4:]) == result.best_val
        assert result.best_epoch <= len(result.history) - 1

    def test_identical_seeds_identical_histories(self):
        graphs = [erdos_renyi(8, 0.4, s) for s in range(4)]
        items = _ones_items(graphs, [1.0, 2.0, 3.0, 4.0])
        runs = []
        for _ in range(2):
            model = build_model(spec_from_model_name("GCN-2L"), input_dim=1, hidden_dim=4, seed=9)
            cfg = TrainConfig(max_epochs=8, seed=4)
            result = _fit_one(model, items[:3], items[3:], cfg)
            # epoch 0 records train_loss as nan, which never compares equal
            runs.append((
                [(s.epoch, s.val_loss, s.lr) for s in result.history],
                [s.train_loss for s in result.history[1:]],
                model.flat,
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert np.array_equal(runs[0][2], runs[1][2])

    def test_divergence_reports_epoch(self):
        g = complete_graph(5)
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        # finite but huge head weights: activations pass the finiteness
        # checks, squaring the error overflows
        model.params["head.w"][...] = 1e200
        items = _ones_items([g], [0.0])
        cfg = TrainConfig(dropout=0.0, max_epochs=5, seed=0)
        with np.errstate(over="ignore"):
            result = _fit_one(model, items, items, cfg)
        # epoch 0 validated, epoch 1 diverged
        assert result.stop_reason == "diverged"
        assert len(result.history) == 1

    def test_one_model_vector_is_refused(self):
        # fit trains a stack; one model is the stack of one, never a vector
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        items = _ones_items([complete_graph(3)], [1.0])
        with pytest.raises(InputError, match=r"\(F, 34\) stack of models"):
            fit(model, items, items, TrainConfig())

    def test_empty_split_rejected(self):
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        items = _ones_items([complete_graph(3)], [1.0])
        with pytest.raises(InputError):
            _fit_one(model, [], items, TrainConfig())
        with pytest.raises(InputError):
            _fit_one(model, items, [], TrainConfig())


class TestLockstep:
    @pytest.mark.parametrize("name", ["GCN-2L", "GCN-L1-1L"])
    def test_group_trains_each_cell_as_its_group_of_one(self, name):
        # four cells on overlapping splits of nine graphs with two node
        # counts: train splits of 5 and 6 graphs, so rows take unequal
        # step counts; dropout on; patience 2, so cells cut their lr and
        # stop at different epochs; and cell 2's split holds a graph with
        # infinite features, so its activations turn non-finite within
        # its first epoch. Each cell's result and final weights equal
        # those of its group of one, bit for bit.
        graphs = [erdos_renyi(7 + s % 2, 0.5, s) for s in range(9)]
        items = _ones_items(graphs, [float(g.edge_count) for g in graphs])
        with np.errstate(invalid="ignore"):
            poisoned = prepare_items(graphs[:1], [np.full((7, 1), np.inf)], [1.0],
                                     terms=ALL_TERMS)
        splits = [(items[:5], items[5:7]), (items[2:8], items[:2]),
                  (items[3:8] + poisoned, items[8:]), (items[1:7], items[7:])]
        spec = spec_from_model_name(name, degree_normalize=True)
        models = [build_model(spec, input_dim=1, hidden_dim=4, seed=f) for f in range(4)]
        cfgs = [TrainConfig(lr=0.02, dropout=0.3, patience=2, max_epochs=40, seed=10 + f)
                for f in range(4)]
        stack = models[0].with_flat(np.stack([m.flat for m in models]))
        with np.errstate(over="ignore", invalid="ignore"):
            results = fit(stack, [t for t, _ in splits], [v for _, v in splits], cfgs)
            alone = [fit(m.with_flat(m.flat[None]), [t], [v], [c])[0]
                     for m, (t, v), c in zip(models, splits, cfgs)]
        for f, (result, single) in enumerate(zip(results, alone)):
            assert repr(result) == repr(single), f
            assert stack.flat[f].tobytes() == models[f].flat.tobytes(), f
        # the schedule this test means to cover
        assert results[2].stop_reason == "diverged" and len(results[2].history) == 1
        stopped = [r for r in results if r.stop_reason == "early_stop"]
        assert len({len(r.history) for r in stopped}) > 1
        assert stopped and all(r.lr_cuts >= 1 for r in stopped)

    def test_mixed_node_counts_keep_step_buffers_bounded(self):
        # eight cells over graphs of two node counts: each step splits the
        # rows at random by node count, so some 200 different sets of rows
        # step over the run. Training must still hold a few (F, P) arrays,
        # not one copy of the rows and their gradient per set seen. (At
        # this size the peak is about 13 stacks: the long-lived arrays,
        # Adam's temporaries and the activations; one copy per set seen
        # made it about 240.)
        graphs = [erdos_renyi(5 + s % 2, 0.6, s) for s in range(12)]
        items = _ones_items(graphs, [float(g.edge_count) for g in graphs])
        spec = spec_from_model_name("GCN-2L")
        models = [build_model(spec, input_dim=1, hidden_dim=48, seed=f) for f in range(8)]
        stack = models[0].with_flat(np.stack([m.flat for m in models]))
        cfgs = [TrainConfig(dropout=0.0, patience=30, max_epochs=30, seed=f) for f in range(8)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = fit(stack, [items[f % 4:f % 4 + 8] for f in range(8)],
                          [items[:2]] * 8, cfgs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(r.stop_reason == "max_epochs" for r in results)
        assert peak < 24 * stack.flat.nbytes

    def test_group_configs_differ_only_in_seed(self):
        items = _ones_items([complete_graph(3)] * 2, [1.0, 2.0])
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=4, seed=0)
        stack = model.with_flat(np.stack([model.flat] * 2))
        with pytest.raises(InputError, match="only in their seed"):
            fit(stack, [items] * 2, [items] * 2, [TrainConfig(seed=1), TrainConfig(lr=0.1)])
        with pytest.raises(InputError, match="2 cells"):
            fit(stack, [items], [items], [TrainConfig()])
        with pytest.raises(InputError, match="nonempty"):
            fit(stack, [items, []], [items] * 2, [TrainConfig()] * 2)


class TestLayer0Store:
    @pytest.mark.parametrize("name", ["GCN-1L", "GCN-D2-1L"])
    def test_fit_takes_no_layer0_product(self, monkeypatch, name):
        # prepare_items takes every layer-0 product: a one-layer model
        # applies no term and builds no structure matrix, however many
        # steps and evaluations run
        graphs = [erdos_renyi(8, 0.4, s) for s in range(5)]
        items = _ones_items(graphs, [1.0, 2.0, 3.0, 4.0, 5.0])
        calls = []
        monkeypatch.setattr(models, "apply_term", lambda *args: calls.append("apply_term"))
        monkeypatch.setattr(models, "_matrix", lambda *args: calls.append("_matrix"))
        model = build_model(spec_from_model_name(name), input_dim=1, hidden_dim=4, seed=0)
        result = _fit_one(model, items[:3], items[3:], TrainConfig(max_epochs=4, patience=4))
        assert len(result.history) == 5  # 12 steps, 5 evaluations
        evaluate(model, items)
        assert calls == []


class TestStoreLifetime:
    def test_dropped_items_free_their_store_without_the_cyclic_gc(self):
        # nothing a store holds refers back to it, so dropping its items
        # frees it at once; a cycle (say, a store whose operators name
        # themselves as their source) would keep every dropped store alive
        # until the cyclic collector runs
        graphs = [erdos_renyi(8, 0.4, s) for s in range(5)]
        gc.disable()
        try:
            items = _ones_items(graphs, [1.0, 2.0, 3.0, 4.0, 5.0])
            model = build_model(spec_from_model_name("GCN-D2-2L"), 1, 4, seed=0)
            _fit_one(model, items[:3], items[3:], TrainConfig(max_epochs=2))
            evaluate(model, items)
            items[0].ops.adjacency_with_loops
            store = weakref.ref(items[0].store.ops)
            del items
            assert store() is None
        finally:
            gc.enable()


class TestGradientCheck:
    def test_l1_model_on_triangle(self):
        rng = np.random.default_rng(0)
        g = complete_graph(3)
        model = build_model(spec_from_model_name("GCN-L1-1L"), input_dim=2, hidden_dim=4, seed=1)
        item = prepare_items([g], [rng.normal(size=(3, 2))],
                             [rng.normal()])[0]
        assert gradient_check(model, item) <= 1e-4

    def test_d2_model_on_random_graph(self):
        rng = np.random.default_rng(1)
        g = erdos_renyi(10, 0.3, 17)
        model = build_model(spec_from_model_name("GCN-D2-1L"), input_dim=1, hidden_dim=4, seed=2)
        item = prepare_items([g], [rng.normal(size=(10, 1))],
                             [rng.normal()])[0]
        assert gradient_check(model, item) <= 1e-4

    def test_repeated_check_is_stable(self):
        g = erdos_renyi(9, 0.4, 3)
        model = build_model(spec_from_model_name("GCN-L1-2L"), input_dim=1, hidden_dim=4, seed=4)
        item = _ones_items([g], [2.0])[0]
        first = gradient_check(model, item)
        assert gradient_check(model, item) == first <= 1e-4

    def test_too_many_coordinates_refused_before_any_pass(self, monkeypatch):
        # GCN-1L at hidden 150: 1 gate + 150 + 150 + 150 * 150 + 150 + 150 + 1
        model = build_model(spec_from_model_name("GCN-1L"), input_dim=1, hidden_dim=150, seed=0)
        assert model.flat.size == 23102
        item = _ones_items([complete_graph(3)], [1.0])[0]

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran before the size check")

        monkeypatch.setattr(oracles, "forward", no_forward)
        with pytest.raises(CapacityError, match="<= 20000 coordinates, got 23102"):
            gradient_check(model, item)


# families x layers x mlp_depth x degree normalisation x dropout x readout
TAPE_GRID = list(itertools.product(("GCN-", "GCN-L1-", "GCN-D2-"), (1, 2, 3),
                                   (0, 1, 2), (False, True), (0.0, 0.3), ("sum", "node")))


class TestTapeReference:
    @pytest.mark.parametrize("case", range(len(TAPE_GRID)), ids=[
        f"{family}{layers}L-mlp{depth}-norm{int(norm)}-drop{drop}-{readout}"
        for family, layers, depth, norm, drop, readout in TAPE_GRID])
    def test_fused_pass_equals_tape(self, case):
        # the loss and every gradient equal the tape's bit for bit, dropout
        # masks included (both sides draw from equal seeds)
        family, layers, depth, normalize, dropout, readout = TAPE_GRID[case]
        rng = np.random.default_rng(case)
        n = int(rng.integers(5, 12))
        g = erdos_renyi(n, 0.4, int(rng.integers(1 << 30)))
        spec = replace(spec_from_model_name(f"{family}{layers}L", normalize, depth),
                       readout=readout)
        model = build_model(spec, input_dim=2, hidden_dim=4, seed=case)
        rows = 1 if readout == "sum" else n
        item = item_row(prepare_items([g], [rng.normal(size=(n, 2))],
                                      [rng.normal(size=rows) if rows > 1 else rng.normal()])[0])
        saved = {}
        ops = GraphOperators([item.graph])
        one = model.with_flat(model.flat[None])
        pred = forward(one, ops, item.features[None], dropout_rate=dropout,
                       rng=[np.random.default_rng(7)], saved=saved)
        loss, d_pred = mse_loss(pred, item.target[None])
        grads = backward(one, saved, d_pred, one.unflatten(np.zeros_like(one.flat)))
        ref_loss, ref_grads = tape_loss_and_grads(
            model, ops, item.features, item.target,
            dropout_rate=dropout, rng=np.random.default_rng(7))
        assert loss[0] == ref_loss
        # the one-model pass that evaluate runs gives the same loss
        alone = forward(model, ops, item.features[None], dropout_rate=dropout,
                        rng=[np.random.default_rng(7)])
        assert mse_loss(alone, item.target[None])[0][0] == ref_loss
        assert set(grads) == set(ref_grads)
        for k in ref_grads:
            assert np.array_equal(grads[k][0], ref_grads[k]), k


def test_training_path_does_not_import_the_tape():
    code = ("import sys, walklab.cli, walklab.experiments, walklab.training; "
            "print('walklab.autodiff' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
