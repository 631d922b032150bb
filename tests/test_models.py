import itertools

import numpy as np
import pytest
from scipy import sparse

from walklab.errors import CapacityError, InputError, NumericError
from walklab.graphs import (complete_graph, cycle_graph, erdos_renyi,
                            from_edge_list, path_graph, relabel)
from walklab.models import (FAMILIES, MAX_HIDDEN_DIM, MAX_LAYERS, AggregationTerm,
                            GraphOperators, ModelSpec, apply_term, backward,
                            build_model, diag_power, forward, power, self_loop_adjacency,
                            spec_from_model_name)
from walklab.walks import adjacency_csr, diag_closed_walks

from oracles import neighbours


def identity_readout_model(terms, n_features=1, degree_normalize=False):
    # no MLP and an identity head: the output is the raw operator sum per node
    spec = ModelSpec(terms, mlp_depth=0, degree_normalize=degree_normalize,
                     readout="node", output_dim=n_features)
    m = build_model(spec, input_dim=n_features, hidden_dim=n_features, seed=0)
    m.params["head.w"][...] = np.eye(n_features)
    m.params["head.b"][...] = 0.0
    return m


def set_gates(model, *values):
    # drive sigmoid gates to exact constants: +-800 saturates to 1/0
    for i, v in enumerate(values):
        if v == 1.0:
            raw = 800.0
        elif v == 0.0:
            raw = -800.0
        else:
            raw = float(np.log(v / (1 - v)))
        model.params[f"layer0.theta{i}"][...] = raw


class TestSpecs:
    def test_term_validation(self):
        with pytest.raises(InputError):
            AggregationTerm(op="nope")
        with pytest.raises(InputError):
            power(0)
        with pytest.raises(InputError):
            diag_power(2)  # even walk length carries degree, not cycles
        with pytest.raises(InputError):
            diag_power(1)

    def test_layer_and_model_validation(self):
        with pytest.raises(InputError):
            ModelSpec(terms=())
        with pytest.raises(InputError):
            ModelSpec((power(2),), layers=0)
        with pytest.raises(InputError):
            ModelSpec((power(2),), readout="max")

    def test_family_specs(self):
        assert spec_from_model_name("GCN-2L").layers == 2
        assert [t.op for t in spec_from_model_name("GCN-L1-1L").terms] == \
            ["self_loop_adjacency", "diag_power"]
        d2 = spec_from_model_name("GCN-D2-1L")
        assert [(t.op, t.k) for t in d2.terms] == \
            [("self_loop_adjacency", 1), ("diag_power", 3), ("power", 2)]
        assert sorted(FAMILIES) == ["", "D2", "L1"]

    def test_name_parsing(self):
        assert spec_from_model_name("gcn-l1-3l") == \
            ModelSpec((self_loop_adjacency(), diag_power(3)), layers=3)
        assert spec_from_model_name(" GCN-D2-2L ") == spec_from_model_name("GCN-D2-2L")
        # aliases of valid names are refused too: a model has one name
        for bad in ("GCN", "MLP-2L", "GCN-L9-1L", "GCN-0L", "GCN-2", "GCN-XL",
                    "GCN--1L", "GCN-02L", "GCN-+2L", "GCN- 2L", "GCN-1_0L", "GCN-L1--1L",
                    "GCN-\u0662L", "GCN-L1D2-1L", "GCN-L1-D2-1L"):
            with pytest.raises(InputError):
                spec_from_model_name(bad)

    def test_depth_limit(self):
        assert spec_from_model_name(f"GCN-{MAX_LAYERS}L").layers == MAX_LAYERS
        for depth in (MAX_LAYERS + 1, 10**9, "9" * 5000):
            with pytest.raises(InputError, match=f"the limit is {MAX_LAYERS}"):
                spec_from_model_name(f"GCN-L1-{depth}L")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_name_carries_normalisation_and_mlp_depth(self, family):
        name = f"GCN-{family}-2L".replace("--", "-")
        spec = spec_from_model_name(name, degree_normalize=True, mlp_depth=1)
        assert spec == ModelSpec(FAMILIES[family], 2, mlp_depth=1, degree_normalize=True)
        with pytest.raises(InputError, match="mlp_depth"):
            spec_from_model_name(name, mlp_depth=3)


class TestOperators:
    def test_csr_arrays_match_dense_build(self):
        rng = np.random.default_rng(41)
        graphs = [from_edge_list(1, []), from_edge_list(4, []), path_graph(3),
                  complete_graph(5)]
        graphs += [erdos_renyi(int(rng.integers(2, 60)), float(rng.uniform(0.05, 0.6)),
                               int(rng.integers(1 << 30))) for _ in range(20)]
        for g in graphs:
            ops = GraphOperators([g])
            for loops, got in ((False, ops.adjacency), (True, ops.adjacency_with_loops)):
                dense = np.eye(g.n) if loops else np.zeros((g.n, g.n))
                for v in range(g.n):
                    dense[v, neighbours(g, v)] = 1.0
                want = sparse.csr_array(dense)
                for field in ("indptr", "indices", "data"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (g, loops, field)


class TestBuild:
    def test_gate_initialisation(self):
        m = build_model(spec_from_model_name("GCN-D2-1L"), 1, 4, seed=0)
        gates = [m.params[f"layer0.theta{i}"].item() for i in range(3)]
        assert gates == [0.0, 0.0, 0.0]  # mixing weights start at 0.5

    def test_init_bounds_and_determinism(self):
        spec = spec_from_model_name("GCN-2L")
        m1 = build_model(spec, 3, 16, seed=5)
        m2 = build_model(spec, 3, 16, seed=5)
        m3 = build_model(spec, 3, 16, seed=6)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])
        assert any(not np.array_equal(m1.params[k], m3.params[k])
                   for k in m1.params)
        w0 = m1.params["layer0.w0"]
        assert w0.shape == (3, 16)
        assert np.abs(w0).max() <= 1 / np.sqrt(3)

    def test_param_names_stable(self):
        m = build_model(spec_from_model_name("GCN-L1-1L"), 1, 2, seed=0)
        assert list(m.params) == [
            "layer0.theta0", "layer0.theta1",
            "layer0.w0", "layer0.b0", "layer0.w1", "layer0.b1",
            "head.w", "head.b",
        ]

    def test_hidden_capacity(self):
        spec = spec_from_model_name("GCN-1L")
        build_model(spec, input_dim=1, hidden_dim=MAX_HIDDEN_DIM, seed=0)
        with pytest.raises(CapacityError):
            build_model(spec, input_dim=1, hidden_dim=MAX_HIDDEN_DIM + 1, seed=0)

    def test_head_maps_last_width_to_output_dim(self):
        spec = ModelSpec((power(1),), mlp_depth=0, output_dim=2)
        m = build_model(spec, input_dim=3, hidden_dim=5, seed=0)
        assert m.params["head.w"].shape == (3, 2)
        assert m.params["head.b"].shape == (1, 2)


class TestForward:
    def test_k3_hand_value(self):
        # ones in, both gates at 1: row v gets (A+I) row sum + closed
        # 3-walks = 3 + 2 = 5
        m = identity_readout_model((self_loop_adjacency(), diag_power(3)))
        set_gates(m, 1.0, 1.0)
        out = forward(m, complete_graph(3), np.ones((3, 1)))
        assert out.tolist() == [[5.0], [5.0], [5.0]]

    def test_diag_route_recovers_closed_walks_exactly(self):
        m = identity_readout_model((self_loop_adjacency(), diag_power(3)))
        set_gates(m, 0.0, 1.0)
        for g in (complete_graph(4), cycle_graph(6), erdos_renyi(12, 0.4, 3)):
            out = forward(m, g, np.ones((g.n, 1)))
            assert out[:, 0].tolist() == diag_closed_walks(g, 3).astype(float).tolist()

    def test_power_term_applies_adjacency_twice(self):
        m = identity_readout_model((power(2),))
        set_gates(m, 1.0)
        g = path_graph(4)
        out = forward(m, g, np.ones((4, 1)))
        a = adjacency_csr(g).toarray()
        expected = a @ (a @ np.ones((4, 1)))
        assert np.array_equal(out, expected)

    def test_isolated_node_zero_params_zero_output(self):
        g = from_edge_list(1, [])
        spec = ModelSpec((self_loop_adjacency(),), mlp_depth=2)
        m = build_model(spec, 1, 4, seed=1)
        for k, p in m.params.items():
            if not k.endswith("theta0"):
                p[...] = 0.0
        out = forward(m, g, np.zeros((1, 1)))
        assert out.tolist() == [[0.0]]

    def test_degree_normalization(self):
        # star centre degree 3: normalised self-loop row = (deg+1)/(deg+1) = 1
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        m = identity_readout_model((self_loop_adjacency(),), degree_normalize=True)
        set_gates(m, 1.0)
        out = forward(m, star, np.ones((4, 1)))
        assert out.tolist() == [[1.0], [1.0], [1.0], [1.0]]

    def test_inference_is_deterministic(self):
        g = erdos_renyi(10, 0.3, 4)
        m = build_model(spec_from_model_name("GCN-D2-2L"), 1, 8, seed=2)
        x = np.ones((10, 1))
        a = forward(m, g, x)
        b = forward(m, g, x)
        assert np.array_equal(a, b)

    def test_training_mode_dropout_changes_values(self):
        g = erdos_renyi(10, 0.3, 4)
        m = build_model(spec_from_model_name("GCN-1L"), 1, 8, seed=2)
        x = np.ones((10, 1))
        rng = np.random.default_rng(0)
        a = forward(m, g, x, dropout_rate=0.5, rng=[rng])
        b = forward(m, g, x)
        assert not np.array_equal(a, b)
        with pytest.raises(InputError):
            forward(m, g, x, dropout_rate=0.5)  # rng required
        with pytest.raises(InputError, match="one rng per graph"):
            forward(m, g, x, dropout_rate=0.5, rng=[rng, rng])

    def test_sum_readout_permutation_invariant(self):
        rng = np.random.default_rng(9)
        g = erdos_renyi(12, 0.3, 21)
        m = build_model(spec_from_model_name("GCN-L1-2L"), 1, 8, seed=7)
        x = np.ones((12, 1))
        base = forward(m, g, x)
        for _ in range(5):
            perm = [int(i) for i in rng.permutation(12)]
            h = relabel(g, perm)
            out = forward(m, h, x)
            assert np.allclose(out, base, rtol=1e-10, atol=1e-10)

    def test_node_readout_permutation_equivariant(self):
        # output row of node v must follow v under relabelling
        rng = np.random.default_rng(10)
        g = erdos_renyi(9, 0.4, 33)
        spec = ModelSpec((self_loop_adjacency(), diag_power(3)), mlp_depth=1,
                         readout="node", output_dim=4)
        m = build_model(spec, 1, 4, seed=3)
        x = rng.normal(size=(9, 1))
        base = forward(m, g, x)
        for _ in range(5):
            perm = [int(i) for i in rng.permutation(9)]
            x_perm = np.empty_like(x)
            x_perm[perm] = x
            out = forward(m, relabel(g, perm), x_perm)
            assert np.allclose(out[perm], base, rtol=1e-10, atol=1e-12)

    def test_feature_shape_checked(self):
        m = build_model(spec_from_model_name("GCN-1L"), 2, 4, seed=0)
        with pytest.raises(InputError):
            forward(m, path_graph(3), np.ones((3, 1)))

    def test_nonfinite_detected(self):
        m = identity_readout_model((self_loop_adjacency(),))
        set_gates(m, 1.0)
        with pytest.raises(NumericError):
            forward(m, path_graph(2), np.array([[np.inf], [1.0]]))


class TestWeightNames:
    def test_linear_weights_only(self):
        def decayed(m):
            # names of the parameters the mask marks, each wholly or not at all
            names, start = [], 0
            for k, p in m.params.items():
                block = m.decay[start:start + p.size]
                assert block.all() or not block.any(), k
                names += [k] if block.any() else []
                start += p.size
            assert start == m.decay.size
            return names

        m = build_model(spec_from_model_name("GCN-D2-2L"), 1, 8, seed=0)
        assert decayed(m) == ["layer0.w0", "layer0.w1", "layer1.w0", "layer1.w1", "head.w"]
        spec = ModelSpec((self_loop_adjacency(),), mlp_depth=1, output_dim=4)
        assert decayed(build_model(spec, 1, 4, seed=0)) == ["layer0.w0", "head.w"]


class TestFlatLayout:
    def test_params_are_views_that_tile_flat(self):
        m = build_model(spec_from_model_name("GCN-L1-2L"), 2, 4, seed=3)
        assert m.flat.dtype == np.float64 and m.flat.ndim == 1
        assert all(np.shares_memory(p, m.flat) for p in m.params.values())
        assert np.array_equal(np.concatenate([p.ravel() for p in m.params.values()]), m.flat)

    def test_rebinding_raises_and_writes_reach_flat_and_forward(self):
        g = erdos_renyi(8, 0.4, 2)
        m = build_model(spec_from_model_name("GCN-1L"), 1, 4, seed=0)
        with pytest.raises(TypeError):
            m.params["head.b"] = np.zeros((1, 1))
        x = np.ones((8, 1))
        before = forward(m, g, x)
        last = m.flat[-1]
        m.params["head.b"][0, 0] += 1.0
        assert m.flat[-1] == last + 1.0
        assert np.allclose(forward(m, g, x), before + 1.0, rtol=0, atol=1e-12)


# families x layers x mlp_depth x degree normalisation x readout
STACK_GRID = list(itertools.product(sorted(FAMILIES), (1, 2, 3), (0, 1, 2), (False, True),
                                    ("sum", "node")))


class TestStackedForward:
    @pytest.mark.parametrize("case", range(len(STACK_GRID)), ids=[
        f"{family or 'plain'}-{layers}L-mlp{depth}-norm{int(norm)}-{readout}"
        for family, layers, depth, norm, readout in STACK_GRID])
    def test_stack_equals_each_graph_pass(self, case):
        # every graph's slice of a stacked pass equals its own pass bit for
        # bit, for stacks of two node counts and with or without the
        # layer-0 terms handed in
        family, layers, depth, normalize, readout = STACK_GRID[case]
        rng = np.random.default_rng(case)
        spec = ModelSpec(FAMILIES[family], layers, depth, normalize, readout, output_dim=2)
        model = build_model(spec, input_dim=3, hidden_dim=5, seed=case)
        for n, count in ((int(rng.integers(4, 9)), 3), (int(rng.integers(9, 14)), 2)):
            graphs = [erdos_renyi(n, 0.4, int(rng.integers(1 << 30))) for _ in range(count)]
            xs = rng.normal(size=(count, n, 3))
            alone = [forward(model, g, x) for g, x in zip(graphs, xs)]
            stack = GraphOperators(graphs)
            layer0 = [np.stack([apply_term(t, GraphOperators([g]), x) for g, x in zip(graphs, xs)])
                      for t in spec.terms]
            for out in (forward(model, stack, xs), forward(model, stack, xs, layer0=layer0)):
                assert out.shape == (count, *alone[0].shape)
                for got, want in zip(out, alone):
                    assert np.array_equal(got, want)

    def test_stack_of_one_node_count_only(self):
        with pytest.raises(InputError, match="one node count"):
            GraphOperators([path_graph(3), path_graph(4)])
        with pytest.raises(InputError):
            GraphOperators([])

    def test_stack_features_checked(self):
        m = build_model(spec_from_model_name("GCN-1L"), 1, 4, seed=0)
        stack = GraphOperators([path_graph(3)] * 2)
        with pytest.raises(InputError, match=r"\(2, 3, 1\)"):
            forward(m, stack, np.ones((3, 1)))
        with pytest.raises(InputError):
            forward(m, stack, np.ones((3, 3, 1)))

    def test_block_diagonal_matrices_hold_each_graph(self):
        graphs = [erdos_renyi(7, 0.5, s) for s in range(4)]
        stack = GraphOperators(graphs)
        for name in ("adjacency", "adjacency_with_loops"):
            want = sparse.block_diag([getattr(GraphOperators([g]), name) for g in graphs])
            assert np.array_equal(getattr(stack, name).toarray(), want.toarray())

    def test_stack_vectors_concatenate_each_graphs_own(self):
        # the degree scaling and the closed-walk diagonals of a stack are
        # each graph's own laid one after another, with each graph's
        # diagonals handed in or counted per graph
        graphs = [erdos_renyi(7, 0.5, s) for s in range(4)] + [from_edge_list(7, [])]
        own = [GraphOperators([g]) for g in graphs]
        assert np.array_equal(GraphOperators(graphs).inv_degree_plus_one,
                              np.concatenate([o.inv_degree_plus_one for o in own]))
        given = [{3: o.closed_walk_diag(3)} for o in own]
        for stack in (GraphOperators(graphs), GraphOperators(graphs, given)):
            for m in (3, 5):
                assert np.array_equal(stack.closed_walk_diag(m),
                                      np.concatenate([o.closed_walk_diag(m) for o in own]))
        # a handed-in diagonal is taken as it is, not counted again
        marked = [{3: np.full(7, float(f))} for f in range(len(graphs))]
        assert GraphOperators(graphs, marked).closed_walk_diag(3).tolist() == \
            [float(f) for f in range(len(graphs)) for _ in range(7)]
        with pytest.raises(ValueError):
            GraphOperators(graphs, marked[:4]).closed_walk_diag(3)

    def test_gathered_stack_equals_a_stack_of_its_graphs(self):
        # rows of two stacks, out of order and repeated, an edgeless graph
        # among them: every operator equals that of a stack built from the
        # same graphs, bit for bit
        first = [erdos_renyi(7, 0.5, s) for s in range(4)] + [from_edge_list(7, [])]
        second = [erdos_renyi(7, 0.3, s) for s in range(10, 13)]
        sources = [GraphOperators(first), GraphOperators(second)]
        parts = [(sources[0], np.array([3, 0, 4, 3])), (sources[1], np.array([2, 0])),
                 (sources[0], np.array([1]))]
        gathered = GraphOperators.gather(parts)
        built = GraphOperators([first[3], first[0], first[4], first[3], second[2], second[0],
                                first[1]])
        assert gathered.shape == built.shape == (7, 7)
        for name in ("adjacency", "adjacency_with_loops"):
            got, want = getattr(gathered, name), getattr(built, name)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), (name, attr)
        assert np.array_equal(gathered.inv_degree_plus_one, built.inv_degree_plus_one)
        for m in (3, 5):
            assert np.array_equal(gathered.closed_walk_diag(m), built.closed_walk_diag(m))

    @pytest.mark.parametrize("case", range(len(STACK_GRID)), ids=[
        f"{family or 'plain'}-{layers}L-mlp{depth}-norm{int(norm)}-{readout}"
        for family, layers, depth, norm, readout in STACK_GRID])
    def test_model_stack_backward_equals_each_model(self, case):
        # a stack of four models on four graphs, dropout on: every row of
        # the output and of each gradient equals that model's own
        # single-graph pass bit for bit
        family, layers, depth, normalize, readout = STACK_GRID[case]
        rng = np.random.default_rng(case)
        spec = ModelSpec(FAMILIES[family], layers, depth, normalize, readout, output_dim=2)
        models = [build_model(spec, input_dim=3, hidden_dim=5, seed=4 * case + f)
                  for f in range(4)]
        stack = models[0].with_flat(np.stack([m.flat for m in models]))
        n = int(rng.integers(4, 12))
        graphs = [erdos_renyi(n, 0.4, int(rng.integers(1 << 30))) for _ in models]
        xs = rng.normal(size=(4, n, 3))
        d_out = rng.normal(size=(4, 1 if readout == "sum" else n, 2))
        saved = {}
        out = forward(stack, GraphOperators(graphs), xs, dropout_rate=0.3, saved=saved,
                      rng=[np.random.default_rng(f) for f in range(4)])
        grads = backward(stack, saved, d_out)
        for f, model in enumerate(models):
            alone = {}
            want = forward(model, graphs[f], xs[f], dropout_rate=0.3,
                           rng=[np.random.default_rng(f)], saved=alone)
            assert np.array_equal(out[f], want)
            for key, grad in backward(model, alone, d_out[f]).items():
                assert np.array_equal(grads[key][f], grad), key

    def test_a_model_stack_runs_one_graph_per_model(self):
        m = build_model(spec_from_model_name("GCN-1L"), 1, 4, seed=0)
        stack = m.with_flat(np.stack([m.flat, m.flat]))
        assert stack.params["layer0.w0"].shape == (2, 1, 4)
        assert all(np.shares_memory(p, stack.flat) for p in stack.params.values())
        three = GraphOperators([path_graph(3)] * 3)
        with pytest.raises(InputError, match="one graph each"):
            forward(stack, three, np.ones((3, 3, 1)))
        with pytest.raises(InputError, match="one graph each"):
            forward(stack, GraphOperators([path_graph(3)]), np.ones((3, 1)))
        # one model's gradient over several graphs is not defined
        saved = {}
        out = forward(m, three, np.ones((3, 3, 1)), saved=saved)
        with pytest.raises(InputError, match="one graph per model"):
            backward(m, saved, np.ones_like(out))
        with pytest.raises(InputError):
            m.with_flat(np.zeros(m.flat.size + 1))


class TestGradientViews:
    def test_backward_fills_every_coordinate_of_the_given_vector(self):
        g = erdos_renyi(9, 0.4, 5)
        m = build_model(spec_from_model_name("GCN-D2-2L"), 1, 4, seed=1)
        saved = {}
        pred = forward(m, g, np.ones((9, 1)), saved=saved)
        fresh = backward(m, saved, np.ones_like(pred))
        vec = np.full_like(m.flat, np.nan)
        views = m.unflatten(vec)
        assert backward(m, saved, np.ones_like(pred), views) is views
        assert np.isfinite(vec).all()
        assert all(np.array_equal(views[k], fresh[k]) for k in m.params)
        assert all(np.shares_memory(v, vec) for v in views.values())

    def test_gate_index_names_the_gate_coordinates(self):
        m = build_model(spec_from_model_name("GCN-L1-3L"), 1, 4, seed=0)
        for i, keys in enumerate(m.gate_keys):
            for key in keys:
                m.params[key][...] = i + 1.0
        assert m.flat[m.gate_index].tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert m.map_keys[2] == (("layer2.w0", "layer2.b0"), ("layer2.w1", "layer2.b1"))
