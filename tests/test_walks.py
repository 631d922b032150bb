import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import walks
from walklab.errors import (CapacityError, CountOverflowError, InputError,
                            InvariantViolation)
from walklab.graphs import (RUN_SIZE, cycle_graph, degrees, disjoint_union, erdos_renyi,
                            from_edge_list)
from walklab.walks import (adjacency_csr, diag_closed_walks, four_cycle_count,
                           triangle_counts_per_node, triangle_total)

from oracles import (complete_graph, count_simple_cycles_brute, count_walks_recursive,
                     four_cycles_by_codegree, path_graph, relabel, triangles_at_node_brute,
                     triangles_per_node_by_intersection)


def sparse_er(n, avg_degree, seed):
    """G(n, p) with p = avg_degree / (n - 1), sampled in O(edges) memory."""
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(n * (n - 1) // 2, avg_degree / (n - 1)))
    pairs = set()
    while len(pairs) < m:
        u, v = rng.integers(0, n, size=2).tolist()
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return from_edge_list(n, pairs)


class TestClosedWalks:
    def test_k3_and_k4_diagonals(self):
        assert diag_closed_walks(complete_graph(3), 3).tolist() == [2, 2, 2]
        assert diag_closed_walks(complete_graph(4), 3).tolist() == [6, 6, 6, 6]

    def test_path3_diagonals(self):
        assert diag_closed_walks(path_graph(3), 1).tolist() == [0, 0, 0]
        assert diag_closed_walks(path_graph(3), 2).tolist() == [1, 2, 1]
        assert diag_closed_walks(path_graph(3), 4).tolist() == [2, 4, 2]

    def test_closed_one_walks_build_no_scipy_object(self):
        # a graph has no self-loop, so no closed 1-walk: int64 zeros, read
        # without scipy (whose sparse.eye_array is newer than the oldest
        # scipy the package supports)
        code = ("import sys; from walklab.graphs import from_edge_list; "
                "from walklab.walks import diag_closed_walks; "
                "d = diag_closed_walks(from_edge_list(3, [(0, 1), (1, 2)]), 1); "
                "print(d.dtype, d.tolist(), 'scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["int64", "[0,", "0,", "0]", "False"]

    def test_agrees_with_materialised_power(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(2, 12))
            g = erdos_renyi(n, float(rng.uniform(0.1, 0.8)), int(rng.integers(1 << 30)))
            m = int(rng.integers(1, 8))
            a = adjacency_csr(g).toarray()
            assert np.array_equal(diag_closed_walks(g, m),
                                  np.diagonal(np.linalg.matrix_power(a, m)))

    def test_entries_count_closed_walks(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            g = erdos_renyi(7, 0.5, int(rng.integers(1 << 30)))
            for m in (1, 2, 3, 4, 5):
                assert diag_closed_walks(g, m).tolist() == [
                    count_walks_recursive(g, v, v, m) for v in range(g.n)]

    def test_complete_graph_closed_form(self):
        # Closed m-walks at a node of K_k: ((k-1)^m + (k-1)(-1)^m) / k.
        for k, m in ((3, 7), (5, 12), (10, 18)):
            want = ((k - 1) ** m + (k - 1) * (-1) ** m) // k
            assert diag_closed_walks(complete_graph(k), m).tolist() == [want] * k

    def test_overflow_detected(self):
        # 9^25 / 10 closed 25-walks per node of K_10 do not fit in int64.
        with pytest.raises(CountOverflowError):
            diag_closed_walks(complete_graph(10), 25)

    def test_walk_length_validation(self):
        with pytest.raises(InputError):
            diag_closed_walks(path_graph(3), 0)

    def test_triangle_free_zero(self):
        assert diag_closed_walks(cycle_graph(6), 3).tolist() == [0] * 6
        assert diag_closed_walks(path_graph(5), 3).tolist() == [0] * 5

    def test_per_node_triangles(self):
        assert triangle_counts_per_node(complete_graph(4)).tolist() == [3, 3, 3, 3]
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(3, 16))
            g = erdos_renyi(n, float(rng.uniform(0.2, 0.7)), int(rng.integers(1 << 30)))
            per = triangle_counts_per_node(g)
            assert per.tolist() == [triangles_at_node_brute(g, v) for v in range(n)]
            # closed 3-walk identity: diagonal is exactly twice the count
            assert np.array_equal(diag_closed_walks(g, 3), 2 * per)

    def test_totals(self):
        assert triangle_total(complete_graph(4)) == 4
        assert triangle_total(cycle_graph(6)) == 0
        assert triangle_total(disjoint_union(complete_graph(3), complete_graph(3))) == 2


def _dense_closed_three_walks(g):
    # product-independent oracle: the diagonal of the dense A @ A @ A
    a = adjacency_csr(g).toarray()
    return np.diag(a @ a @ a)


def _on_each_path():
    """Yield twice: with every count on the sorted wedge keys, then on a
    dense float32 square whatever the graph."""
    for path, factor in (("sparse", 0), ("dense", 10**12)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "_BLAS_PER_WEDGE", factor)
            yield path


def _assert_triangle_count_matches(g):
    # diag(A^3) is read from the co-degrees of the edges, or from A * A^2
    for _ in _on_each_path():
        got = diag_closed_walks(g, 3)
        assert got.dtype == np.int64
        assert got.tolist() == [2 * t for t in triangles_per_node_by_intersection(g)]
        assert np.array_equal(got, _dense_closed_three_walks(g))
        assert np.array_equal(triangle_counts_per_node(g), got // 2)


def _star_at(n, centre):
    return from_edge_list(n, [(centre, v) for v in range(n) if v != centre])


def _complete_bipartite(a, b):
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


class TestTrianglesFromCodegrees:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_graphs(self, n, p, seed):
        _assert_triangle_count_matches(erdos_renyi(n, p, seed))

    @pytest.mark.parametrize("g", [
        complete_graph(1), complete_graph(2), complete_graph(7), from_edge_list(6, []),
        _star_at(9, 0), _star_at(9, 4), _star_at(9, 8), path_graph(5),
        disjoint_union(complete_graph(4), cycle_graph(5)),
        disjoint_union(from_edge_list(2, []), complete_graph(3), from_edge_list(1, [])),
        from_edge_list(7, [(1, 3), (3, 5), (1, 5), (5, 6)]),
    ], ids=["one-node", "K2", "K7", "edgeless", "star-first", "star-middle", "star-last",
            "path", "two-components", "isolated-nodes", "isolated-and-pendant"])
    def test_named_graphs(self, g):
        _assert_triangle_count_matches(g)


class TestCycleCounts:
    def test_known_four_cycles(self):
        assert four_cycle_count(cycle_graph(4)) == 1
        assert four_cycle_count(complete_graph(4)) == 3
        assert four_cycle_count(complete_graph(5)) == 15  # C(5,4) * 3
        assert four_cycle_count(cycle_graph(6)) == 0
        assert four_cycle_count(path_graph(4)) == 0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            n = int(rng.integers(4, 14))
            g = erdos_renyi(n, float(rng.uniform(0.2, 0.6)), int(rng.integers(1 << 30)))
            assert four_cycle_count(g) == count_simple_cycles_brute(g, 4)
            assert triangle_total(g) == count_simple_cycles_brute(g, 3)

    def test_counts_are_isomorphism_invariant(self):
        rng = np.random.default_rng(37)
        for trial in range(20):
            g = erdos_renyi(10, 0.4, int(rng.integers(1 << 30)))
            h = relabel(g, [int(x) for x in rng.permutation(10)])
            assert triangle_total(g) == triangle_total(h)
            assert four_cycle_count(g) == four_cycle_count(h)
            assert sorted(triangle_counts_per_node(g)) == sorted(triangle_counts_per_node(h))

    def test_brute_pentagon(self):
        assert count_simple_cycles_brute(cycle_graph(5), 5) == 1
        assert count_simple_cycles_brute(complete_graph(5), 5) == 12  # (5-1)!/2

    def test_brute_guards(self):
        with pytest.raises(InputError):
            count_simple_cycles_brute(path_graph(3), 6)
        with pytest.raises(CapacityError):
            count_simple_cycles_brute(erdos_renyi(70, 0.1, 1), 4)

    def test_single_node_and_empty(self):
        from walklab.graphs import from_edge_list
        g1 = from_edge_list(1, [])
        assert triangle_total(g1) == 0
        assert four_cycle_count(g1) == 0
        g5 = from_edge_list(5, [])
        assert diag_closed_walks(g5, 3).tolist() == [0] * 5


class TestLargeSparseGraphs:
    @pytest.mark.parametrize("n, seed", [(100, 1), (1000, 2), (10_000, 3)])
    def test_counts_match_oracles(self, n, seed):
        g = sparse_er(n, 10, seed)
        per = triangles_per_node_by_intersection(g)
        assert triangle_counts_per_node(g).tolist() == per
        assert triangle_total(g) == sum(per) // 3
        assert four_cycle_count(g) == four_cycles_by_codegree(g)

    def test_product_work_guard(self, monkeypatch):
        g = sparse_er(200, 10, 4)
        work = sum(d * d for d in degrees(g))
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", work)
        four_cycle_count(g)
        assert triangle_counts_per_node(g).tolist() == triangles_per_node_by_intersection(g)
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", work - 1)
        with pytest.raises(CapacityError):
            four_cycle_count(g)
        with pytest.raises(CapacityError, match=f"needs {work} multiply-adds"):
            triangle_counts_per_node(g)


class TestInvariants:
    def test_odd_closed_three_walks(self, monkeypatch):
        monkeypatch.setattr(walks, "diag_closed_walks",
                            lambda g, m: np.array([1, 2, 2], dtype=np.int64))
        with pytest.raises(InvariantViolation):
            triangle_counts_per_node(path_graph(3))

    def test_four_cycle_remainder_not_a_multiple_of_eight(self, monkeypatch):
        # C4's wedge keys are 2, 2, 7, 7: two pairs of wedges on one key, one
        # 4-cycle; with a key lost, one pair is left, half a 4-cycle
        monkeypatch.setattr(walks, "_BLAS_PER_WEDGE", 0)
        monkeypatch.setattr(walks, "_sorted_wedges", lambda indptr, indices: np.array([2, 2, 7, 9]))
        with pytest.raises(InvariantViolation, match="remainder 4 is not a nonnegative multiple"):
            four_cycle_count(cycle_graph(4))

    def test_four_cycle_remainder_negative_on_a_dense_square(self, monkeypatch):
        # a square 2 * I makes trace(A^4) 16 where C4's 8 walks along its
        # edges and 16 over its 2-paths already need 24
        a = adjacency_csr(cycle_graph(4)).toarray().astype(np.float32)
        monkeypatch.setattr(walks, "_dense_square",
                            lambda indptr, indices: (a, 2 * np.eye(4, dtype=np.float32)))
        with pytest.raises(InvariantViolation, match="remainder -8 is not a nonnegative multiple"):
            four_cycle_count(cycle_graph(4))

    def test_triangle_total_not_divisible_by_three(self):
        with pytest.raises(InvariantViolation):
            triangle_total(path_graph(3), np.array([1, 0, 0]))


class TestSampledMoments:
    def test_er_mean_triangles_and_four_cycles(self):
        # ER(50, 0.1): E[triangles] = C(50,3)/1000 = 19.6,
        # E[4-cycles] = 3 C(50,4) 1e-4 = 69.09; 150-seed means land close.
        tri = []
        fc = []
        for s in range(150):
            g = erdos_renyi(50, 0.1, 5000 + s)
            tri.append(triangle_total(g))
            fc.append(four_cycle_count(g))
        assert abs(float(np.mean(tri)) - 19.6) < 2.5
        assert abs(float(np.mean(fc)) - 69.1) < 12.0


def _mixed_batch():
    """Graphs of mixed node counts: single nodes, edgeless graphs, graphs
    with isolated nodes, a triangle-rich one and a sparse random one."""
    return [from_edge_list(1, []), complete_graph(4), from_edge_list(5, []),
            from_edge_list(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
            erdos_renyi(12, 0.4, 3), from_edge_list(2, [(0, 1)]), complete_graph(6),
            sparse_er(30, 4, 8)]


class TestBatches:
    def test_batch_matches_oracles_and_batches_of_one(self):
        batch = _mixed_batch()
        per_node = [triangles_per_node_by_intersection(g) for g in batch]
        assert walks.closed_three_walks(batch).tolist() == [2 * t for ts in per_node for t in ts]
        assert walks.triangles_per_node(batch).tolist() == [t for ts in per_node for t in ts]
        assert walks.triangle_totals(batch) == [sum(ts) // 3 for ts in per_node]
        assert walks.four_cycle_counts(batch) == [four_cycles_by_codegree(g) for g in batch]
        for g in batch:
            assert walks.triangle_totals([g]) == [triangle_total(g)]
            assert walks.four_cycle_counts([g]) == [four_cycle_count(g)]
            assert np.array_equal(diag_closed_walks(g, 3), _dense_closed_three_walks(g))

    def test_empty_batch(self):
        assert walks.closed_three_walks([]).tolist() == []
        assert walks.triangles_per_node([]).tolist() == []
        assert walks.triangle_totals([]) == []
        assert walks.four_cycle_counts([]) == []
        per_node, four_cycles = walks.cycle_counts([])
        assert (per_node.tolist(), four_cycles) == ([], [])

    def test_runs_split_a_batch_past_the_work_limit(self, monkeypatch):
        # each K6 has sum_v d_v^2 = 150: together they pass a limit of 400,
        # each alone stays under it, so the batch is counted in runs
        batch = [complete_graph(6), cycle_graph(5), complete_graph(6), complete_graph(6)]
        want = ([20, 0, 20, 20], [45, 0, 45, 45])
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 400)
        assert len(list(walks._runs(batch))) == 2
        assert (walks.triangle_totals(batch), walks.four_cycle_counts(batch)) == want
        monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", 149)
        for count in (walks.triangle_totals, walks.four_cycle_counts):
            with pytest.raises(CapacityError, match="needs 150 multiply-adds"):
                count(batch)
            with pytest.raises(CapacityError, match="needs 150 multiply-adds"):
                count([complete_graph(6)])


def _assert_wedge_counts_match(g):
    want = triangles_per_node_by_intersection(g), [four_cycles_by_codegree(g)]
    for _ in _on_each_path():
        per_node = triangle_counts_per_node(g)
        assert per_node.dtype == np.int64
        assert per_node.tolist() == want[0]
        four_cycles = four_cycle_count(g)
        assert [four_cycles] == want[1]
        per_node, four_cycles = walks.cycle_counts([g])
        assert per_node.dtype == np.int64
        assert (per_node.tolist(), four_cycles) == want
        if g.n <= 16:
            assert four_cycles == [count_simple_cycles_brute(g, 4)]


class TestWedgePass:
    """4-cycles from one sort of each run's wedge keys, or from a dense
    square where BLAS is faster, and triangles beside them."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_graphs(self, n, p, seed):
        _assert_wedge_counts_match(erdos_renyi(n, p, seed))

    @pytest.mark.parametrize("g", [
        complete_graph(1), complete_graph(2), complete_graph(5), complete_graph(12),
        complete_graph(30), from_edge_list(6, []), _star_at(9, 0), _star_at(9, 4),
        _star_at(40, 39), _star_at(700, 350), _complete_bipartite(2, 300),
        _complete_bipartite(4, 90), cycle_graph(4), path_graph(5),
        disjoint_union(from_edge_list(3, []), erdos_renyi(14, 0.4, 5), from_edge_list(1, [])),
        disjoint_union(erdos_renyi(30, 0.15, 9), from_edge_list(4, [])),
        sparse_er(2000, 6, 11),
    ], ids=["one-node", "K2", "K5", "K12", "K30", "edgeless", "star-first", "star-middle",
            "star-last", "star-700", "K2,300", "K4,90", "C4", "path", "isolated-nodes",
            "sparse-and-isolated", "sparse-2000"])
    def test_named_graphs(self, g):
        _assert_wedge_counts_match(g)

    def test_complete_and_edgeless_graphs(self):
        # K_n: C(n - 1, 2) triangles at each node and 3 * C(n, 4) 4-cycles
        for _ in _on_each_path():
            for n in range(1, 31):
                per_node, four_cycles = walks.cycle_counts([complete_graph(n)])
                assert per_node.tolist() == [(n - 1) * (n - 2) // 2] * n
                assert four_cycles == [n * (n - 1) * (n - 2) * (n - 3) // 8]
                per_node, four_cycles = walks.cycle_counts([from_edge_list(n, [])])
                assert (per_node.tolist(), four_cycles) == ([0] * n, [0])

    def test_batch_over_several_runs_matches_each_graph_alone(self):
        rng = np.random.default_rng(43)
        batch = [erdos_renyi(int(rng.integers(1, 60)), float(rng.uniform(0.0, 0.5)),
                             int(rng.integers(1 << 30))) for _ in range(500)]
        batch += [complete_graph(1), from_edge_list(7, []), complete_graph(20)]
        runs = list(walks._runs(batch))
        assert len(runs) >= 3 and all(indptr.size - 1 <= RUN_SIZE for indptr, _, _ in runs)
        want = [four_cycles_by_codegree(g) for g in batch]
        want_per_node = [t for g in batch for t in triangles_per_node_by_intersection(g)]
        for _ in _on_each_path():
            four_cycles = walks.four_cycle_counts(batch)
            assert four_cycles == [four_cycle_count(g) for g in batch] == want
            assert walks.triangles_per_node(batch).tolist() == [
                t for g in batch for t in triangle_counts_per_node(g).tolist()] == want_per_node
            per_node, four_cycles = walks.cycle_counts(batch)
            assert (per_node.tolist(), four_cycles) == (want_per_node, want)
            alone = [walks.cycle_counts([g]) for g in batch]
            assert [t for ts, _ in alone for t in ts.tolist()] == want_per_node
            assert [c for _, (c,) in alone] == want

    def test_work_limit(self, monkeypatch):
        # a graph exactly at MAX_PRODUCT_WORK is counted, one past it refused
        g = sparse_er(300, 8, 5)
        work = sum(d * d for d in degrees(g))
        for _ in _on_each_path():
            monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", work)
            assert walks.four_cycle_counts([g]) == [four_cycles_by_codegree(g)]
            monkeypatch.setattr(walks, "MAX_PRODUCT_WORK", work - 1)
            for count in (walks.four_cycle_counts, walks.triangles_per_node):
                with pytest.raises(CapacityError, match=f"needs {work} multiply-adds"):
                    count([g])

    def test_the_faster_path_is_chosen(self):
        # perfbench's count-large graphs stay on the sparse passes; a dense
        # graph, where the wedges outnumber the pairs, forms the square
        g = sparse_er(300, 10, 1)
        assert walks._dense_square(g.indptr, g.indices) is None
        k30 = complete_graph(30)
        a, a2 = walks._dense_square(k30.indptr, k30.indices)
        assert a2.dtype == np.float32 and (a2 == 28 + np.eye(30, dtype=np.float32)).all()
