import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from walklab import graphs
from walklab.errors import CapacityError, InputError
from walklab.graphs import (MAX_ER_NODES, Graph, RegionSpec, atomic_write_text,
                            bfs_distances, concat_csr, cycle_graph, degrees,
                            disjoint_union, edge_arrays, erdos_renyi, erdos_renyi_graphs,
                            extract_region, from_edge_list, from_edge_lists, parse_edge_list,
                            read_edge_list)

from oracles import (complete_graph, format_edge_list, neighbours, path_graph, region_by_walk_dp,
                     region_by_walk_enumeration, relabel, write_edge_list)


class TestConstruction:
    def test_path3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count == 2
        assert g.indptr.tolist() == [0, 1, 3, 4]
        assert g.indices.tolist() == [1, 0, 2, 1]

    def test_duplicates_and_loops_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
        assert g.edge_count == 1
        assert [neighbours(g, v) for v in range(g.n)] == [[1], [0], []]
        edges = g.edges()
        assert all(type(x) is int for e in edges for x in e)
        assert repr(edges) == "[(0, 1)]"

    def test_build_matches_set_reference(self):
        # the loop the vectorised build replaced: a set of canonical pairs
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            pairs = [tuple(int(x) for x in rng.integers(0, n, size=2))
                     for _ in range(int(rng.integers(0, 3 * n)))]
            canonical = {(min(p), max(p)) for p in pairs if p[0] != p[1]}
            nbrs = [set() for _ in range(n)]
            for u, v in canonical:
                nbrs[u].add(v)
                nbrs[v].add(u)
            g = from_edge_list(n, pairs)
            assert [neighbours(g, v) for v in range(g.n)] == [sorted(a) for a in nbrs]
            assert g.edge_count == len(canonical)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            from_edge_list(2, [(0, 5)])
        with pytest.raises(InputError):
            from_edge_list(0, [])

    @pytest.mark.parametrize("edges, message", [
        ([(True, 2)], "needs two integer node ids"),
        ([(0, np.False_)], "needs two integer node ids"),
        ([(1.0, 2)], "needs two integer node ids"),
        ([(0, "1")], "needs two integer node ids"),
        ([[0]], "is not a (u, v) pair"),
        ([(0, 1, 2)], "is not a (u, v) pair"),
        ([None], "is not a (u, v) pair"),
    ])
    def test_malformed_pairs_rejected(self, edges, message):
        with pytest.raises(InputError, match=re.escape(message)):
            from_edge_list(3, edges)

    def test_node_count_must_be_an_int(self):
        for n in (3.0, True, "3"):
            with pytest.raises(InputError, match="node count must be an integer"):
                from_edge_list(n, [])

    def test_node_limit(self, monkeypatch):
        def never_read():
            raise AssertionError("edges read before the node count was checked")
            yield

        with pytest.raises(CapacityError, match=f"n <= {graphs.MAX_NODES}"):
            from_edge_list(10**10, never_read())
        monkeypatch.setattr(graphs, "MAX_NODES", 5)
        assert from_edge_list(5, [(0, 4)]).n == 5
        with pytest.raises(CapacityError):
            from_edge_list(6, never_read())

    def test_numpy_integer_ids_accepted(self):
        g = from_edge_list(np.int64(3), [(np.int64(0), np.int32(2)), (1, np.uint8(2))])
        assert g == from_edge_list(3, [(0, 2), (1, 2)])

    @pytest.mark.parametrize("n, indptr, indices, message", [
        (2, [0, 1, 1], [1], "edge (0, 1) is not symmetric"),
        (3, [0, 0, 1, 1], [2], "edge (1, 2) is not symmetric"),
        (2, [0, 2, 3], [1, 1, 0], "neighbour list of 0 is not sorted"),
        (3, [0, 2, 3, 4], [2, 1, 0, 0], "neighbour list of 0 is not sorted"),
        (2, [0, 1, 2], [5, 0], "node id 5 out of range"),
        (2, [0, 1, 1], [-1], "node id -1 out of range"),
        (2, [0, 1, 1], [0], "self-loop at node 0"),
        (2, [0, 1, 3], [1, 0], "edge_count does not match"),
        (2, [0, 1, 2], [1.5, 0], "node ids must be integers"),
        (2, [0, 2], [1, 0], "indptr needs n + 1 = 3 entries"),
        (2, [0, 1, 2, 2], [1, 0], "indptr needs n + 1 = 3 entries"),
        (2, [0, 1, 2], [[1], [0]], "indices one axis"),
        (2, [1, 1, 2], [1, 0], "indptr must start at 0, got 1"),
        (3, [0, 2, 1, 2], [1, 0], "indptr decreases after node 1"),
        (2, [0, 1, 1], [1, 0], "indptr ends at 1, not at indices.size = 2"),
        (2, [0.0, 1.0, 2.0], [1, 0], "indptr must be integers, got dtype float64"),
        (2, [0, 1, 2], [True, False], "node ids must be integers, got dtype bool"),
    ])
    def test_each_fault_is_named(self, n, indptr, indices, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Graph(n=n, indptr=np.array(indptr), indices=np.array(indices))

    def test_direct_construction_validated(self):
        with pytest.raises(InputError):
            Graph(n=2, indptr=np.array([0, 1, 1]), indices=np.array([1]))  # asymmetric
        g = Graph(n=2, indptr=np.array([0, 1, 2], dtype=np.uint8), indices=[1, 0])
        assert g == path_graph(2)

    def test_arrays_are_read_only(self):
        g = path_graph(3)
        for arr in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert g == path_graph(3)

    def test_graph_is_hashable_value_type(self):
        assert path_graph(4) == path_graph(4)
        assert path_graph(4) != cycle_graph(4)
        assert path_graph(4) != path_graph(5)
        with pytest.raises(TypeError):
            hash(path_graph(4))

    def test_disjoint_union_of_several_graphs(self):
        parts = [cycle_graph(3), complete_graph(1), from_edge_list(3, []), path_graph(4)]
        g = disjoint_union(*parts)
        assert g == from_edge_list(11, [(0, 1), (1, 2), (0, 2), (7, 8), (8, 9), (9, 10)])
        assert g.indptr.dtype == g.indices.dtype == np.int32
        assert disjoint_union(*parts[:2], disjoint_union(*parts[2:])) == g
        assert disjoint_union(path_graph(2)) == path_graph(2)
        # the union's arrays are those of concat_csr, which the stacked
        # model operators share
        assert Graph(11, *concat_csr(parts)) == g
        with pytest.raises(CapacityError):
            disjoint_union(from_edge_list(graphs.MAX_NODES, []), complete_graph(1))

    def test_relabel_preserves_structure(self):
        g = cycle_graph(5)
        h = relabel(g, [2, 0, 4, 1, 3])
        assert h.edge_count == g.edge_count
        assert sorted(degrees(h)) == sorted(degrees(g))


# specs that from_edge_list refuses, each with the message it raises alone
BAD_SPECS = [
    ((3, [(0, 3)]), InputError, "edge (0, 3) out of range for n=3"),
    ((3, [[0, -1]]), InputError, "edge (0, -1) out of range for n=3"),
    ((3, [(0, True)]), InputError, "needs two integer node ids"),
    ((3, [[0, 1.0]]), InputError, "needs two integer node ids"),
    ((3, [[0, 2**70]]), InputError, f"edge (0, {2**70}) out of range"),
    ((3, [[0, 1, 2]]), InputError, "is not a (u, v) pair"),
    ((3.0, []), InputError, "node count must be an integer"),
    ((0, []), InputError, "graph needs at least one node"),
    ((10**10, []), CapacityError, "graphs support n <= "),
]


class TestBatchBuild:
    def test_batch_matches_graphs_built_alone(self):
        specs = [(1, []), (4, [(0, 1), (1, 0), (2, 2)]), (6, []), (5, [[4, 0], [0, 4], [1, 3]]),
                 (3, ((0, 1), (1, 2))), (np.int64(4), [(np.int64(3), 1)]), (2, iter([(1, 0)]))]
        alone = [from_edge_list(n, list(edges) if not isinstance(edges, list) else edges)
                 for n, edges in specs[:-1]] + [from_edge_list(2, [(1, 0)])]
        batch = from_edge_lists(specs)
        assert batch == alone
        assert [g.indptr.dtype for g in batch] == [np.int32] * len(specs)
        runs = list(edge_arrays(batch))
        assert [g for run, _ in runs for g in run] == alone
        assert np.concatenate([pairs for _, pairs in runs]).tolist() == [
            list(e) for g in alone for e in g.edges()]
        assert from_edge_lists([]) == []

    def test_erdos_renyi_batch_matches_each_seed(self):
        seeds = [np.random.SeedSequence(4, spawn_key=(i,)) for i in range(5)] + [7]
        assert erdos_renyi_graphs(9, 0.3, seeds) == [erdos_renyi(9, 0.3, s) for s in seeds]

    @pytest.mark.parametrize("spec, error, message", BAD_SPECS)
    def test_one_bad_graph_raises_what_it_raises_alone(self, spec, error, message):
        with pytest.raises(error, match=re.escape(message)) as alone:
            from_edge_list(*spec)
        good = [(2, [(0, 1)]), (3, [[0, 1], [1, 2]])]
        with pytest.raises(error) as batch:
            from_edge_lists(good + [spec] + good)
        assert str(batch.value) == str(alone.value)

    def test_empty_batch(self):
        assert graphs.batch_runs([]) == []
        assert list(edge_arrays([])) == []
        assert erdos_renyi_graphs(5, 0.5, []) == []

    def test_erdos_renyi_runs_match_each_seed(self):
        # each graph takes about 60 + 2 * 530 nodes plus CSR entries, so
        # the 40 graphs are drawn and built in several runs
        seeds = [np.random.SeedSequence(8, spawn_key=(i,)) for i in range(40)]
        batch = erdos_renyi_graphs(60, 0.3, seeds)
        assert len(list(edge_arrays(batch))) > 3
        assert batch == [erdos_renyi(60, 0.3, s) for s in seeds]

    def test_erdos_renyi_memory_stays_near_the_result(self):
        # the kept pairs of one run are held at a time, not those of every
        # graph: the peak stays within a quarter of the result's size above it
        seeds = [np.random.SeedSequence(2, spawn_key=(i,)) for i in range(1500)]
        erdos_renyi_graphs(50, 0.1, seeds[:1])  # warm up numpy's caches
        tracemalloc.start()
        try:
            batch = erdos_renyi_graphs(50, 0.1, seeds)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(batch) == 1500
        assert peak < 1.25 * size


class TestErdosRenyi:
    def test_extremes(self):
        assert erdos_renyi(10, 0.0, 1).edge_count == 0
        assert erdos_renyi(10, 1.0, 1) == complete_graph(10)

    def test_seed_reproducibility(self):
        assert erdos_renyi(30, 0.2, 9) == erdos_renyi(30, 0.2, 9)
        assert erdos_renyi(30, 0.2, 9) != erdos_renyi(30, 0.2, 10)

    def test_mean_edge_count_matches_expectation(self):
        # E[edges] = C(100,2) * 0.07 = 346.5; 200-seed mean within 5%
        counts = [erdos_renyi(100, 0.07, s).edge_count for s in range(200)]
        mean = float(np.mean(counts))
        assert 346.5 * 0.95 <= mean <= 346.5 * 1.05

    def test_bad_probability(self):
        with pytest.raises(InputError):
            erdos_renyi(5, 1.5, 0)

    def test_node_limit(self):
        with pytest.raises(CapacityError):
            erdos_renyi(MAX_ER_NODES + 1, 0.001, 0)


class TestBfs:
    def test_path(self):
        assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]

    def test_disconnected_inf(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert bfs_distances(g, 0) == [0, 1, 1, math.inf, math.inf, math.inf]

    def test_bad_node(self):
        with pytest.raises(InputError):
            bfs_distances(path_graph(3), 3)

    def test_matches_frontier_search(self):
        for seed in range(8):
            g = erdos_renyi(30, 0.06, seed)
            for v in (0, 29):
                dist, frontier = {v: 0}, [v]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for w in neighbours(g, u):
                            if w not in dist:
                                dist[w] = dist[u] + 1
                                nxt.append(w)
                    frontier = nxt
                want = [dist.get(u, math.inf) for u in range(g.n)]
                assert bfs_distances(g, v) == want, (seed, v)

    def test_cli_import_leaves_csgraph_unloaded(self):
        # bfs_distances imports csgraph on first use, so CLI start-up stays short
        code = "import sys, walklab.cli; print('scipy.sparse.csgraph' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRegions:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            RegionSpec("X", 1)
        with pytest.raises(InputError):
            RegionSpec("D", 0)
        assert RegionSpec("D", 2).max_walk_length() == 4
        assert RegionSpec("L", 2).max_walk_length() == 5

    def test_triangle_d1_vs_l1(self):
        # K3 from any node: D1 holds the two spokes, L1 adds the far edge
        g = complete_graph(3)
        d1 = extract_region(g, 0, RegionSpec("D", 1))
        l1 = extract_region(g, 0, RegionSpec("L", 1))
        assert d1.nodes == l1.nodes == frozenset({0, 1, 2})
        assert d1.edges == frozenset({(0, 1), (0, 2)})
        assert l1.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_hexagon_d2(self):
        g = cycle_graph(6)
        r = extract_region(g, 0, RegionSpec("D", 2))
        assert r.nodes == frozenset({0, 1, 2, 4, 5})
        assert r.edges == frozenset({(0, 1), (1, 2), (0, 5), (4, 5)})

    def test_isolated_node(self):
        g = from_edge_list(4, [(1, 2), (2, 3)])
        for kind in "DL":
            for k in (1, 2, 3):
                r = extract_region(g, 0, RegionSpec(kind, k))
                assert r.nodes == frozenset({0})
                assert r.edges == frozenset()

    def test_matches_walk_dp_oracle_small(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(2, 9))
            g = erdos_renyi(n, float(rng.uniform(0.2, 0.7)), int(rng.integers(1 << 30)))
            v = int(rng.integers(n))
            for k in (1, 2, 3):
                for kind in "DL":
                    spec = RegionSpec(kind, k)
                    r = extract_region(g, v, spec)
                    nodes, edges = region_by_walk_dp(g, v, spec.max_walk_length())
                    assert r.nodes == frozenset(nodes)
                    assert r.edges == frozenset(edges)

    def test_matches_literal_walk_enumeration_tiny(self):
        rng = np.random.default_rng(7)
        for trial in range(15):
            n = int(rng.integers(2, 6))
            g = erdos_renyi(n, 0.5, int(rng.integers(1 << 30)))
            v = int(rng.integers(n))
            for kind in "DL":
                spec = RegionSpec(kind, 2)
                r = extract_region(g, v, spec)
                nodes, edges = region_by_walk_enumeration(g, v, spec.max_walk_length())
                assert r.nodes == frozenset(nodes)
                assert r.edges == frozenset(edges)

    def test_nesting_chain(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(3, 25))
            g = erdos_renyi(n, float(rng.uniform(0.05, 0.5)), int(rng.integers(1 << 30)))
            v = int(rng.integers(n))
            for k in (1, 2, 3):
                d = extract_region(g, v, RegionSpec("D", k))
                l = extract_region(g, v, RegionSpec("L", k))
                d_next = extract_region(g, v, RegionSpec("D", k + 1))
                assert d.nodes <= l.nodes and d.edges <= l.edges
                assert l.nodes <= d_next.nodes and l.edges <= d_next.edges

    def test_region_connected_and_permutation_covariant(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(3, 12))
            g = erdos_renyi(n, 0.3, int(rng.integers(1 << 30)))
            v = int(rng.integers(n))
            r = extract_region(g, v, RegionSpec("L", 2))
            # connectivity within the region's own edges
            seen = {r.root}
            frontier = [r.root]
            adj = {u: set() for u in r.nodes}
            for a, b in r.edges:
                adj[a].add(b)
                adj[b].add(a)
            while frontier:
                u = frontier.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert seen == set(r.nodes)
            # covariance under relabelling
            perm = [int(x) for x in rng.permutation(n)]
            r2 = extract_region(relabel(g, perm), perm[v], RegionSpec("L", 2))
            assert r2.nodes == frozenset(perm[u] for u in r.nodes)
            assert r2.edges == frozenset(
                (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in r.edges)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\n3 2\n\n0 1  # first\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_errors(self):
        with pytest.raises(InputError):
            parse_edge_list("")
        with pytest.raises(InputError):
            parse_edge_list("3 2\n0 1\n")  # count mismatch
        with pytest.raises(InputError):
            parse_edge_list("2 1\n0 x\n")

    def test_error_names_the_line(self):
        with pytest.raises(InputError, match=r"^line 4: bad edge line '0 x'$"):
            parse_edge_list("# c\r\n\r\n2 1\r\n0 x # y\r\n")
        with pytest.raises(InputError, match=r"^line 1: bad header '3 1_0'$"):
            parse_edge_list("3 1_0\n")
        with pytest.raises(InputError, match=r"^line 1: input ends after 0 of the 2 edges"):
            parse_edge_list("3 2")

    @staticmethod
    def _render(rng, n, pairs):
        """Edge-list text for n and pairs, with random layout: comment and
        blank lines, trailing comments, CRLF, tabs, padding, '+' signs and
        leading zeros."""
        def number(x):
            return ("+" if rng.random() < 0.1 else "") + "0" * int(rng.integers(0, 2)) + str(x)

        def noise():
            return str(rng.choice(["", "", "# note", "   ", "\t", "#"]))

        lines = [noise() for _ in range(int(rng.integers(0, 3)))]
        for fields in [(n, len(pairs)), *pairs]:
            sep = str(rng.choice([" ", "\t", "  ", " \t "]))
            line = sep.join(map(number, fields))
            if rng.random() < 0.2:
                line = f"  {line} # trailing"
            lines.append(line)
            if rng.random() < 0.2:
                lines.append(noise())
        end = str(rng.choice(["\n", "\r\n"]))
        return end.join(lines) + (end if rng.random() < 0.8 else "")

    @staticmethod
    def _pairs_by_split(text):
        rows = [line.split("#")[0].split() for line in text.split("\n")]
        rows = [[int(x) for x in row] for row in rows if row]
        return rows[0][0], [tuple(row) for row in rows[1:]]

    def test_reader_matches_from_edge_list(self):
        rng = np.random.default_rng(20261018)
        corpus = [(1, []), (1, [(0, 0)]), (4, []), (3, [(0, 1), (1, 0), (0, 1), (2, 2)])]
        for _ in range(300):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(0, 2 * n + 1))
            pairs = [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(m)]
            pairs += [p[::-1] for p in pairs[: int(rng.integers(0, m + 1))]]
            corpus.append((n, pairs))
        for n, pairs in corpus:
            text = self._render(rng, n, pairs)
            assert self._pairs_by_split(text) == (n, pairs), text
            assert parse_edge_list(text) == from_edge_list(n, pairs), text


class TestAtomicWrite:
    def test_failed_encode_keeps_old_file(self, tmp_path):
        # a lone surrogate cannot be encoded as UTF-8, so the write fails
        # after the temporary file exists
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "new\n\ud800")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("name, error", [
        ("missing/out.txt", FileNotFoundError),
        ("sub", IsADirectoryError),
    ])
    def test_errors_name_the_destination(self, tmp_path, name, error):
        # not the temporary file the write goes through
        (tmp_path / "sub").mkdir()
        path = tmp_path / name
        with pytest.raises(error) as info:
            atomic_write_text(path, "text\n")
        assert info.value.filename == str(path)
        assert info.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_edge_list_write_is_not_torn(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        write_edge_list(path_graph(3), path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(graphs.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_edge_list(complete_graph(4), path)
        monkeypatch.undo()
        assert read_edge_list(path) == path_graph(3)
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]
