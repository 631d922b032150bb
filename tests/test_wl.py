import itertools
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walklab import wl
from walklab.errors import CapacityError, InputError
from walklab.graphs import cycle_graph, degrees, disjoint_union, erdos_renyi, from_edge_list
from walklab.walks import triangle_counts_per_node
from walklab.wl import (CANONICAL_MAX_NODES, MIN_ROUND_GAIN, PairReport, Verdict, _distinguish,
                        _Layout, _leaf_orders, _neighbour_lists, _ranks, _stable_partition,
                        augmented_distinguish, canonical_form, cantor_pair, compare_pair,
                        is_isomorphic_small, lex_min_adjacency, wl_distinguish, wl_refine)

from oracles import (caterpillar, complete_graph, cubic_graphs_on_8_nodes, dense_adjacency,
                     fingerprint_by_tuples, is_isomorphic_by_search, neighbours, path_graph,
                     random_cubic, refine_by_tuples, relabel)


def refine_with_own_label_slot(g, initial):
    """Independent reference: the own label as a separate slot next to the
    closed-neighbourhood multiset, run until the partition repeats."""
    colors = list(initial)
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[u] for u in neighbours(g, v)] + [colors[v]])))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if _partition(new) == _partition(colors):
            return new
        colors = new


def _partition(colors):
    first = {}
    out = []
    for c in colors:
        out.append(first.setdefault(c, len(first)))
    return tuple(out)


def _classes(colors):
    groups = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, set()).add(v)
    return sorted(groups.values(), key=sorted)


class TestRefine:
    def test_p3_uniform_labels(self):
        c = wl_refine(path_graph(3), [0, 0, 0])
        assert c.rounds == 2
        assert len(set(c.colors)) == 2
        assert c.colors[0] == c.colors[2] != c.colors[1]

    def test_regular_graphs_stay_one_class(self):
        for g in (complete_graph(3), cycle_graph(6)):
            c = wl_refine(g)
            assert len(set(c.colors)) == 1
            assert c.rounds == 1

    def test_rounds_bounded_by_n(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            n = int(rng.integers(1, 20))
            g = erdos_renyi(n, float(rng.uniform(0.0, 0.6)), int(rng.integers(1 << 30)))
            c = wl_refine(g)
            assert 1 <= c.rounds <= n
            assert sorted(set(c.colors)) == list(range(len(set(c.colors))))

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            g = erdos_renyi(int(rng.integers(2, 15)), 0.35, int(rng.integers(1 << 30)))
            c1 = wl_refine(g)
            c2 = wl_refine(g, list(c1.colors))
            assert _partition(c2.colors) == _partition(c1.colors)
            assert c2.rounds == 1

    def test_long_path_needs_many_rounds(self):
        c = wl_refine(path_graph(11), [0] * 11)
        assert c.rounds > 3
        assert len(set(c.colors)) == 6  # mirror-symmetric positions share colours

    def test_label_count_must_match(self):
        with pytest.raises(InputError):
            wl_refine(path_graph(3), [0, 0])

    def test_labels_must_be_integers(self):
        for labels in (["a", "b", "a"], [0.0, 1.0, 0.0], [0, None, 0],
                       np.array([0.0, 1.0, 0.0]), np.array(["a", "b", "a"])):
            with pytest.raises(InputError, match="integers"):
                wl_refine(path_graph(3), labels)

    def test_numpy_integer_labels(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
        tri = triangle_counts_per_node(g)
        c = wl_refine(g, tri)
        assert c == wl_refine(g, tri.tolist())
        assert _classes(c.colors) == [{0, 1}, {2}, {3}, {4}]
        for dtype in (np.int8, np.int64, np.uint64):
            labels = np.array([5, 0, 5, 0, 7], dtype=dtype)
            assert wl_refine(g, labels) == wl_refine(g, [5, 0, 5, 0, 7])

    def test_caller_labels_on_c4_stabilise(self):
        # closed-neighbourhood multisets alone make this partition alternate
        # between two shapes; with the own colour as a slot it only refines
        c = wl_refine(cycle_graph(4), [0, 0, 0, 1])
        assert _classes(c.colors) == [{0, 2}, {1}, {3}]
        assert c.rounds == 2

    def test_caller_labels_agree_with_reference(self):
        rng = np.random.default_rng(20)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            g = erdos_renyi(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(1 << 30)))
            labels = [int(x) for x in rng.integers(0, 3, size=n)]
            c = wl_refine(g, labels)
            assert _classes(c.colors) == _classes(refine_with_own_label_slot(g, labels))
            assert 1 <= c.rounds <= n

    def test_own_label_slot_variant_agrees_on_corpus(self):
        corpus = [
            path_graph(3), path_graph(7), cycle_graph(6), complete_graph(4),
            disjoint_union(cycle_graph(3), cycle_graph(3)),
            from_edge_list(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
        ]
        rng = np.random.default_rng(6)
        corpus += [erdos_renyi(int(rng.integers(2, 12)), 0.4, int(rng.integers(1 << 30)))
                   for _ in range(20)]
        for g in corpus:
            ours = wl_refine(g).colors
            slot = refine_with_own_label_slot(g, degrees(g))
            assert _classes(ours) == _classes(slot)


def _star(n):
    return from_edge_list(n, [(0, v) for v in range(1, n)])


def _fan(n):
    """A star whose leaves also form a path."""
    return from_edge_list(n, [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)])


def _label_kinds(g, rng):
    """Degree labels, negative labels, and labels above int64."""
    return {
        "degree": degrees(g),
        "negative": [int(x) for x in rng.integers(-4, 2, size=g.n)],
        "above-int64": [cantor_pair(10**10 + d, 10**10) for d in degrees(g)],
    }


class TestRefineMatchesReference:
    """The byte-signature refinement against the tuple-signature one."""

    @staticmethod
    def _corpus():
        rng = np.random.default_rng(40)
        graphs = [erdos_renyi(n, float(rng.uniform(0.0, 0.4)), int(rng.integers(1 << 30)))
                  for n in range(1, 41) for _ in range(3)]
        # isolated nodes next to edges, and no edges at all
        graphs += [from_edge_list(7, [(0, 1), (1, 2)]), from_edge_list(5, [])]
        graphs += [_star(40), _fan(40), caterpillar(30)]
        # hundreds of colour classes, so colours no longer fit in one byte
        graphs += [erdos_renyi(400, 0.02, 43), path_graph(600)]
        return graphs

    def test_colours_and_rounds_match(self):
        rng = np.random.default_rng(41)
        for g in self._corpus():
            nbrs = [neighbours(g, v) for v in range(g.n)]
            for kind, labels in _label_kinds(g, rng).items():
                colors, tables = refine_by_tuples(nbrs, labels)
                c = wl_refine(g, labels)
                assert (c.colors, c.rounds) == (tuple(colors), len(tables)), (g.n, kind)

    # the default; rounds to the end, since every round that splits gains
    # at least 0; and smaller-half refinement right after round 1, since no
    # round gains n classes
    GAINS = [MIN_ROUND_GAIN, 0, 1]

    @pytest.mark.parametrize("min_gain", GAINS)
    def test_stable_partitions_match(self, monkeypatch, min_gain):
        monkeypatch.setattr(wl, "MIN_ROUND_GAIN", min_gain)
        # a graph next to itself never fills a class unevenly, so the
        # union is refined to its stable partition
        rng = np.random.default_rng(41)
        for g in self._corpus():
            nbrs = [neighbours(g, v) for v in range(g.n)]
            nbrs += [[u + g.n for u in ns] for ns in nbrs]
            for kind, labels in _label_kinds(g, rng).items():
                colors, uneven = _stable_partition(_Layout.of(g, g), _ranks(labels * 2), g.n)
                assert not uneven
                want = refine_by_tuples(nbrs, labels * 2)[0]
                assert _classes(colors) == _classes(want), (g.n, kind)

    @pytest.mark.parametrize("min_gain", GAINS)
    def test_fingerprint_verdicts_match(self, monkeypatch, min_gain):
        # with a handover right after round 1, every tied pair of the
        # corpus that round 1 leaves splitting goes on to smaller-half
        # refinement
        monkeypatch.setattr(wl, "MIN_ROUND_GAIN", min_gain)
        rng = np.random.default_rng(42)
        verdicts = set()
        for g in self._corpus():
            perm = [int(x) for x in rng.permutation(g.n)]
            copy = relabel(g, perm)
            other = _random_graph(rng, g.n, g.edge_count)
            for labels in _label_kinds(g, rng).values():
                moved = [0] * g.n
                for v, lab in enumerate(labels):
                    moved[perm[v]] = lab
                for h, h_labels in ((copy, moved), (other, degrees(other))):
                    same = _distinguish(g, h, labels, h_labels) is Verdict.INDISTINGUISHABLE
                    assert same == (fingerprint_by_tuples(g, labels)
                                    == fingerprint_by_tuples(h, h_labels))
                    verdicts.add(same)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("min_gain", GAINS)
    def test_verdicts_match_across_node_counts(self, monkeypatch, min_gain):
        monkeypatch.setattr(wl, "MIN_ROUND_GAIN", min_gain)
        graphs = [from_edge_list(n, []) for n in (1, 2, 3, 6)]  # no edges
        graphs += [path_graph(n) for n in (2, 3, 4, 6)]
        # isolated nodes next to edges
        graphs += [from_edge_list(n, [(0, 1)]) for n in (3, 6)]
        graphs += [disjoint_union(cycle_graph(3), from_edge_list(2, [])), cycle_graph(5),
                   from_edge_list(7, [(0, 1), (1, 2)]), from_edge_list(7, [(4, 5), (5, 6)])]
        verdicts = set()
        for g in graphs:
            for h in graphs:
                same = wl_distinguish(g, h) is Verdict.INDISTINGUISHABLE
                assert same == (fingerprint_by_tuples(g, degrees(g))
                                == fingerprint_by_tuples(h, degrees(h))), (g.n, h.n)
                verdicts.add((same, g.n == h.n))
        assert verdicts == {(True, True), (False, True), (False, False)}


def _augmented_labels(g):
    """(degree, triangle count) packed into one integer label per node."""
    return [cantor_pair(d, t) for d, t in zip(degrees(g), triangle_counts_per_node(g).tolist())]


def _rook_4x4():
    """K4 x K4: nodes share a row or a column. SRG(16, 6, 2, 2)."""
    return from_edge_list(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                               if u // 4 == v // 4 or u % 4 == v % 4])


def _shrikhande():
    """Cayley graph of Z4 x Z4 with connection set +-(0, 1), +-(1, 0),
    +-(1, 1). SRG(16, 6, 2, 2), like the rook's graph."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return from_edge_list(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                               if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


def _neighbourhood(g, v):
    """The subgraph induced on the neighbours of v."""
    ns = neighbours(g, v)
    return from_edge_list(len(ns), [(i, j) for i, j in itertools.combinations(range(len(ns)), 2)
                                    if ns[j] in neighbours(g, ns[i])])


class TestComparePair:
    """The pair report against from-scratch refinements and the oracles."""

    @staticmethod
    def _check(g, h):
        report = compare_pair(g, h)
        assert report.wl is _distinguish(g, h, degrees(g), degrees(h))
        seeds = _augmented_labels(g), _augmented_labels(h)
        assert report.augmented is _distinguish(g, h, *seeds)
        assert report.augmented is augmented_distinguish(g, h)
        same = fingerprint_by_tuples(g, seeds[0]) == fingerprint_by_tuples(h, seeds[1])
        assert (report.augmented is Verdict.INDISTINGUISHABLE) == same
        if max(g.n, h.n) <= CANONICAL_MAX_NODES:
            assert report.isomorphic == is_isomorphic_by_search(g, h)
        else:
            assert report.isomorphic is None
        return report

    def test_reference_corpus(self):
        rng = np.random.default_rng(50)
        reports = set()
        for g in TestRefineMatchesReference._corpus():
            copy = relabel(g, [int(x) for x in rng.permutation(g.n)])
            for h in (copy, _random_graph(rng, g.n, g.edge_count)):
                reports.add(self._check(g, h)[:2])
        # copies tie; the random graphs all differ in degrees already
        assert reports == {(Verdict.INDISTINGUISHABLE,) * 2, (Verdict.DISTINGUISHABLE,) * 2}

    def test_random_cubic_pairs(self):
        rng = np.random.default_rng(51)
        reports = set()
        for n in (10, 12, 16, 20, 30, 40) * 4:
            g = random_cubic(rng, n)
            reports.add(self._check(g, random_cubic(rng, n)))
            self._check(g, relabel(g, [int(x) for x in rng.permutation(n)]))
        assert {r.augmented for r in reports} == set(Verdict)

    def test_cubic_graphs_on_8_nodes(self):
        # plain refinement ties on every pair, so the canonical search
        # decides whenever the triangle counts tie too
        classes = {}
        for g in cubic_graphs_on_8_nodes():
            classes.setdefault(canonical_form(g), []).append(g)
        firsts, lasts = zip(*[(members[0], members[-1]) for members in classes.values()])
        # the last three classes have 5, 8 and 8 nodes on no triangle: one
        # pair that the triangle labels separate, one that they do not
        pairs = [*zip(firsts[-3:], firsts[-2:]), *zip(firsts, lasts[:2])]
        reports = {self._check(g, h) for g, h in pairs}
        assert {(r.augmented, r.isomorphic) for r in reports} == {
            (Verdict.DISTINGUISHABLE, False), (Verdict.INDISTINGUISHABLE, False),
            (Verdict.INDISTINGUISHABLE, True)}

    def test_hexagon_vs_two_triangles(self):
        report = self._check(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))
        assert report == PairReport(Verdict.INDISTINGUISHABLE, Verdict.DISTINGUISHABLE, False)

    def test_rook_vs_shrikhande(self):
        rook, shrikhande = _rook_4x4(), _shrikhande()
        # not isomorphic: a node's neighbours span two triangles in one,
        # a hexagon in the other
        assert not is_isomorphic_small(_neighbourhood(rook, 0), _neighbourhood(shrikhande, 0))
        assert triangle_counts_per_node(rook).tolist() == [6] * 16
        assert triangle_counts_per_node(shrikhande).tolist() == [6] * 16
        report = self._check(rook, shrikhande)
        assert report == PairReport(Verdict.INDISTINGUISHABLE, Verdict.INDISTINGUISHABLE, None)

    def test_long_relabelled_paths(self):
        # n/2 textbook rounds over every node would take hours here
        n = 10**5
        g = path_graph(n)
        h = relabel(g, [int(x) for x in np.random.default_rng(52).permutation(n)])
        start = time.monotonic()
        report = compare_pair(g, h)
        assert time.monotonic() - start < 30.0
        assert report == PairReport(Verdict.INDISTINGUISHABLE, Verdict.INDISTINGUISHABLE, None)

    def test_benchmark_like_pairs_on_both_sides_of_the_switch(self, monkeypatch):
        calls = []

        def spy(nbrs, colors, before, n1):
            calls.append(len(colors))
            return split(nbrs, colors, before, n1)

        split = wl._split_smaller_halves
        monkeypatch.setattr(wl, "_split_smaller_halves", spy)
        rng = np.random.default_rng(53)
        # a regular graph is stable after one round, and halves whose
        # triangle histograms differ are not refined again
        g, h = random_cubic(rng, 100), random_cubic(rng, 100)
        assert Counter(triangle_counts_per_node(g).tolist()) != \
            Counter(triangle_counts_per_node(h).tolist())
        assert compare_pair(g, h)[:2] == (Verdict.INDISTINGUISHABLE, Verdict.DISTINGUISHABLE)
        assert calls == []
        # about 30 rounds; a tree has no triangles, so only the plain run
        # splits past the eager rounds
        g = caterpillar(60)
        h = relabel(g, [int(x) for x in rng.permutation(g.n)])
        assert compare_pair(g, h)[:2] == (Verdict.INDISTINGUISHABLE,) * 2
        assert calls == [240]

    def test_counts_that_split_no_class_run_no_augmented_refinement(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(wl, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("_round", "_split_smaller_halves"):
            monkeypatch.setattr(wl, name, counted(name))
        rng = np.random.default_rng(54)
        cat = caterpillar(40)
        copies = [relabel(cat, [int(x) for x in rng.permutation(cat.n)]) for _ in range(2)]
        # a tree has no triangles; every node of both strongly regular
        # graphs lies on 6
        for g, h in (copies, (_rook_4x4(), _shrikhande())):
            calls.clear()
            plain = wl_distinguish(g, h)
            refinements = list(calls)
            assert refinements and plain is Verdict.INDISTINGUISHABLE
            calls.clear()
            assert compare_pair(g, h) == PairReport(plain, plain, None)
            assert calls == refinements

    def test_tied_triangle_histograms_still_refine(self, monkeypatch):
        partitions = []

        def recorded(layout, colors, n1):
            verdict, stable = real(layout, colors, n1)
            partitions.append(stable)
            return verdict, stable

        real = wl._verdict
        monkeypatch.setattr(wl, "_verdict", recorded)
        rng = np.random.default_rng(63)
        g, h = random_cubic(rng, 20), random_cubic(rng, 20)
        histogram = Counter(triangle_counts_per_node(g).tolist())
        assert histogram == Counter(triangle_counts_per_node(h).tolist()) and len(histogram) > 1
        copy = relabel(g, [int(x) for x in rng.permutation(g.n)])
        for other, augmented in ((h, Verdict.DISTINGUISHABLE), (copy, Verdict.INDISTINGUISHABLE)):
            partitions.clear()
            assert compare_pair(g, other)[:2] == (Verdict.INDISTINGUISHABLE, augmented)
            assert len(partitions) == 2  # the plain run, then the augmented one
            nbrs = ([neighbours(g, v) for v in range(g.n)]
                    + [[u + g.n for u in neighbours(other, v)] for v in range(other.n)])
            want = refine_by_tuples(nbrs, _augmented_labels(g) + _augmented_labels(other))[0]
            if augmented is Verdict.INDISTINGUISHABLE:
                assert _classes(partitions[-1]) == _classes(want)
                continue
            # the run stops at the first class the two graphs fill unevenly,
            # a partition that the stable one refines
            got = _classes(partitions[-1])
            assert any(2 * sum(v < g.n for v in cell) != len(cell) for cell in got)
            assert all(any(cell <= coarse for coarse in got) for cell in _classes(want))

    def test_canonical_search_only_when_both_runs_tie(self, monkeypatch):
        def no_search(g1, g2):
            raise AssertionError("canonical search ran")

        monkeypatch.setattr("walklab.wl.is_isomorphic_small", no_search)
        assert compare_pair(complete_graph(3), path_graph(3)).isomorphic is False
        c6, cc = cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))
        assert compare_pair(c6, cc).isomorphic is False
        with pytest.raises(AssertionError, match="canonical search ran"):
            compare_pair(c6, relabel(c6, [1, 2, 3, 4, 5, 0]))


def _swapped(rng, g):
    """g after one degree-preserving double-edge swap: edges a-b and c-d
    become a-d and c-b."""
    edges = [tuple(e) for e in g.edges()]
    present = set(edges)
    while True:
        i, j = (int(x) for x in rng.choice(len(edges), 2, replace=False))
        (a, b), (c, d) = edges[i], edges[j][::rng.choice([1, -1])]
        if len({a, b, c, d}) == 4 and (min(a, d), max(a, d)) not in present \
                and (min(b, c), max(b, c)) not in present:
            edges[i], edges[j] = (a, d), (c, b)
            return from_edge_list(g.n, edges)


class TestEarlyStop:
    """Verdicts that stop at the first class the two graphs fill unevenly."""

    @staticmethod
    def _tied_swap(rng, g):
        """A relabelled swap of g with g's triangle histogram, so that
        neither the degree nor the triangle histograms tell them apart."""
        triangles = Counter(triangle_counts_per_node(g).tolist())
        while True:
            h = _swapped(rng, g)
            if Counter(triangle_counts_per_node(h).tolist()) == triangles:
                return relabel(h, [int(x) for x in rng.permutation(g.n)])

    def test_swapped_pairs_match_the_fingerprints(self, monkeypatch):
        rounds, splits = [], []
        real_round, real_split = wl._round, wl._split_smaller_halves

        def counted_round(layout, colors):
            rounds.append(1)
            return real_round(layout, colors)

        def counted_split(nbrs, colors, before, n1):
            splits.append(n1)
            return real_split(nbrs, colors, before, n1)

        monkeypatch.setattr(wl, "_round", counted_round)
        monkeypatch.setattr(wl, "_split_smaller_halves", counted_split)
        rng = np.random.default_rng(64)
        pairs = [(erdos_renyi(n, 4 / n, seed), "er") for n in (20, 30, 45, 60) for seed in range(3)]
        pairs += [(random_cubic(rng, n), "cubic") for n in (12, 20, 30, 40) for _ in range(3)]
        cubic = set()
        for g, kind in pairs:
            h = self._tied_swap(rng, g)
            rounds.clear()
            splits.clear()
            report = compare_pair(g, h)
            plain = fingerprint_by_tuples(g, degrees(g)) == fingerprint_by_tuples(h, degrees(h))
            seeds = _augmented_labels(g), _augmented_labels(h)
            augmented = fingerprint_by_tuples(g, seeds[0]) == fingerprint_by_tuples(h, seeds[1])
            assert (report.wl is Verdict.INDISTINGUISHABLE) == plain, (kind, g.n)
            assert (report.augmented is Verdict.INDISTINGUISHABLE) == augmented, (kind, g.n)
            if kind == "er":
                # the rounds tell the swap apart before the partition is
                # stable, so smaller-half refinement never starts
                nbrs = ([neighbours(g, v) for v in range(g.n)]
                        + [[u + g.n for u in neighbours(h, v)] for v in range(h.n)])
                stable_rounds = len(refine_by_tuples(nbrs, degrees(g) + degrees(h))[1])
                assert report.wl is Verdict.DISTINGUISHABLE and splits == []
                assert len(rounds) < stable_rounds
            else:
                cubic.add((report.augmented, bool(splits)))
        # some tied cubic pairs are told apart inside smaller-half refinement
        assert (Verdict.DISTINGUISHABLE, True) in cubic
        assert Verdict.INDISTINGUISHABLE in {verdict for verdict, _ in cubic}


@st.composite
def _graph_and_permutation(draw):
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return from_edge_list(n, edges), draw(st.permutations(range(n)))


@settings(deadline=None)
@given(_graph_and_permutation())
def test_refinement_is_invariant_under_relabelling(case):
    g, perm = case
    h = relabel(g, perm)
    assert wl_distinguish(h, g) is Verdict.INDISTINGUISHABLE
    moved = wl_refine(h).colors
    assert all(moved[perm[v]] == c for v, c in enumerate(wl_refine(g).colors))


class TestFingerprint:
    """Refinement verdicts on pairs whose answer is known."""

    def test_isomorphic_copies_collide(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            n = int(rng.integers(2, 14))
            g = erdos_renyi(n, 0.4, int(rng.integers(1 << 30)))
            h = relabel(g, [int(x) for x in rng.permutation(n)])
            assert wl_distinguish(g, h) is Verdict.INDISTINGUISHABLE

    def test_k3_vs_p3_differ(self):
        assert wl_distinguish(complete_graph(3), path_graph(3)) is Verdict.DISTINGUISHABLE

    def test_degree_histogram_difference_suffices(self):
        # same class-count shape (one class each), different degrees
        assert wl_distinguish(cycle_graph(4), complete_graph(4)) is Verdict.DISTINGUISHABLE

    def test_deterministic(self):
        assert wl_distinguish(cycle_graph(5), cycle_graph(5)) is Verdict.INDISTINGUISHABLE

    def test_pair_may_exceed_node_limit(self, monkeypatch):
        # the node limit holds per graph; the pair's union is never a Graph
        monkeypatch.setattr("walklab.graphs.MAX_NODES", 10)
        c10, two_c5 = cycle_graph(10), disjoint_union(cycle_graph(5), cycle_graph(5))
        with pytest.raises(CapacityError):
            disjoint_union(c10, two_c5)
        assert wl_distinguish(c10, two_c5) is Verdict.INDISTINGUISHABLE
        assert augmented_distinguish(c10, two_c5) is Verdict.INDISTINGUISHABLE
        assert wl_distinguish(c10, path_graph(10)) is Verdict.DISTINGUISHABLE


class TestDistinguish:
    def test_k3_vs_p3(self):
        assert wl_distinguish(complete_graph(3), path_graph(3)) is Verdict.DISTINGUISHABLE

    def test_hexagon_vs_two_triangles(self):
        c6 = cycle_graph(6)
        cc = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert wl_distinguish(c6, cc) is Verdict.INDISTINGUISHABLE
        assert augmented_distinguish(c6, cc) is Verdict.DISTINGUISHABLE
        assert not is_isomorphic_small(c6, cc)

    def test_relabelled_copies_never_flagged(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(3, 12))
            g = erdos_renyi(n, 0.4, int(rng.integers(1 << 30)))
            h = relabel(g, [int(x) for x in rng.permutation(n)])
            assert wl_distinguish(g, h) is Verdict.INDISTINGUISHABLE
            assert augmented_distinguish(g, h) is Verdict.INDISTINGUISHABLE

    def test_augmented_never_weaker_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for trial in range(40):
            g = erdos_renyi(int(rng.integers(3, 10)), 0.4, int(rng.integers(1 << 30)))
            h = erdos_renyi(int(rng.integers(3, 10)), 0.4, int(rng.integers(1 << 30)))
            if wl_distinguish(g, h) is Verdict.DISTINGUISHABLE:
                assert augmented_distinguish(g, h) is Verdict.DISTINGUISHABLE

    def test_cantor_pair(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 0) == 1
        assert cantor_pair(0, 1) == 2
        seen = {cantor_pair(a, b) for a in range(20) for b in range(20)}
        assert len(seen) == 400  # injective on the grid
        with pytest.raises(InputError):
            cantor_pair(-1, 0)


class TestCanonicalForm:
    def test_worked_example(self):
        # 2-node: one self-loop on the first node plus the joining edge
        assert lex_min_adjacency([[1, 1], [1, 0]]) == (0, 1, 1, 1)

    def test_single_edge_and_empty(self):
        assert lex_min_adjacency([[0, 1], [1, 0]]) == (0, 1, 1, 0)
        assert lex_min_adjacency([[0, 0], [0, 0]]) == (0, 0, 0, 0)

    def test_graph_level(self):
        assert canonical_form(path_graph(2)) == (0, 1, 1, 0)

    def test_invariant_under_relabelling(self):
        rng = np.random.default_rng(16)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            g = erdos_renyi(n, 0.5, int(rng.integers(1 << 30)))
            h = relabel(g, [int(x) for x in rng.permutation(n)])
            assert canonical_form(g) == canonical_form(h)

    def test_guard(self):
        canonical_form(path_graph(CANONICAL_MAX_NODES))
        with pytest.raises(CapacityError):
            canonical_form(erdos_renyi(CANONICAL_MAX_NODES + 1, 0.2, 1))
        with pytest.raises(CapacityError):
            lex_min_adjacency([[0] * 9] * 9)
        with pytest.raises(InputError):
            lex_min_adjacency([[0, 2], [2, 0]])

    def test_equality_matches_isomorphism_search(self):
        rng = np.random.default_rng(18)
        graphs = [erdos_renyi(5, float(p), int(rng.integers(1 << 30)))
                  for p in (0.3, 0.5, 0.7) for _ in range(8)]
        for i, g in enumerate(graphs):
            for h in graphs[i + 1:]:
                assert (canonical_form(g) == canonical_form(h)) == \
                    is_isomorphic_by_search(g, h)

    def test_is_isomorphic_small(self):
        assert is_isomorphic_small(cycle_graph(4), relabel(cycle_graph(4), [2, 0, 3, 1]))
        assert not is_isomorphic_small(cycle_graph(4), path_graph(4))
        assert not is_isomorphic_small(path_graph(3), path_graph(4))


def _random_graph(rng, n, m):
    """A graph on n nodes with m edges drawn uniformly without repeats."""
    pairs = list(itertools.combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=m, replace=False)
    return from_edge_list(n, [pairs[int(j)] for j in picked])


def _symmetric_8_node_graphs():
    """Vertex-transitive 8-node graphs, where every cell of the refinement
    is a whole orbit and the search must branch."""
    pairs = itertools.combinations(range(8), 2)
    return {
        "C8": cycle_graph(8),
        "2C4": disjoint_union(cycle_graph(4), cycle_graph(4)),
        "4K2": from_edge_list(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        "Q3": from_edge_list(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4)]),
        "K4,4": from_edge_list(8, [(u, v) for u in range(4) for v in range(4, 8)]),
        "K2,2,2,2": from_edge_list(8, [(u, v) for u, v in pairs if u // 2 != v // 2]),
    }


class TestLeafSearch:
    def test_six_node_graphs_fall_into_156_classes(self):
        pairs = list(itertools.combinations(range(6), 2))
        classes = {}
        for mask in range(2 ** len(pairs)):
            g = from_edge_list(6, [pairs[j] for j in range(len(pairs)) if mask >> j & 1])
            classes.setdefault(canonical_form(g), []).append(g)
        assert len(classes) == 156  # unlabelled graphs on 6 nodes
        for members in classes.values():
            first, last = (lex_min_adjacency(dense_adjacency(g))
                           for g in (members[0], members[-1]))
            assert first == last

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_pairs_match_isomorphism_search(self, n):
        rng = np.random.default_rng(30 + n)
        for trial in range(6):
            m = int(rng.integers(n, n * (n - 1) // 2 - n))
            g = _random_graph(rng, n, m)
            h = (relabel(g, [int(x) for x in rng.permutation(n)]) if trial % 2
                 else _random_graph(rng, n, m))
            expected = is_isomorphic_by_search(g, h)
            assert (canonical_form(g) == canonical_form(h)) == expected
            assert is_isomorphic_small(g, h) == expected

    def test_relabelled_symmetric_graphs_get_equal_forms(self):
        rng = np.random.default_rng(32)
        for name, g in _symmetric_8_node_graphs().items():
            form = canonical_form(g)
            for _ in range(4):
                h = relabel(g, [int(x) for x in rng.permutation(8)])
                assert canonical_form(h) == form, name

    def test_relabelled_cubic_graphs_get_equal_forms(self):
        # in a regular graph that is not vertex-transitive a refinement cell
        # holds several orbits, so the search must branch on each of them
        rng = np.random.default_rng(34)
        for g in cubic_graphs_on_8_nodes():
            h = relabel(g, [int(x) for x in rng.permutation(8)])
            assert canonical_form(h) == canonical_form(g)

    def test_cycle_and_two_squares_differ(self):
        graphs = _symmetric_8_node_graphs()
        assert canonical_form(graphs["C8"]) != canonical_form(graphs["2C4"])
        assert not is_isomorphic_small(graphs["C8"], graphs["2C4"])

    def test_twins_are_individualised_once(self):
        # every node of the empty graph, and of the complete graph, is a
        # twin of every other, so each level of the search has one child
        for g in (from_edge_list(8, []), complete_graph(8)):
            assert len(list(_leaf_orders(g, _neighbour_lists(g)))) == 1
