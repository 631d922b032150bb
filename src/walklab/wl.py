"""Colour refinement, pairwise comparison, and exact canonical forms.

Refinement rounds replace each node's label with the pair (its own label,
the sorted multiset of its neighbours' labels): the textbook 1-WL step.
Two nodes that differ in colour keep differing, so each round can only
split classes, and iteration stops once a round leaves the number of
colour classes, and so the partition, unchanged.

A round runs on the graph's CSR arrays: one gather of the neighbour
colours, one sort that orders them inside every node's run of a shared
buffer, and one copy of that buffer to bytes. A signature is a node's run
as big-endian int64 - its own colour, then its sorted neighbour colours -
and these bytes sort exactly like the textbook tuples of nonnegative
colours, a shorter prefix first. Python touches each node once per round,
and a round holds O(n + m) memory. A path needs about n/2 rounds, so
refinement can be quadratic; :data:`MAX_REFINE_WORK` caps rounds times
layout entries.

Two graphs are compared as in the 1-WL test (Morris et al. 2019, arXiv
1810.02244): one refinement of their disjoint union, so both share one
colour map, then the stable colour histograms of the two halves.
Isomorphic graphs always get equal histograms. Unequal graphs can still
collide - refinement is not a complete isomorphism test - which is why an
exact canonical form, by the individualisation-refinement search of nauty
and Traces (McKay and Piperno 2014, arXiv 1301.1493), covers small graphs.

:func:`compare_pair` answers the plain, the triangle-augmented and the
exact question with one refinement layout of the union. The plain run
starts from degrees. If its halves differ, so do the augmented ones and
the graphs are not isomorphic, and nothing more is computed. Otherwise
the augmented run starts from (plain stable colour, triangle count)
instead of (degree, triangle count) and reaches the same partition: any
stable refinement of the degree partition D refines its stable partition
P, so stable(P ^ T) = stable(D ^ T) for the triangle-count partition T.
The canonical search runs only when both verdicts tie.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, degrees
from .walks import triangle_counts_per_node

# Largest graph the canonical form accepts. Up to 8 nodes even an unpruned
# search tree has at most 109 601 nodes, so it needs no budget; 32K2 passes
# 10^5 refinements, so a higher limit needs automorphism pruning first.
CANONICAL_MAX_NODES = 8

# Capacity limit on one refinement, counted as rounds times layout entries
# (n + 2m over the refined graphs). A round costs 0.12-0.15 us per entry
# on a shared 2-core x86-64 host, so the limit is about 5-6 s. It admits
# a pair of 3 000-node paths (17 996 entries, 1 499 rounds: 2.7 * 10**7,
# 3.3 s); a pair of 10**5-node paths would need about 1.5 * 10**10.
MAX_REFINE_WORK = 4 * 10**7


class Verdict(str, Enum):
    """Outcome of a refinement comparison.

    DISTINGUISHABLE is definitive; INDISTINGUISHABLE only says the
    refinement found no difference, not that the graphs are isomorphic.
    """

    DISTINGUISHABLE = "distinguishable"
    INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class Coloring:
    """Stable colours (ranks 0..c-1) and the number of rounds used."""

    colors: tuple[int, ...]
    rounds: int

    def class_count(self) -> int:
        return len(set(self.colors))


class _Layout(NamedTuple):
    """Where the refinement of the disjoint union of some graphs writes its
    signatures: a buffer of n + 2m entries in which node v owns one run,
    its own colour followed by its neighbours' colours, at bytes
    ``spans[v]`` of the buffer. Each graph's nodes follow those of the
    graphs before it, so a pair's layout holds O(n1 + n2 + m1 + m2).

    Entry i holds the colour of node ``src[i]``. Colours are below n, so
    ``offset[i]`` (2n times the run's node, plus n on a neighbour entry)
    keeps every run in place and its own colour first when
    ``offset + colour`` is sorted; sums stay below 2n^2, far inside int64."""

    src: np.ndarray
    offset: np.ndarray
    spans: list[slice]

    @classmethod
    def of(cls, *graphs: Graph) -> _Layout:
        deg = np.concatenate([np.diff(g.indptr) for g in graphs])
        n, first = deg.size, np.concatenate([[0], np.cumsum(deg + 1)])  # run starts
        run = np.repeat(np.arange(n), deg + 1)  # node owning each entry
        nbr = np.ones(run.size, dtype=bool)
        nbr[first[:-1]] = False
        src = run.copy()
        # each graph's neighbour ids shifted past the nodes of those before it
        shifts = itertools.accumulate([g.n for g in graphs[:-1]], initial=0)
        src[nbr] = np.concatenate([g.indices + k for g, k in zip(graphs, shifts)])
        bounds = (8 * first).tolist()
        return cls(src, run * (2 * n) + n * nbr, list(map(slice, bounds, bounds[1:])))


def _ranks(labels: list) -> list[int]:
    """Each label's rank among the distinct labels: integers of any sign or
    size, or tuples of them, become colours 0..k-1 in the same order."""
    rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return [rank[lab] for lab in labels]


def _refine(layout: _Layout, colors: list[int]) -> tuple[list[int], int]:
    """Refinement rounds from colours 0..k-1: (final colours, rounds).

    A node's signature is the bytes of its own colour and its sorted
    neighbour colours as big-endian int64; for nonnegative colours these
    sort exactly like the tuples of the textbook step, a shorter prefix
    first, and a new colour is the rank of its signature. A round is one
    gather, one sort and one byte copy over the whole layout plus O(n)
    Python work, and holds O(n + m) memory. A round that would take the
    work past :data:`MAX_REFINE_WORK` raises :class:`CapacityError`.
    """
    k = max(colors) + 1
    buf = np.empty(layout.src.size, dtype=">i8")
    for rounds in range(1, len(layout.spans) + 1):
        if rounds * buf.size > MAX_REFINE_WORK:
            raise CapacityError(
                f"refinement of {len(layout.spans)} nodes is still splitting after "
                f"{rounds - 1} rounds over {buf.size} entries; the limit is "
                f"{MAX_REFINE_WORK} entry-rounds")
        entries = layout.offset + np.array(colors, dtype=np.int64)[layout.src]
        entries.sort()
        data = np.subtract(entries, layout.offset, out=buf).tobytes()
        signatures = list(map(data.__getitem__, layout.spans))
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = list(map(rank.__getitem__, signatures))
        # the signature holds the own colour, so the new partition refines
        # the old one and an unchanged class count means the same partition
        if len(rank) == k:
            return new, rounds
        colors, k = new, len(rank)
    raise InvariantViolation("refinement did not stabilise within n rounds")


def wl_refine(g: Graph, initial_labels=None) -> Coloring:
    """Refine integer node labels (degrees by default) to a stable partition.

    Labels may be Python or numpy integers. Stability means one more round
    would not change the grouping of nodes into colour classes; this is
    reached within n rounds, and the returned colouring is a fixed point
    of further refinement.
    """
    labels = degrees(g) if initial_labels is None else list(initial_labels)
    if len(labels) != g.n:
        raise InputError(f"expected {g.n} initial labels, got {len(labels)}")
    if not all(isinstance(lab, (int, np.integer)) for lab in labels):
        raise InputError("initial labels must be integers")
    colors, rounds = _refine(_Layout.of(g), _ranks([int(lab) for lab in labels]))
    return Coloring(colors=tuple(colors), rounds=rounds)


def _halves(colors: list[int], n1: int) -> Verdict:
    """Compare the colour histograms of the first n1 nodes and the rest.

    Once the halves' histograms differ at some round they differ at the
    stable round too, and the union cannot stop before that round, since
    a round that splits no class only renames colours. So different node
    counts or initial label histograms show up on their own."""
    if Counter(colors[:n1]) == Counter(colors[n1:]):
        return Verdict.INDISTINGUISHABLE
    return Verdict.DISTINGUISHABLE


def _distinguish(g1: Graph, g2: Graph, labels1: list[int], labels2: list[int]) -> Verdict:
    """Refine the disjoint union of g1 and g2 from the given integer labels
    and compare the stable colour histograms of the two halves."""
    colors, _ = _refine(_Layout.of(g1, g2), _ranks(labels1 + labels2))
    return _halves(colors, g1.n)


def wl_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Compare two graphs by refinement from degree labels."""
    return _distinguish(g1, g2, degrees(g1), degrees(g2))


def cantor_pair(a: int, b: int) -> int:
    """Bijection N x N -> N; packs two counts into one initial label."""
    if a < 0 or b < 0:
        raise InputError(f"cantor_pair needs nonnegative ints, got ({a}, {b})")
    return (a + b) * (a + b + 1) // 2 + b


def _verdicts(g1: Graph, g2: Graph) -> tuple[Verdict, Verdict]:
    """Plain and triangle-augmented verdicts from one layout of the union.

    The augmented run starts from the plain stable colours paired with
    triangle counts, which gives the stable partition of (degree, triangle
    count) labels without repeating the plain rounds. When the plain
    halves already differ, no triangle is counted."""
    layout = _Layout.of(g1, g2)
    plain, _ = _refine(layout, _ranks(degrees(g1) + degrees(g2)))
    verdict = _halves(plain, g1.n)
    if verdict is Verdict.DISTINGUISHABLE:
        return verdict, verdict
    # counted per graph: the union is never a Graph, so the node limit
    # holds for each graph alone
    tri = triangle_counts_per_node(g1).tolist() + triangle_counts_per_node(g2).tolist()
    augmented, _ = _refine(layout, _ranks(list(zip(plain, tri))))
    return verdict, _halves(augmented, g1.n)


def augmented_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Refinement comparison from (degree, triangle count) initial labels.

    The triangle count injects closed-walk information that plain
    refinement provably cannot recover, so this verdict separates some
    pairs that :func:`wl_distinguish` cannot; it never separates less,
    because the initial labels refine the degree labels.
    """
    return _verdicts(g1, g2)[1]


class PairReport(NamedTuple):
    """The answers of :func:`compare_pair`. ``isomorphic`` is None when a
    graph has more than :data:`CANONICAL_MAX_NODES` nodes."""

    wl: Verdict
    augmented: Verdict
    isomorphic: bool | None


def compare_pair(g1: Graph, g2: Graph) -> PairReport:
    """Plain refinement, triangle-augmented refinement and, for graphs of
    at most :data:`CANONICAL_MAX_NODES` nodes, exact isomorphism. The
    canonical forms are computed only when both refinements tie."""
    plain, augmented = _verdicts(g1, g2)
    isomorphic = None
    if max(g1.n, g2.n) <= CANONICAL_MAX_NODES:
        isomorphic = augmented is Verdict.INDISTINGUISHABLE and is_isomorphic_small(g1, g2)
    return PairReport(plain, augmented, isomorphic)


def _check_canonical_size(n: int) -> None:
    if n > CANONICAL_MAX_NODES:
        raise CapacityError(f"canonical form supports n <= {CANONICAL_MAX_NODES}, got n={n}")


def lex_min_adjacency(matrix) -> tuple[int, ...]:
    """Lexicographically smallest row-major flattening over all node orders.

    Exact canonical form by factorial search with prefix pruning; the
    result is identical for isomorphic inputs and different otherwise.
    Limited to n <= :data:`CANONICAL_MAX_NODES` nodes.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    _check_canonical_size(n)
    for row in a:
        if len(row) != n:
            raise InputError("adjacency matrix must be square")
        for x in row:
            if x not in (0, 1):
                raise InputError("adjacency entries must be 0 or 1")
    return _lex_min(a, itertools.permutations(range(n)))


def _lex_min(a: list[list[int]], orders) -> tuple[int, ...]:
    """Smallest row-major flattening of ``a`` over the given node orders."""
    best: list[tuple[int, ...]] | None = None
    for perm in orders:
        rows: list[tuple[int, ...]] = []
        smaller = False
        for i, pi in enumerate(perm):
            row = tuple([a[pi][pj] for pj in perm])
            if not smaller and best is not None:
                if row > best[i]:
                    break
                if row < best[i]:
                    smaller = True
            rows.append(row)
        else:
            if best is None or smaller:
                best = rows
    if best is None:
        raise InvariantViolation("no node order produced a canonical adjacency")
    return tuple(x for row in best for x in row)


def _neighbour_lists(g: Graph) -> list[list[int]]:
    flat, ends = g.indices.tolist(), g.indptr.tolist()
    return [flat[s:e] for s, e in zip(ends, ends[1:])]


def _leaf_orders(g: Graph, nbrs: list[list[int]]):
    """Node orders at the leaves of the individualisation-refinement tree.

    Each child of a stable colouring gives one node of its first smallest
    non-singleton cell a colour of its own and refines; no step reads node
    ids, so isomorphic graphs share the leaf adjacencies. Twins (equal open
    or equal closed neighbourhoods; without loops no open one equals a
    closed one) swap by an automorphism, so one per twin class is searched.
    Every refinement of the search reuses one :class:`_Layout` of ``g``."""
    layout = _Layout.of(g)
    twin_keys = [(frozenset(ns), frozenset(ns + [v])) for v, ns in enumerate(nbrs)]

    def search(colors: list[int]):
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        if len(cells) == len(colors):
            yield [cell[0] for cell in cells]
            return
        target = min((cell for cell in cells if len(cell) > 1), key=len)
        seen: set[frozenset] = set()
        for v in target:
            if seen.isdisjoint(twin_keys[v]):
                seen.update(twin_keys[v])
                # v moves to a colour of its own just above its old cell
                cv = colors[v]
                labels = [c + (c > cv) + (u == v) for u, c in enumerate(colors)]
                yield from search(_refine(layout, labels)[0])

    yield from search(_refine(layout, _ranks([len(ns) for ns in nbrs]))[0])


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Exact canonical form of a graph as a row-major 0/1 vector."""
    _check_canonical_size(g.n)  # before the dense matrix is built
    nbrs = _neighbour_lists(g)
    return _lex_min([[int(u in ns) for u in range(g.n)] for ns in nbrs], _leaf_orders(g, nbrs))


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs of at most
    :data:`CANONICAL_MAX_NODES` nodes via canonical forms."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    return canonical_form(g1) == canonical_form(g2)
