"""Colour refinement, cross-graph fingerprints, and exact canonical forms.

Refinement rounds replace each node's label with the pair (its own label,
the sorted multiset of its neighbours' labels): the textbook 1-WL step.
Two nodes that differ in colour keep differing, so each round can only
split classes, and iteration stops once a round leaves the number of
colour classes, and so the partition, unchanged.

Two graphs are compared through :func:`wl_fingerprint`, a tuple
summarising the whole refinement run: node count, the initial label
histogram, and for every round the sorted table of distinct signatures
with the number of nodes that carry each. Colours are ranks into the
round's table, so as long as two runs share the same table prefix their
colours mean the same thing; the first differing table is a genuine
structural difference. Equal fingerprints therefore mean the refinement
cannot tell the graphs apart, and isomorphic graphs always get equal
fingerprints. Unequal graphs can still collide in principle -
refinement is not a complete isomorphism test - which is why an exact
canonical form, by the individualisation-refinement search of nauty and
Traces (McKay and Piperno 2014, arXiv 1301.1493), covers small graphs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, degrees
from .walks import triangle_counts_per_node

# Largest graph the canonical form accepts. Up to 8 nodes even an unpruned
# search tree has at most 109 601 nodes, so it needs no budget; 32K2 passes
# 10^5 refinements, so a higher limit needs automorphism pruning first.
CANONICAL_MAX_NODES = 8


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


def _refinement_run(g: Graph, initial_labels) -> tuple[list[int], list[int], list[tuple]]:
    """Run refinement to stability from integer labels (degrees by default).

    Returns (initial labels, final colours, per-round tables). A round's
    table is the sorted tuple of (signature, node count) pairs over the
    distinct signatures seen that round; colours are ranks into it.
    """
    initial = degrees(g) if initial_labels is None else list(initial_labels)
    if len(initial) != g.n:
        raise InputError(f"expected {g.n} initial labels, got {len(initial)}")
    if not all(isinstance(lab, int) for lab in initial):
        raise InputError("initial labels must be integers")
    return (initial, *_refine(_neighbour_lists(g), initial))


def _neighbour_lists(g: Graph) -> list[list[int]]:
    flat, ends = g.indices.tolist(), g.indptr.tolist()
    return [flat[s:e] for s, e in zip(ends, ends[1:])]


def _refine(nbrs: list[list[int]], colors: list[int]) -> tuple[list[int], list[tuple]]:
    """Refinement rounds from checked labels: (final colours, tables)."""
    tables: list[tuple] = []
    for _ in range(len(nbrs)):
        signatures = [(colors[v], *sorted([colors[u] for u in nbrs[v]]))
                      for v in range(len(nbrs))]
        table = tuple(sorted(Counter(signatures).items()))
        rank = {sig: i for i, (sig, _) in enumerate(table)}
        new = [rank[sig] for sig in signatures]
        tables.append(table)
        # the signature holds the own colour, so the new partition refines
        # the old one and an unchanged class count means the same partition
        if len(table) == len(set(colors)):
            return new, tables
        colors = new
    raise InvariantViolation("refinement did not stabilise within n rounds")


def wl_refine(g: Graph, initial_labels=None) -> Coloring:
    """Refine integer node labels (degrees by default) to a stable partition.

    Stability means one more round would not change the grouping of
    nodes into colour classes; this is reached within n rounds, and the
    returned colouring is a fixed point of further refinement.
    """
    _, colors, tables = _refinement_run(g, initial_labels)
    return Coloring(colors=tuple(colors), rounds=len(tables))


def wl_fingerprint(g: Graph, initial_labels=None) -> tuple:
    """Canonical summary of the refinement run, comparable across graphs
    with ``==``: (n, initial label histogram, per-round tables)."""
    initial, _, tables = _refinement_run(g, initial_labels)
    return g.n, tuple(sorted(Counter(initial).items())), tuple(tables)


def wl_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Compare two graphs by refinement from degree labels."""
    if wl_fingerprint(g1) == wl_fingerprint(g2):
        return Verdict.INDISTINGUISHABLE
    return Verdict.DISTINGUISHABLE


def cantor_pair(a: int, b: int) -> int:
    """Bijection N x N -> N; packs two counts into one initial label."""
    if a < 0 or b < 0:
        raise InputError(f"cantor_pair needs nonnegative ints, got ({a}, {b})")
    return (a + b) * (a + b + 1) // 2 + b


def _augmented_labels(g: Graph) -> list[int]:
    tri = triangle_counts_per_node(g)
    return [cantor_pair(d, int(t)) for d, t in zip(degrees(g), tri)]


def augmented_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Refinement comparison from (degree, triangle count) initial labels.

    The triangle count injects closed-walk information that plain
    refinement provably cannot recover, so this verdict separates some
    pairs that :func:`wl_distinguish` cannot; it never separates less,
    because the initial labels refine the degree labels.
    """
    fp1 = wl_fingerprint(g1, _augmented_labels(g1))
    fp2 = wl_fingerprint(g2, _augmented_labels(g2))
    if fp1 == fp2:
        return Verdict.INDISTINGUISHABLE
    return Verdict.DISTINGUISHABLE


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


def _leaf_orders(nbrs: list[list[int]]):
    """Node orders at the leaves of the individualisation-refinement tree.

    Each child of a stable colouring gives one node of its first smallest
    non-singleton cell a colour of its own and refines; no step reads node
    ids, so isomorphic graphs share the leaf adjacencies. Twins (equal open
    or equal closed neighbourhoods; without loops no open one equals a
    closed one) swap by an automorphism, so one per twin class is searched."""
    twin_keys = [(frozenset(ns), frozenset(ns + [v])) for v, ns in enumerate(nbrs)]

    def search(colors: list[int]):
        cells = [[v for v, c in enumerate(colors) if c == k] for k in range(max(colors) + 1)]
        if len(cells) == len(colors):
            yield [cell[0] for cell in cells]
            return
        target = min((cell for cell in cells if len(cell) > 1), key=len)
        seen: set[frozenset] = set()
        for v in target:
            if seen.isdisjoint(twin_keys[v]):
                seen.update(twin_keys[v])
                labels = [2 * c + (u == v) for u, c in enumerate(colors)]
                yield from search(_refine(nbrs, labels)[0])

    yield from search(_refine(nbrs, [len(ns) for ns in nbrs])[0])


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Exact canonical form of a graph as a row-major 0/1 vector."""
    _check_canonical_size(g.n)  # before the dense matrix is built
    nbrs = _neighbour_lists(g)
    return _lex_min([[int(u in ns) for u in range(g.n)] for ns in nbrs], _leaf_orders(nbrs))


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs of at most
    :data:`CANONICAL_MAX_NODES` nodes via canonical forms."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    return canonical_form(g1) == canonical_form(g2)
