"""Colour refinement, cross-graph fingerprints, and exact canonical forms.

Refinement rounds replace each node's label with the sorted multiset of
labels in its closed neighbourhood (the node itself counts as one of its
own neighbours). Iteration stops once a round leaves the partition into
colour classes unchanged.

Two graphs are compared through :class:`Fingerprint`, a byte string
summarising the whole refinement run: node count, the initial label
histogram, and for every round the sorted table of distinct signatures
("codebook") together with the resulting colour histogram. Colours are
ranks into the round's codebook, so as long as two runs share the same
codebook prefix their colours mean the same thing and their histograms
are directly comparable; the first differing codebook or histogram is a
genuine structural difference. Equal fingerprints therefore mean the
refinement cannot tell the graphs apart, and isomorphic graphs always
get equal fingerprints. Unequal graphs can still collide in principle -
refinement is not a complete isomorphism test - which is why the exact
(factorial-cost) canonical form is provided for small graphs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, degrees
from .walks import triangle_counts_per_node

__all__ = [
    "Coloring",
    "Fingerprint",
    "Verdict",
    "wl_refine",
    "wl_fingerprint",
    "wl_distinguish",
    "augmented_distinguish",
    "cantor_pair",
    "lex_min_adjacency",
    "canonical_form",
    "is_isomorphic_small",
]


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


@dataclass(frozen=True)
class Fingerprint:
    """Deterministic byte summary of a refinement run; compare with ==."""

    data: bytes


def _partition_key(colors) -> tuple[int, ...]:
    # Canonical relabel by first occurrence; equal keys = equal partitions.
    first: dict = {}
    out = []
    for c in colors:
        if c not in first:
            first[c] = len(first)
        out.append(first[c])
    return tuple(out)


def _refinement_run(g: Graph, initial) -> tuple[list[int], list[tuple], list[list[tuple[int, int]]]]:
    """Run refinement to stability.

    Returns (final colours, per-round codebooks, per-round histograms).
    Each codebook is the sorted tuple of distinct signatures seen that
    round; colours are ranks into it.
    """
    colors = list(initial)
    if len(colors) != g.n:
        raise InputError(f"expected {g.n} initial labels, got {len(colors)}")
    codebooks: list[tuple] = []
    histograms: list[list[tuple[int, int]]] = []
    prev_key = _partition_key(colors)
    for _ in range(g.n):
        signatures = [
            tuple(sorted([colors[u] for u in g.adjacency[v]] + [colors[v]]))
            for v in range(g.n)
        ]
        codebook = tuple(sorted(set(signatures)))
        rank = {sig: i for i, sig in enumerate(codebook)}
        colors = [rank[sig] for sig in signatures]
        codebooks.append(codebook)
        histograms.append(sorted(Counter(colors).items()))
        key = _partition_key(colors)
        if key == prev_key:
            return colors, codebooks, histograms
        prev_key = key
    raise InvariantViolation("refinement did not stabilise within n rounds")


def _default_labels(g: Graph) -> list[int]:
    return degrees(g)


def wl_refine(g: Graph, initial_labels=None) -> Coloring:
    """Refine node labels to a stable partition (degrees by default).

    Stability means one more round would not change the grouping of
    nodes into colour classes; this is reached within n rounds, and the
    returned colouring is a fixed point of further refinement.
    """
    initial = _default_labels(g) if initial_labels is None else list(initial_labels)
    colors, codebooks, _ = _refinement_run(g, initial)
    return Coloring(colors=tuple(colors), rounds=len(codebooks))


def wl_fingerprint(g: Graph, initial_labels=None) -> Fingerprint:
    """Canonical summary of the refinement run, comparable across graphs."""
    initial = _default_labels(g) if initial_labels is None else list(initial_labels)
    for lab in initial:
        if not isinstance(lab, int):
            raise InputError("initial labels must be integers")
    _, codebooks, histograms = _refinement_run(g, initial)
    payload = (
        "wl-fingerprint-v1",
        g.n,
        tuple(sorted(Counter(initial).items())),
        tuple(
            (codebook, tuple(hist))
            for codebook, hist in zip(codebooks, histograms)
        ),
    )
    return Fingerprint(data=repr(payload).encode("utf-8"))


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


def lex_min_adjacency(matrix, guard: int = 8) -> tuple[int, ...]:
    """Lexicographically smallest row-major flattening over all node orders.

    Exact canonical form by factorial search with prefix pruning; the
    result is identical for isomorphic inputs and different otherwise.
    Guarded to n <= ``guard`` nodes (default 8).
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n > guard:
        raise CapacityError(f"canonical form supports n <= {guard}, got n={n}")
    for row in a:
        if len(row) != n:
            raise InputError("adjacency matrix must be square")
        for x in row:
            if x not in (0, 1):
                raise InputError("adjacency entries must be 0 or 1")
    best: list[tuple[int, ...]] | None = None
    for perm in itertools.permutations(range(n)):
        rows: list[tuple[int, ...]] = []
        smaller = False
        for i, pi in enumerate(perm):
            row = tuple(a[pi][pj] for pj in perm)
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
        raise InvariantViolation("no permutation produced a canonical adjacency")
    return tuple(x for row in best for x in row)


def canonical_form(g: Graph, with_self_loop_diagonal: bool = False, guard: int = 8) -> tuple[int, ...]:
    """Exact canonical form of a graph as a row-major 0/1 vector.

    With ``with_self_loop_diagonal`` the whole diagonal is set to 1
    before canonicalisation (the closed-neighbourhood convention).
    """
    mat = [[0] * g.n for _ in range(g.n)]
    for v, nbrs in enumerate(g.adjacency):
        for u in nbrs:
            mat[v][u] = 1
    if with_self_loop_diagonal:
        for v in range(g.n):
            mat[v][v] = 1
    return lex_min_adjacency(mat, guard=guard)


def is_isomorphic_small(g1: Graph, g2: Graph, guard: int = 8) -> bool:
    """Exact isomorphism test for small graphs via canonical forms."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    return canonical_form(g1, guard=guard) == canonical_form(g2, guard=guard)
