"""Inputs the benchmark makes itself, and its own answers for them.

Nothing here imports walklab. Graphs are plain ``(n, edges)`` pairs made
with numpy from the workload seed, and the reference counts come from
neighbour-set intersections (triangles) and co-degree pairs (4-cycles),
not from adjacency-matrix powers, so they check the program's walk
engine independently.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def sparse_er(n: int, avg_degree: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """G(n, p) edges with p chosen for the given expected average degree."""
    p = avg_degree / (n - 1)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def caterpillar(spine: int) -> tuple[int, list[tuple[int, int]]]:
    """A path of ``spine`` nodes with one pendant leaf on each. Colour
    refinement needs spine/2 rounds on it: colours spread inwards from
    the two ends, one step per round."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return 2 * spine, edges


def random_cubic(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random simple 3-regular graph by the pairing model with
    rejection (about 1 in 7.4 pairings is simple)."""
    if n % 2:
        raise ValueError("a 3-regular graph needs an even node count")
    stubs = np.repeat(np.arange(n), 3)
    while True:
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return sorted(edges)


def permuted(n: int, edges, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A relabelled copy: node v becomes perm[v]."""
    perm = rng.permutation(n)
    return [(int(perm[u]), int(perm[v])) for u, v in edges]


def small_pair(n: int, rng: np.random.Generator, isomorphic: bool):
    """Two graphs on ``n`` nodes with equal edge counts and a known answer.

    The isomorphic pair is a graph and a relabelled copy. The other pair
    moves one edge ``(u, v)`` to ``(u, w)`` so that the degree multiset
    changes, which rules out an isomorphism.
    """
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        if isomorphic:
            return edges, permuted(n, edges, rng)
        adj = neighbour_sets(n, edges)
        deg = [len(a) for a in adj]
        # Dropping (a, b) and adding (a, w) keeps the degree multiset
        # only when deg(w) == deg(b) - 1.
        moves = [(a, b, w) for u, v in edges for a, b in ((u, v), (v, u))
                 for w in range(n)
                 if w not in (a, b) and w not in adj[a] and deg[w] != deg[b] - 1]
        if not moves:
            continue
        a, b, w = moves[int(rng.integers(len(moves)))]
        moved = [e for e in edges if set(e) != {a, b}] + [(min(a, w), max(a, w))]
        return edges, permuted(n, moved, rng)


def neighbour_sets(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def triangles_per_node(n: int, edges) -> list[int]:
    """Triangles through each node, each triangle found once at its
    lowest edge ``u < v`` with apex ``w > v``."""
    adj = neighbour_sets(n, edges)
    tri = [0] * n
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    tri[u] += 1
                    tri[v] += 1
                    tri[w] += 1
    return tri


def four_cycles(n: int, edges) -> int:
    """Simple 4-cycles: a pair ``{a, c}`` with ``k`` common neighbours
    closes ``C(k, 2)`` of them, and each cycle has two such diagonals."""
    adj = neighbour_sets(n, edges)
    codegree: Counter = Counter()
    for v in range(n):
        nbrs = sorted(adj[v])
        for i, a in enumerate(nbrs):
            for c in nbrs[i + 1:]:
                codegree[(a, c)] += 1
    return sum(k * (k - 1) // 2 for k in codegree.values()) // 2


def edge_list_text(n: int, edges) -> str:
    """The program's plain text format: ``n m`` then one ``u v`` per line."""
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"
