"""Immutable simple graphs and walk-bounded aggregation regions.

Graphs are finite, undirected, unweighted, and loop-free, with nodes
``0..n-1``. The aggregation regions come in two kinds per radius ``k``:

* kind ``"D"``: the subgraph a node can cover with returning walks of
  length at most ``2k``. By BFS distance from the root ``v`` this is
  nodes ``{u : d(u) <= k}`` and edges ``{(i, j) : d(i) + d(j) <= 2k - 1}``.
* kind ``"L"``: the same with walk length at most ``2k + 1``, which
  additionally picks up edges between two nodes at distance exactly
  ``k`` (``d(i) + d(j) <= 2k``).

For every root the regions nest: ``D_k ⊆ L_k ⊆ D_{k+1}``.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with a fixed node set ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``; the
    structure is symmetric, loop-free, and duplicate-free. Instances are
    hashable and compare by value.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InputError(f"graph needs at least one node, got n={n}")
        if len(self.adjacency) != n:
            raise InputError("adjacency length does not match node count")
        # The checks run on the flat row-major layout (one row id and one
        # neighbour id per stored entry) and report the first bad entry.
        deg = np.fromiter(map(len, self.adjacency), dtype=np.int64, count=n)
        nbr = np.array(list(itertools.chain.from_iterable(self.adjacency)))
        if nbr.size and nbr.dtype.kind not in "iu":
            raise InputError(f"node ids must be integers, got dtype {nbr.dtype}")
        nbr = nbr.astype(np.int64)
        row = np.repeat(np.arange(n), deg)
        bad = np.flatnonzero((row[1:] == row[:-1]) & (nbr[1:] <= nbr[:-1]))
        if bad.size:
            raise InputError(f"neighbour list of {row[bad[0]]} is not sorted and duplicate-free")
        bad = np.flatnonzero((nbr < 0) | (nbr >= n))
        if bad.size:
            raise InputError(f"node id {nbr[bad[0]]} out of range 0..{n - 1}")
        bad = np.flatnonzero(nbr == row)
        if bad.size:
            raise InputError(f"self-loop at node {row[bad[0]]}")
        # Rows ascend and are strictly increasing, so the keys are sorted
        # and unique; the graph is symmetric when the reversed keys are a
        # permutation of them.
        key = row * n + nbr
        rev = nbr * n + row
        if not np.array_equal(np.sort(rev), key):
            pos = np.searchsorted(key, rev).clip(max=key.size - 1)
            i = np.flatnonzero(key[pos] != rev)[0]
            raise InputError(f"edge ({row[i]}, {nbr[i]}) is not symmetric")
        if nbr.size != 2 * self.edge_count:
            raise InputError("edge_count does not match adjacency")

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in sorted order."""
        return [(v, u) for v in range(self.n) for u in self.adjacency[v] if v < u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


_INT_IDS = (int, np.integer)

# Node limit of from_edge_list: a graph holds a neighbour list per node,
# about 90 bytes per node at peak while it is built (92 MB at 10^6 nodes),
# so ~190 MB at the limit.
MAX_NODES = 2_000_000


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs.

    Duplicate edges (in either order) collapse to one; self-loops are
    dropped. Node ids are Python or numpy integers (bool and float are
    rejected); an id of another type, a pair that is not two ids, or an
    id outside ``0..n-1`` raises :class:`InputError`. ``n`` above
    :data:`MAX_NODES` raises :class:`CapacityError` before anything is
    allocated per node.
    """
    if n.__class__ is bool or not isinstance(n, _INT_IDS):
        raise InputError(f"node count must be an integer, got {n!r}")
    if n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    if n > MAX_NODES:
        raise CapacityError(f"graphs support n <= {MAX_NODES}, got n={n}")
    pairs = set()
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise InputError(f"edge {pair!r} is not a (u, v) pair") from exc
        if (u.__class__ is bool or v.__class__ is bool
                or not isinstance(u, _INT_IDS) or not isinstance(v, _INT_IDS)):
            raise InputError(f"edge ({u!r}, {v!r}) needs two integer node ids")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        if u < v:
            pairs.add((u, v))
        elif v < u:
            pairs.add((v, u))
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    adjacency = tuple(tuple(sorted(a)) for a in nbrs)
    return Graph(n=n, adjacency=adjacency, edge_count=len(pairs))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs at least 3 nodes, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """New graph holding g1 on ids 0..n1-1 and g2 shifted up by n1."""
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return from_edge_list(g1.n + g2.n, g1.edges() + shifted)


def relabel(g: Graph, perm) -> Graph:
    """Apply a node permutation: node v of g becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm is not a permutation of 0..n-1")
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# Node limit of erdos_renyi: it draws one uniform per node pair and holds
# the pair indices, about 25 bytes per pair, so ~200 MB at 4000 nodes.
MAX_ER_NODES = 4000


def erdos_renyi(n: int, p: float, seed) -> Graph:
    """G(n, p) sample; each of the C(n, 2) edges is kept with probability p.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; draws come
    from numpy's PCG64 stream, one uniform per node pair in row-major
    pair order, so samples are reproducible bit-for-bit across runs.
    Memory is O(n^2), so ``n`` above :data:`MAX_ER_NODES` raises
    :class:`CapacityError`.
    """
    if n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    if n > MAX_ER_NODES:
        raise CapacityError(f"erdos_renyi supports n <= {MAX_ER_NODES}, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return from_edge_list(n, zip(iu[keep].tolist(), ju[keep].tolist()))


def degrees(g: Graph) -> list[int]:
    """Loop-free degree of every node."""
    return [len(nbrs) for nbrs in g.adjacency]


def bfs_distances(g: Graph, v: int) -> list[float]:
    """Hop distances from v; unreachable nodes get math.inf."""
    if not 0 <= v < g.n:
        raise InputError(f"node {v} out of range 0..{g.n - 1}")
    dist: list[float] = [math.inf] * g.n
    dist[v] = 0
    frontier = [v]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if dist[w] > d:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class RegionSpec:
    """Which aggregation region to extract: kind ``"D"`` or ``"L"``, radius >= 1."""

    kind: str
    radius: int

    def __post_init__(self) -> None:
        if self.kind not in ("D", "L"):
            raise InputError(f"region kind must be 'D' or 'L', got {self.kind!r}")
        if self.radius < 1:
            raise InputError(f"region radius must be >= 1, got {self.radius}")

    def max_walk_length(self) -> int:
        """Longest returning walk the region accounts for."""
        return 2 * self.radius + (1 if self.kind == "L" else 0)


@dataclass(frozen=True)
class RootedSubgraph:
    """A region around ``root``: node ids and edges of the host graph.

    Edges are stored as (u, v) pairs with u < v. The node set is always
    connected through the stored edges and contains the root.
    """

    root: int
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


def extract_region(g: Graph, v: int, spec: RegionSpec) -> RootedSubgraph:
    """Extract the D- or L-region of radius ``spec.radius`` around v.

    Nodes are those within BFS distance ``k`` of v. An edge (i, j) of g
    is kept when ``d(i) + d(j) <= 2k - 1`` for kind D, or ``<= 2k`` for
    kind L; both thresholds say a returning walk through the edge fits
    the region's walk-length budget.
    """
    dist = bfs_distances(g, v)
    k = spec.radius
    budget = 2 * k - 1 if spec.kind == "D" else 2 * k
    nodes = frozenset(u for u in range(g.n) if dist[u] <= k)
    edges = frozenset(
        (i, j) for i, j in g.edges() if dist[i] + dist[j] <= budget
    )
    return RootedSubgraph(root=v, nodes=nodes, edges=edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text graph format.

    The first data line is ``n m``; each of the next m lines is an edge
    ``u v``. Blank lines and lines starting with ``#`` are ignored, as is
    a trailing ``#`` comment on any line.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise InputError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise InputError(f"expected header 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InputError(f"bad header {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise InputError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected edge 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"bad edge line {line!r}") from exc
    return from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path))


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def write_edge_list(g: Graph, path) -> None:
    atomic_write_text(path, format_edge_list(g))


def atomic_write_text(path, text: str) -> None:
    """Write a whole file via temp-and-rename so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
