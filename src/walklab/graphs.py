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

import io
import os
import re
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with a fixed node set ``0..n-1``.

    The adjacency is held in CSR form: the neighbours of ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted and duplicate-free, and
    the structure is symmetric and loop-free. Both arrays are read-only
    integer arrays (int32 unless the graph needs int64), adopted without
    a copy. Graphs compare by value and are not hashable.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InputError(f"graph needs at least one node, got n={n}")
        indptr, nbr = np.asarray(self.indptr), np.asarray(self.indices)
        for name, arr in (("indptr", indptr), ("node ids", nbr)):
            if arr.size and arr.dtype.kind not in "iu":
                raise InputError(f"{name} must be integers, got dtype {arr.dtype}")
        if indptr.shape != (n + 1,) or nbr.ndim != 1:
            raise InputError(f"indptr needs n + 1 = {n + 1} entries and indices one axis")
        if indptr[0] != 0:
            raise InputError(f"indptr must start at 0, got {indptr[0]}")
        bad = np.flatnonzero(indptr[1:] < indptr[:-1])
        if bad.size:
            raise InputError(f"indptr decreases after node {bad[0]}")
        if indptr[-1] != nbr.size:
            raise InputError(f"edge_count does not match adjacency: indptr ends at "
                             f"{indptr[-1]}, not at indices.size = {nbr.size}")
        # The checks run on the flat row-major layout (one row id and one
        # neighbour id per stored entry) and report the first bad entry.
        row = _row_ids(indptr)
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
        col = nbr.astype(np.int64)
        key = row * n + col
        rev = col * n + row
        if not np.array_equal(np.sort(rev), key):
            pos = np.searchsorted(key, rev).clip(max=key.size - 1)
            i = np.flatnonzero(key[pos] != rev)[0]
            raise InputError(f"edge ({row[i]}, {nbr[i]}) is not symmetric")
        # the index dtype scipy picks, so walks.adjacency_csr wraps the arrays
        dtype = np.int32 if nbr.size + n < 2**31 else np.int64
        for name, arr in (("indptr", indptr), ("indices", nbr)):
            arr = arr.astype(dtype, copy=False)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs of Python ints with u < v, in sorted order."""
        row = _row_ids(self.indptr)
        upper = row < self.indices
        return list(zip(row[upper].tolist(), self.indices[upper].tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.indices[self.indptr[u]:self.indptr[u + 1]]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The int64 row id of every stored entry of a CSR layout."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


_INT_IDS = (int, np.integer)

# Node limit of from_edge_list and parse_edge_list: a graph holds a 4-byte
# CSR row pointer per node, and its build peaks at about 24 bytes per node
# before any edge is counted (24 MB at 10^6 nodes), so ~48 MB at the limit.
MAX_NODES = 2_000_000


def _check_node_count(n) -> int:
    if n.__class__ is bool or not isinstance(n, _INT_IDS):
        raise InputError(f"node count must be an integer, got {n!r}")
    if n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    if n > MAX_NODES:
        raise CapacityError(f"graphs support n <= {MAX_NODES}, got n={n}")
    return int(n)


def _graph_from_ids(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The one graph-build core: int64 id arrays ``u``, ``v`` (all in
    ``0..n-1``) become a graph; duplicates collapse and self-loops drop.

    Each direction of an edge is keyed ``row * n + col`` (below 2**63
    since n <= MAX_NODES); the sorted distinct keys are the CSR entries
    in order.
    """
    proper = u != v
    u, v = u[proper], v[proper]
    key = np.concatenate([u * n + v, v * n + u])
    key.sort()  # np.unique hashes int64 keys, which is far slower at 10^6 keys
    distinct = np.ones(key.size, dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    row, col = np.divmod(key[distinct], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])
    return Graph(n=n, indptr=indptr, indices=col)


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs.

    Duplicate edges (in either order) collapse to one; self-loops are
    dropped. Node ids are Python or numpy integers (bool and float are
    rejected); an id of another type, a pair that is not two ids, or an
    id outside ``0..n-1`` raises :class:`InputError`. ``n`` above
    :data:`MAX_NODES` raises :class:`CapacityError` before anything is
    allocated per node.
    """
    n = _check_node_count(n)
    us, vs = [], []
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
        us.append(u)
        vs.append(v)
    return _graph_from_ids(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs at least 3 nodes, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def concat_csr(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices)`` of ``graphs`` laid one after
    another: the first on ids 0..n1-1, the second shifted up by n1, and so
    on, each node keeping its neighbours in their order. One graph's are
    its own arrays; several graphs' are new int64 arrays."""
    if len(graphs) == 1:
        return graphs[0].indptr, graphs[0].indices
    sizes = [g.n for g in graphs]
    firsts = np.cumsum([0] + sizes)  # each graph's first node, then n
    starts = np.cumsum([0] + [g.indices.size for g in graphs])  # each one's first entry
    indptr = np.concatenate([[0]] + [g.indptr[1:] for g in graphs]).astype(np.int64)
    indptr[1:] += np.repeat(starts[:-1], sizes)
    indices = (np.concatenate([g.indices for g in graphs]).astype(np.int64)
               + np.repeat(firsts[:-1], np.diff(starts)))
    return indptr, indices


def disjoint_union(*graphs: Graph) -> Graph:
    """New graph holding ``graphs`` one after another, on the arrays of
    :func:`concat_csr`."""
    n = _check_node_count(sum(g.n for g in graphs))
    return Graph(n, *concat_csr(graphs))


def relabel(g: Graph, perm) -> Graph:
    """Apply a node permutation: node v of g becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm is not a permutation of 0..n-1")
    p = np.array(perm, dtype=np.int64)
    return _graph_from_ids(g.n, p[_row_ids(g.indptr)], p[g.indices])


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
    n = _check_node_count(n)
    if n > MAX_ER_NODES:
        raise CapacityError(f"erdos_renyi supports n <= {MAX_ER_NODES}, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    return _graph_from_ids(n, iu[keep], ju[keep])


def degrees(g: Graph) -> list[int]:
    """Loop-free degree of every node, as Python ints."""
    return np.diff(g.indptr).tolist()


def bfs_distances(g: Graph, v: int) -> list[float]:
    """Hop distances from v; unreachable nodes get math.inf."""
    if not 0 <= v < g.n:
        raise InputError(f"node {v} out of range 0..{g.n - 1}")
    # imported here: loading csgraph would add to every CLI start-up
    from scipy.sparse import csgraph, csr_array

    a = csr_array((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    return csgraph.shortest_path(a, unweighted=True, indices=v).tolist()


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
    return region_from_distances(g, v, np.array(bfs_distances(g, v)), spec)


def region_from_distances(g: Graph, v: int, dist: np.ndarray,
                          spec: RegionSpec) -> RootedSubgraph:
    """:func:`extract_region` from ``dist``, the BFS distances from v, so
    that every region around one root can share a single search."""
    # a returning walk through edge (i, j) has length d(i) + d(j) + 1
    budget = spec.max_walk_length() - 1
    row, col = _row_ids(g.indptr), g.indices
    kept = (row < col) & (dist[row] + dist[col] <= budget)
    return RootedSubgraph(root=v, nodes=frozenset(np.flatnonzero(dist <= spec.radius).tolist()),
                          edges=frozenset(zip(row[kept].tolist(), col[kept].tolist())))


# The integer syntax of the edge-list format: an optional sign and ASCII
# digits, which is what numpy's int64 text reader accepts.
_INT_SYNTAX = re.compile(r"[+-]?[0-9]+")


def _data(line: str) -> str:
    """A line without its ``#`` comment and surrounding whitespace."""
    return line.split("#", 1)[0].strip()


def _parse_int(field: str) -> int | None:
    return int(field) if _INT_SYNTAX.fullmatch(field) else None


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text graph format.

    The first data line is ``n m``; each of the next m data lines is an
    edge ``u v``. Fields are separated by whitespace, and every number is
    an optional sign followed by ASCII digits. Lines end with ``\\n`` or
    ``\\r\\n``. Blank lines and lines starting with ``#`` are ignored, as
    is a trailing ``#`` comment on any line. The body is read in one
    vectorised pass; any input it rejects raises :class:`InputError`
    naming the first bad line.
    """
    pos, lineno = 0, 0
    while True:
        end = text.find("\n", pos)
        lineno += 1
        line = _data(text[pos:] if end < 0 else text[pos:end])
        if line:
            break
        if end < 0:
            raise InputError("empty edge-list input")
        pos = end + 1
    head = line.split()
    if len(head) != 2:
        raise InputError(f"line {lineno}: expected header 'n m', got {line!r}")
    n, m = map(_parse_int, head)
    if n is None or m is None or m < 0:
        raise InputError(f"line {lineno}: bad header {line!r}")
    n = _check_node_count(n)
    body = "" if end < 0 else text[end + 1:]
    try:
        with warnings.catch_warnings():
            # an empty body is legal when m = 0; numpy warns about it
            warnings.simplefilter("ignore", UserWarning)
            ids = np.loadtxt(io.StringIO(body), dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, OverflowError) as exc:
        raise _bad_line(body, lineno, n, m, str(exc)) from None
    if m == 0 and ids.size == 0:
        ids = ids.reshape(0, 2)
    if ids.shape != (m, 2) or (m and (ids.min() < 0 or ids.max() >= n)):
        raise _bad_line(body, lineno, n, m, f"expected {m} edges between nodes 0..{n - 1}")
    return _graph_from_ids(n, ids[:, 0], ids[:, 1])


def _bad_line(body: str, lineno: int, n: int, m: int, reason: str) -> InputError:
    """The error path of :func:`parse_edge_list`: scan the body after the
    header (on line ``lineno``) line by line for the first bad line and
    return the :class:`InputError` that names it. ``reason`` is the
    message when no single line is at fault."""
    edges = 0
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()  # the end of the last line, or an empty body
    last = lineno + len(lines)
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = _data(raw)
        if not line:
            continue
        edges += 1
        if edges > m:
            return InputError(f"line {lineno}: header declares {m} edges but more lines follow")
        fields = line.split()
        if len(fields) != 2:
            return InputError(f"line {lineno}: expected edge 'u v', got {line!r}")
        u, v = map(_parse_int, fields)
        if u is None or v is None:
            return InputError(f"line {lineno}: bad edge line {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            return InputError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
    if edges < m:
        return InputError(f"line {last}: input ends after {edges} of the {m} edges "
                          "the header declares")
    return InputError(f"unreadable edge list: {reason}")


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
