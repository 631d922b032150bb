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

Graphs are built, checked and read in batches: :func:`from_edge_lists`
and :func:`erdos_renyi_graphs` turn the edge ids of many graphs into
their CSR arrays with one sort per run of graphs (:func:`batch_runs`),
one vectorised :func:`_check_csr` checks the run as one graph, and
:func:`edge_arrays` reads the edges back the same way. A single graph is
a batch of one: :func:`from_edge_list`, :func:`erdos_renyi` and direct
:class:`Graph` construction take the same paths.
"""

from __future__ import annotations

import io
import itertools
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
        indptr, nbr = np.asarray(self.indptr), np.asarray(self.indices)
        _check_csr(self.n, indptr, nbr)
        self._adopt(indptr, nbr)

    def _adopt(self, indptr: np.ndarray, nbr: np.ndarray) -> None:
        """Hold ``indptr`` and ``nbr``, which :func:`_check_csr` passed, read-only."""
        # the index dtype scipy picks, so walks.adjacency_csr wraps the arrays
        dtype = np.int32 if nbr.size + self.n < 2**31 else np.int64
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
        (_, pairs), = edge_arrays([self])
        return list(zip(*pairs.T.tolist()))


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The int64 row id of every stored entry of a CSR layout."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _check_csr(n: int, indptr: np.ndarray, nbr: np.ndarray) -> None:
    """Raise :class:`InputError` unless ``indptr`` and ``nbr`` are the CSR
    arrays of a simple graph on ``n`` nodes. A run of graphs laid one
    after another (:func:`_build_run`) is checked as one such graph, its
    faults named by the run's node ids."""
    if n < 1:
        raise InputError(f"graph needs at least one node, got n={n}")
    for name, arr in (("indptr", indptr), ("node ids", nbr)):
        if arr.size and arr.dtype.kind not in "iu":
            raise InputError(f"{name} must be integers, got dtype {arr.dtype}")
    if indptr.shape != (n + 1,) or nbr.ndim != 1:
        raise InputError(f"indptr needs n + 1 = {n + 1} entries and indices one axis")
    if indptr[0] != 0:
        raise InputError(f"indptr must start at 0, got {indptr[0]}")
    i = _first(indptr[1:] < indptr[:-1])
    if i is not None:
        raise InputError(f"indptr decreases after node {i}")
    if indptr[-1] != nbr.size:
        raise InputError(f"edge_count does not match adjacency: indptr ends at "
                         f"{indptr[-1]}, not at indices.size = {nbr.size}")
    # The checks run on the flat row-major layout (one row id and one
    # neighbour id per stored entry) and report the first bad entry.
    row = _row_ids(indptr)
    i = _first((row[1:] == row[:-1]) & (nbr[1:] <= nbr[:-1]))
    if i is not None:
        raise InputError(f"neighbour list of {row[i]} is not sorted and duplicate-free")
    i = _first((nbr < 0) | (nbr >= n))
    if i is not None:
        raise InputError(f"node id {nbr[i]} out of range 0..{n - 1}")
    i = _first(nbr == row)
    if i is not None:
        raise InputError(f"self-loop at node {row[i]}")
    # Rows ascend and are strictly increasing, so the keys are sorted and
    # unique; the graph is symmetric when the reversed keys are a
    # permutation of them.
    col = nbr.astype(np.int64, copy=False)
    key = row * n
    key += col
    rev = col * n  # in place from here: a run's temporaries bound its memory
    rev += row
    rev.sort()
    if not np.array_equal(rev, key):  # an entry whose key is no reversed key
        i = _first(rev[np.searchsorted(rev, key).clip(max=rev.size - 1)] != key)
        raise InputError(f"edge ({row[i]}, {nbr[i]}) is not symmetric")


def _first(mask: np.ndarray) -> int | None:
    """The index of the first true entry of ``mask``, or None."""
    return int(mask.argmax()) if mask.any() else None


def edge_arrays(graphs):
    """Every edge of ``graphs`` with u < v, one run of graphs
    (:func:`batch_runs`) at a time: yields each run's graphs and the
    (k, 2) int64 array of their edges, by each graph's own ids, in sorted
    order, one graph after another."""
    for lo, hi in batch_runs([g.n + g.indices.size for g in graphs]):
        run = graphs[lo:hi]
        indptr, indices = concat_csr(run)
        row = _row_ids(indptr)
        upper = row < indices
        row, col = row[upper], indices[upper]
        if len(run) > 1:  # back to each graph's own ids
            first = np.repeat(np.cumsum([0] + [g.n for g in run[:-1]]), [g.n for g in run])[row]
            row, col = row - first, col - first
        yield run, np.stack([row, col], axis=1)


# Most nodes plus CSR entries (or, for a walk count, nodes plus
# sum_v d_v^2) that batch work handles at once. A larger batch goes in
# runs of whole graphs of at most this size, a graph past it in a run of
# its own, so a batch's temporaries stay about 1 MB however many graphs
# it holds (a few dozen bytes per unit) while each run still takes tens
# of small graphs.
RUN_SIZE = 1 << 13


def batch_runs(sizes, limit: int | None = None) -> list[tuple[int, int]]:
    """Cut a batch whose items have ``sizes`` into runs ``[lo, hi)`` of
    consecutive items whose sizes sum to at most :data:`RUN_SIZE` (and to
    at most ``limit``, when given); an item larger than that is a run
    alone."""
    if not sizes:
        return []
    limit = RUN_SIZE if limit is None else min(limit, RUN_SIZE)
    cuts, total = [0], 0
    for i, size in enumerate(sizes):
        if i > cuts[-1] and total + size > limit:
            cuts.append(i)
            total = 0
        total += size
    return list(zip(cuts, cuts[1:] + [len(sizes)]))


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


def _graphs_from_ids(sizes: list[int], counts: list[int], u: np.ndarray,
                     v: np.ndarray) -> list[Graph]:
    """The one graph-build core: graph i has ``sizes[i]`` nodes and the
    next ``counts[i]`` pairs of the integer id arrays ``u``, ``v`` (edge j
    joins ``u[j]`` and ``v[j]``, both ids of its graph); duplicates
    collapse and self-loops drop. The graphs are built in runs
    (:func:`batch_runs`)."""
    if len(sizes) == 1:
        return _build_run(sizes, counts, u, v)
    out, at = [], 0
    for lo, hi in batch_runs([n + 2 * c for n, c in zip(sizes, counts)]):
        end = at + sum(counts[lo:hi])
        out += _build_run(sizes[lo:hi], counts[lo:hi], u[at:end], v[at:end])
        at = end
    return out


def _build_run(sizes: list[int], counts: list[int], u: np.ndarray, v: np.ndarray) -> list[Graph]:
    """:func:`_graphs_from_ids` of one run.

    The run is built as one graph: its graphs are laid one after another,
    and each direction of an edge is keyed ``row * n + col`` by the run's
    node ids, ``n`` the run's node count (the keys stay below 2**63, as a
    run past RUN_SIZE is one graph of at most MAX_NODES). One sort of the
    distinct keys lays out every graph's CSR entries in order, one
    :func:`_check_csr` checks the run, and each graph holds slices of the
    run's arrays, shifted back to its own ids.
    """
    firsts = list(itertools.accumulate(sizes, initial=0))
    n = firsts[-1]
    proper = u != v
    if len(sizes) > 1:  # to the run's ids
        start = np.repeat(firsts[:-1], counts)
        u, v = start + u, start + v
        del start
    key = np.concatenate([(u * n + v)[proper], (v * n + u)[proper]])
    del u, v, proper
    key.sort()  # np.unique hashes int64 keys, which is far slower at 10^6 keys
    distinct = np.ones(key.size, dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    row, col = np.divmod(key[distinct], n)
    del key, distinct
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])
    del row
    _check_csr(n, indptr, col)
    ends = indptr[firsts].tolist()
    if len(sizes) > 1:  # back to each graph's own ids
        col -= np.repeat(firsts[:-1], np.diff(ends))
    if col.size + n < 2**31:  # every graph's arrays are int32 (Graph._adopt)
        indptr, col = indptr.astype(np.int32), col.astype(np.int32)
    out = []
    for size, first, a, b in zip(sizes, firsts, ends, ends[1:]):
        g = Graph.__new__(Graph)
        object.__setattr__(g, "n", size)
        g._adopt(indptr[first:first + size + 1] - a, col[a:b])
        out.append(g)
    return out


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs.

    Duplicate edges (in either order) collapse to one; self-loops are
    dropped. Node ids are Python or numpy integers (bool and float are
    rejected); an id of another type, a pair that is not two ids, or an
    id outside ``0..n-1`` raises :class:`InputError`. ``n`` above
    :data:`MAX_NODES` raises :class:`CapacityError` before anything is
    allocated per node.
    """
    return from_edge_lists([(n, edges)])[0]


def from_edge_lists(specs) -> list[Graph]:
    """:func:`from_edge_list` of every ``(n, edges)`` in ``specs``, built
    as one batch.

    When every ``n`` is an int node count and every edge list a list or
    tuple of pairs of two Python ints, the ids of all graphs are checked
    at once; otherwise, or when that check fails, each graph's pairs are
    checked in turn, and the first bad graph raises what it raises alone.
    """
    specs = list(specs)
    if not specs:
        return []
    ids = _batch_ids(specs)
    if ids is None:
        sizes, parts = [], []
        for n, edges in specs:
            n = _check_node_count(n)
            sizes.append(n)
            parts.append(_edge_ids(n, edges))
        ids = np.concatenate(parts)
        counts = [part.shape[0] for part in parts]
    else:
        sizes, counts = [n for n, _ in specs], [len(edges) for _, edges in specs]
    return _graphs_from_ids(sizes, counts, ids[:, 0], ids[:, 1])


def _edge_ids(n: int, edges) -> np.ndarray:
    """The (m, 2) int64 ids of ``edges``, each pair checked in turn."""
    ids = []
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
        ids += (u, v)
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


def _batch_ids(specs) -> np.ndarray | None:
    """The (m, 2) int64 ids of every graph of ``specs``, one graph after
    another, when all of them pass :func:`from_edge_list`'s checks and take
    the common form (int node counts, lists or tuples of two-id pairs of
    Python ints); None otherwise."""
    sizes = [n for n, _ in specs]
    lists = [edges for _, edges in specs]
    if (set(map(type, sizes)) != {int} or set(map(type, lists)) - {list, tuple}
            or min(sizes) < 1 or max(sizes) > MAX_NODES):
        return None
    pairs = list(itertools.chain.from_iterable(lists))
    if set(map(type, pairs)) - {list, tuple} or set(map(len, pairs)) - {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(type, flat)) - {int}:
        return None
    try:
        ids = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(-1, 2)
    except OverflowError:
        return None
    bound = np.repeat(sizes, [len(edges) for edges in lists])
    if (ids < 0).any() or (ids >= bound[:, None]).any():
        return None
    return ids


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs at least 3 nodes, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def concat_csr(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays ``(indptr, indices)`` of ``graphs`` laid one after
    another: the first on ids 0..n1-1, the second shifted up by n1, and so
    on, each node keeping its neighbours in their order. One graph's are
    its own arrays; several graphs' are new int64 arrays."""
    if len(graphs) == 1:
        return graphs[0].indptr, graphs[0].indices
    sizes = [g.n for g in graphs]
    counts = [g.indices.size for g in graphs]
    indptr = np.concatenate([[0]] + [g.indptr[1:] for g in graphs], dtype=np.int64)
    indptr[1:] += np.repeat(np.cumsum([0] + counts[:-1]), sizes)  # each graph's first entry
    indices = np.concatenate([g.indices for g in graphs], dtype=np.int64)
    indices += np.repeat(np.cumsum([0] + sizes[:-1]), counts)  # each graph's first node
    return indptr, indices


def disjoint_union(*graphs: Graph) -> Graph:
    """New graph holding ``graphs`` one after another, on the arrays of
    :func:`concat_csr`."""
    n = _check_node_count(sum(g.n for g in graphs))
    return Graph(n, *concat_csr(graphs))


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
    return erdos_renyi_graphs(n, p, [seed])[0]


def erdos_renyi_graphs(n: int, p: float, seeds) -> list[Graph]:
    """:func:`erdos_renyi` of each seed of ``seeds``: each graph's draws
    come from its own seed's stream, and the graphs are drawn and built in
    runs cut as :func:`batch_runs` cuts them, so only one run's kept pairs
    are held at a time."""
    n = _check_node_count(n)
    if n > MAX_ER_NODES:
        raise CapacityError(f"erdos_renyi supports n <= {MAX_ER_NODES}, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    iu, ju = (ids.astype(np.int32) for ids in np.triu_indices(n, k=1))

    def build(run: list[np.ndarray]) -> list[Graph]:
        pairs = np.concatenate(run)
        return _build_run([n] * len(run), [k.size for k in run], iu[pairs], ju[pairs])

    out, run, total = [], [], 0
    for seed in seeds:
        kept = np.flatnonzero(np.random.default_rng(seed).random(iu.size) < p)
        if run and total + n + 2 * kept.size > RUN_SIZE:
            out += build(run)
            run, total = [], 0
        run.append(kept)
        total += n + 2 * kept.size
    return out + build(run) if run else out


def degrees(g: Graph) -> list[int]:
    """Loop-free degree of every node, as Python ints."""
    return np.diff(g.indptr).tolist()


def bfs_distances(g: Graph, v: int) -> list[float]:
    """Hop distances from v; unreachable nodes get math.inf."""
    if not 0 <= v < g.n:
        raise InputError(f"node {v} out of range 0..{g.n - 1}")
    # scipy is imported on first use, as everywhere in this package, so
    # that a process which never builds a sparse matrix does not load it
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
    nodes, kept = region_masks(g, dist, spec)
    row, col = _row_ids(g.indptr)[kept], g.indices[kept]
    return RootedSubgraph(root=v, nodes=frozenset(np.flatnonzero(nodes).tolist()),
                          edges=frozenset(zip(row.tolist(), col.tolist())))


def region_masks(g: Graph, dist: np.ndarray, spec: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """The region of :func:`region_from_distances` as masks: one over the
    nodes, and one over the CSR entries that holds each kept edge (i, j)
    once, at its entry with i < j."""
    # a returning walk through edge (i, j) has length d(i) + d(j) + 1
    budget = spec.max_walk_length() - 1
    row, col = _row_ids(g.indptr), g.indices
    return dist <= spec.radius, (row < col) & (dist[row] + dist[col] <= budget)


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
    return _graphs_from_ids([n], [m], ids[:, 0], ids[:, 1])[0]


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


def read_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path))


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 raise InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    """Write a whole file via temp-and-rename so readers never see a torn file.

    An ``OSError`` names ``path``, not the temporary file, and keeps its
    errno (and so its subclass, such as ``FileNotFoundError``).
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc
        raise
