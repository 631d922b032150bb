"""Exact walk counting on unweighted graphs.

Everything here is integer-exact. The k-th power of the adjacency matrix
counts length-k walks entry by entry, its diagonal counts closed walks,
and two closed-form reductions turn closed-walk counts into subgraph
counts: each node's triangles are half its closed 3-walks, and the
number of 4-node simple cycles falls out of ``trace(A^4)`` after
removing the degenerate closed 4-walks (edge back-and-forth and
2-paths traversed both ways).

Graph counts run on one sparse integer engine: the CSR adjacency wraps
the graph's own ``indptr`` and ``indices`` arrays, and because ``A`` is
symmetric the closed m-walks of node v are the row sums of
``A^floor(m/2) * A^ceil(m/2)`` (elementwise), so ``A^m`` itself is never
formed. Triangles per node are ``rowsum(A * A^2) / 2``, which reads
``A^2`` only at the positions of ``A``: the common neighbours of each
edge's ends. So without a square at hand they are counted on the CSR
arrays themselves, edge by edge (the "forward" count of Schank and Wagner
2005), and no product is formed. ``trace(A^4)`` is the sum of the squared
entries of ``A^2``, so a caller that needs it forms :func:`adjacency_square`
once and passes it to both counts. The work of ``A @ A``, the entries of
``A^2`` and the edge-by-edge count are all bounded by ``sum_v d_v^2``, so
a count costs O(sum_v d_v^2) time and memory; see
:data:`MAX_PRODUCT_WORK` for the capacity limit.

A batch of graphs is counted as one: ``closed_three_walks``,
``triangle_totals`` and ``four_cycle_counts`` lay runs of its graphs one
after another (a block-diagonal adjacency), count each run in one pass
(the edge-by-edge count, or one ``A @ A`` whose squared entries are
summed per graph) and cut the counts back per graph. A single graph is a
batch of one, and every guard holds per graph, so a batch counts exactly
what its graphs would alone.

Counts are held in int64 CSR matrices. Every multiplication first checks the
conservative bound ``inner_dim * max(a) * max(b) < 2**63`` and raises
:class:`CountOverflowError` instead of wrapping silently.

``scipy.sparse`` is imported on first use, by the functions that build a
CSR matrix, so a process that never forms one (``walklab wl``, the
edge-by-edge triangle count) does not pay for loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import (CapacityError, CountOverflowError, InputError,
                     InvariantViolation)
from .graphs import Graph, batch_runs, concat_csr

if TYPE_CHECKING:
    from scipy import sparse

_INT64_MAX = 2**63 - 1

# Capacity limit on one sparse product X @ Y, counted as multiply-adds:
# the sum over the stored entries (i, k) of X of the entries in row k of
# Y. For A @ A that is sum_v d_v^2, which also bounds the entries of A^2,
# so at the limit A^2 takes at most about 360 MB (int64 values plus int32
# column indices). ER graphs with n = 10**5 and average degree 10 have
# sum_v d_v^2 of about 1.1 * 10**7 and fit.
MAX_PRODUCT_WORK = 3 * 10**7


def adjacency_csr(g: Graph) -> sparse.csr_array:
    """Sparse int64 adjacency matrix.

    Wraps the graph's own read-only ``indptr`` and ``indices`` without a
    copy; they equal the arrays scipy builds from the dense matrix.
    """
    return _adjacency(g.indptr, g.indices)


def _adjacency(indptr: np.ndarray, indices: np.ndarray) -> sparse.csr_array:
    from scipy import sparse

    n = indptr.size - 1
    return sparse.csr_array((np.ones(indices.size, dtype=np.int64), indices, indptr),
                            shape=(n, n))


def _check_product_bound(a, b) -> None:
    # Entries are nonnegative, so every product entry is at most
    # inner_dim * max(a) * max(b); reject before int64 could wrap.
    bound = int(a.shape[1]) * int(a.data.max(initial=0)) * int(b.data.max(initial=0))
    if bound > _INT64_MAX:
        raise CountOverflowError(
            f"walk counts would exceed 2**63 - 1 (bound {bound})"
        )


def _check_work(work: int) -> None:
    if work > MAX_PRODUCT_WORK:
        raise CapacityError(
            f"sparse walk product needs {work} multiply-adds (sum_v d_v^2 "
            f"for A @ A); the limit is {MAX_PRODUCT_WORK}"
        )


def _checked_matmul(a, b):
    """``a @ b`` for two CSR count arrays, overflow-checked and held to
    :data:`MAX_PRODUCT_WORK`."""
    _check_product_bound(a, b)
    _check_work(int(np.diff(b.indptr)[a.indices].sum()))
    return a @ b


def _per_graph_sums(values: np.ndarray, firsts) -> np.ndarray:
    """The sums of ``values`` over each graph's nodes
    ``firsts[i]..firsts[i + 1] - 1`` (every graph has a node)."""
    return np.add.reduceat(values, firsts[:-1])


def _runs(graphs):
    """The batch ``graphs`` cut into runs of graphs counted together: for
    each run, its :func:`~walklab.graphs.concat_csr` arrays and its graphs'
    first nodes followed by its node count.

    Each graph's own ``sum_v d_v^2`` is held to :data:`MAX_PRODUCT_WORK`
    first, so a batch refuses what its graphs alone are refused. The runs
    are cut by :func:`~walklab.graphs.batch_runs` on each graph's nodes
    plus ``sum_v d_v^2``, which bounds a run's product, candidates and
    keys, and at most :data:`MAX_PRODUCT_WORK`: a run past either is a
    single graph.
    """
    sizes = [g.n for g in graphs]
    firsts = np.cumsum([0] + sizes)
    deg = np.concatenate([np.diff(g.indptr) for g in graphs])
    work = _per_graph_sums(np.square(deg, dtype=np.int64), firsts).tolist()
    for w in work:
        _check_work(w)
    for lo, hi in batch_runs([w + n for w, n in zip(work, sizes)], MAX_PRODUCT_WORK):
        yield *concat_csr(graphs[lo:hi]), firsts[lo:hi + 1] - firsts[lo]


def _closed_three_walks(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``diag(A^3)`` as int64, counted on CSR arrays (of one graph or of a
    run of graphs laid one after another).

    Each triangle a < b < c is found once, from its edge (a, b) and a
    neighbour c > b of b: one binary search of the sorted keys
    ``a * n + b`` of the edges (a < b) tests the edge (a, c). A node's
    closed 3-walks are twice its triangles. The candidates, paths
    a - b - c, number at most ``sum_v d_v^2 / 4``, which :func:`_runs`
    holds to :data:`MAX_PRODUCT_WORK` like ``A @ A``; the count needs no
    overflow check: no entry passes ``max_v d_v^2``."""
    n = indptr.size - 1
    deg = np.diff(indptr).astype(np.int64)
    row = np.repeat(np.arange(n), deg)
    col = indices.astype(np.int64)
    forward = row < col
    a, b = row[forward], col[forward]
    keys = a * n + b  # sorted: rows ascend and each row's ids increase
    # a row's neighbours above its node follow those below it; they are
    # the candidates c of the edges (a, b) that end at the row
    above = indptr[:-1] + np.bincount(b, minlength=n)
    count = (indptr[1:] - above)[b]
    ends = np.cumsum(count)
    pos = np.repeat(above[b] - ends + count, count)
    pos += np.arange(pos.size)  # each candidate's entry in the CSR arrays
    wanted = np.repeat(a * n, count)  # the key of the edge (a, c)
    wanted += col[pos]
    del pos
    found = np.searchsorted(keys, wanted)
    np.minimum(found, keys.size - 1, out=found)
    found = np.flatnonzero(keys[found] == wanted)  # candidates that close a triangle
    closing = wanted[found]
    middle = b[np.searchsorted(ends, found, side="right")]
    corners = (closing // n, middle, closing % n)
    return 2 * sum(np.bincount(nodes, minlength=n) for nodes in corners)


def closed_three_walks(graphs) -> np.ndarray:
    """``diag(A^3)`` of every node of the batch ``graphs``, one graph after
    another, counted edge by edge over each run's concatenated arrays with
    no product formed."""
    if not graphs:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([_closed_three_walks(indptr, indices)
                           for indptr, indices, _ in _runs(graphs)])


def adjacency_square(g: Graph) -> tuple[sparse.csr_array, sparse.csr_array]:
    """The CSR adjacency ``A`` and ``A @ A``: the one product a triangle
    and 4-cycle count needs. Pass it to :func:`triangle_counts_per_node`
    and :func:`four_cycle_count` to count both from it."""
    a = adjacency_csr(g)
    return a, _checked_matmul(a, a)


def diag_closed_walks(g: Graph, m: int, square=None) -> np.ndarray:
    """Per-node count of closed walks of length exactly m (diagonal of A^m).

    Computed as ``rowsum(A^floor(m/2) * A^ceil(m/2))``, which equals the
    diagonal of ``A^m`` because ``A`` is symmetric. ``square`` is
    :func:`adjacency_square` of ``g`` when it is already at hand. Without
    it, m = 3 is :func:`closed_three_walks` of a batch of one, twice each
    node's triangles, and forms no product.
    """
    if m < 1:
        raise InputError(f"walk length must be >= 1, got {m}")
    if m == 1:  # a graph has no self-loop, so no closed 1-walk
        return np.zeros(g.n, dtype=np.int64)
    if m == 3 and square is None:
        return closed_three_walks([g])
    a, *known = (adjacency_csr(g),) if square is None else square
    powers = [a, *known]  # powers[k - 1] is A^k
    while len(powers) < (m + 1) // 2:
        powers.append(_checked_matmul(powers[-1], a))
    half = powers[m // 2 - 1]
    other = powers[(m + 1) // 2 - 1]
    # The row sums are the diagonal of half @ other, under the same bound.
    _check_product_bound(half, other)
    return np.asarray(half.multiply(other).sum(axis=1), dtype=np.int64)


def _halved(closed3: np.ndarray) -> np.ndarray:
    if (closed3 % 2).any():
        raise InvariantViolation("a closed 3-walk count is odd")
    return closed3 // 2


def triangle_counts_per_node(g: Graph, square=None) -> np.ndarray:
    """Triangles through each node: half the node's closed 3-walks.
    ``square`` is :func:`adjacency_square` of ``g`` when it is already
    at hand."""
    return _halved(diag_closed_walks(g, 3, square))


def triangles_per_node(graphs) -> np.ndarray:
    """:func:`triangle_counts_per_node` of every node of the batch
    ``graphs``, one graph after another, from one
    :func:`closed_three_walks`."""
    return _halved(closed_three_walks(graphs))


def _triangle_totals(totals: list[int]) -> list[int]:
    """Each graph's triangles from the sum of its nodes' counts; each
    triangle is seen from its three nodes."""
    for total in totals:
        if total % 3:
            raise InvariantViolation(
                f"per-node triangle counts sum to {total}, not a multiple of 3")
    return [total // 3 for total in totals]


def triangle_total(g: Graph, per_node: np.ndarray | None = None) -> int:
    """Number of triangle subgraphs; each is seen from its three nodes.

    Pass ``per_node`` (from :func:`triangle_counts_per_node`) when it is
    already at hand, so it is not computed again.
    """
    if per_node is None:
        per_node = triangle_counts_per_node(g)
    return _triangle_totals([int(per_node.sum())])[0]


def triangle_totals(graphs) -> list[int]:
    """:func:`triangle_total` of every graph of the batch ``graphs``."""
    firsts = np.cumsum([0] + [g.n for g in graphs])
    return _triangle_totals(_per_graph_sums(triangles_per_node(graphs), firsts).tolist())


def _four_cycles(trace4: list[int], degree_sums: list[int], paths2: list[int]) -> list[int]:
    """Each graph's 4-cycles from its ``trace(A^4)``, its degree sum (twice
    its edges) and its 2-paths ``sum_v C(d_v, 2)``.

    Closed 4-walks decompose into genuine 4-cycles (8 walks each: 4
    starts x 2 directions), edge back-and-forths (2 per edge), and
    2-paths walked out-and-back from either end (4 per path), so

        C4 = (trace(A^4) - 2 * edge_count - 4 * sum_v C(d_v, 2)) / 8.
    """
    counts = []
    for t, d, p in zip(trace4, degree_sums, paths2):
        raw = t - d - 4 * p
        if raw < 0 or raw % 8:
            raise InvariantViolation(
                f"closed 4-walk remainder {raw} is not a nonnegative multiple of 8")
        counts.append(raw // 8)
    return counts


def four_cycle_count(g: Graph, square=None) -> int:
    """Number of simple 4-cycle subgraphs (see :func:`_four_cycles`).

    ``square`` is :func:`adjacency_square` of ``g`` when it is already at
    hand; without it, the graph is counted as a batch of one.
    """
    if square is None:
        return four_cycle_counts([g])[0]
    a, a2 = square
    # trace(A^4) = sum of squared entries of A^2. Those entries sum to
    # sum_v d_v^2 and are each at most max_v d_v, so the int64 sum stays
    # below MAX_PRODUCT_WORK**1.5.
    deg = np.diff(a.indptr).astype(np.int64)
    return _four_cycles([int(np.dot(a2.data, a2.data))], [2 * g.edge_count],
                        [int((deg * (deg - 1) // 2).sum())])[0]


def four_cycle_counts(graphs) -> list[int]:
    """:func:`four_cycle_count` of every graph of the batch ``graphs``,
    from one ``A @ A`` per run of graphs, cut back into each graph's
    ``trace(A^4)``."""
    if not graphs:
        return []
    trace4, degs = [], []
    for indptr, indices, firsts in _runs(graphs):
        a = _adjacency(indptr, indices)
        a2 = _checked_matmul(a, a)
        squares = np.concatenate([[0], np.cumsum(a2.data * a2.data)])
        trace4.append(np.diff(squares[a2.indptr[firsts]]))
        degs.append(np.diff(indptr))
    deg = np.concatenate(degs).astype(np.int64)
    firsts = np.cumsum([0] + [g.n for g in graphs])
    return _four_cycles(np.concatenate(trace4).tolist(), _per_graph_sums(deg, firsts).tolist(),
                        _per_graph_sums(deg * (deg - 1) // 2, firsts).tolist())
