"""Exact walk counting on unweighted graphs.

Every count here is an exact integer. The diagonal of ``A^k`` counts
closed k-walks, and two closed-form reductions turn them into subgraph
counts: each node's triangles are half its closed 3-walks, and the 4-node
simple cycles fall out of ``trace(A^4)`` once the degenerate closed
4-walks (edge back-and-forths, 2-paths walked both ways) are removed.

Both need only the co-degrees ``A^2[u, w]``. On a sparse graph no product
is formed: ``diag(A^3)`` is counted edge by edge on the CSR arrays (the
"forward" count of Schank and Wagner 2005), and the keys ``u * n + w`` of
the wedges u - v - w (u < w) are sorted once, a key's run being c_uw, so
``trace(A^4) = sum_v d_v^2 + 2 * sum c_uw^2`` (Chiba and Nishizeki 1985).
A dense graph forms a float32 ``A @ A`` with BLAS instead. All of it is
bounded by ``sum_v d_v^2``; see :data:`MAX_PRODUCT_WORK`.

Longer closed walks are int64 CSR products: as ``A`` is symmetric, the
closed m-walks of node v are the row sums of ``A^floor(m/2) *
A^ceil(m/2)`` (elementwise). Every product first checks ``inner_dim *
max(a) * max(b) < 2**63`` and raises :class:`CountOverflowError` instead
of wrapping. ``scipy.sparse`` is imported only there, on first use.

A batch of graphs is counted in runs laid one after another, cut back per
graph; every guard holds per graph, so a batch counts what its graphs would.
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

# Capacity limit on one sparse product X @ Y, counted as multiply-adds: the
# sum over the stored entries (i, k) of X of the entries in row k of Y. For
# A @ A that is sum_v d_v^2, which also bounds the wedges (half of it) and the
# edge-by-edge candidates (a quarter). At the limit (tracemalloc; ER graphs, a
# star, K_2,m, K_4,m) the wedge sort peaks at 218 MB (ER, n = 272 000: int64
# keys; K_2,3870: 143 MB), the edge count at 209 MB, a dense square at 44 MB.
# ER graphs with n = 10**5 and average degree 10 (sum_v d_v^2 ~ 1.1e7) fit.
MAX_PRODUCT_WORK = 3 * 10**7
_BLAS_PER_WEDGE = 1000  # see _dense_square


def adjacency_csr(g: Graph) -> sparse.csr_array:
    """Sparse int64 adjacency matrix.

    Wraps the graph's own read-only ``indptr`` and ``indices`` without a
    copy; they equal the arrays scipy builds from the dense matrix.
    """
    from scipy import sparse

    return sparse.csr_array((np.ones(g.indices.size, dtype=np.int64), g.indices, g.indptr),
                            shape=(g.n, g.n))


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


def _dense_square(indptr: np.ndarray, indices: np.ndarray):
    """``A`` and ``A @ A`` of CSR arrays as float32 arrays where BLAS is
    faster, else None: it takes about 10 ps a multiply-add, the sparse passes
    20-40 ns a wedge (2-core x86 host), so n^3 must stay below
    ``_BLAS_PER_WEDGE`` times the wedges. It is exact: n < 2467 at
    :data:`MAX_PRODUCT_WORK`, so every sum in it stays below n^2 < 2**24."""
    n = indptr.size - 1
    deg = np.diff(indptr).astype(np.int64)
    if n ** 3 >= _BLAS_PER_WEDGE * int((deg * (deg - 1)).sum() // 2):
        return None
    a = np.zeros((n, n), dtype=np.float32)
    a[np.repeat(np.arange(n), deg), indices] = 1
    return a, a @ a


def _runs(graphs):
    """The batch ``graphs`` cut into runs of graphs counted together: for
    each run, its :func:`~walklab.graphs.concat_csr` arrays and its graphs'
    first nodes followed by its node count. Each graph's own ``sum_v
    d_v^2`` is held to :data:`MAX_PRODUCT_WORK` first, so a batch refuses
    what its graphs alone are refused; :func:`~walklab.graphs.batch_runs`
    cuts the runs on each graph's nodes plus ``sum_v d_v^2``, which bounds
    a run's wedges and candidates, and at most :data:`MAX_PRODUCT_WORK`."""
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
    run of graphs laid one after another). Each triangle a < b < c is found
    once, from its edge (a, b) and a neighbour c > b of b: one binary
    search of the sorted keys ``a * n + b`` of the edges (a < b) tests the
    edge (a, c). A node's closed 3-walks are twice its triangles. The
    candidates, paths a - b - c, number at most ``sum_v d_v^2 / 4``, which
    :func:`_runs` holds to :data:`MAX_PRODUCT_WORK`; the count needs no
    overflow check: no entry passes ``max_v d_v^2``."""
    dense = _dense_square(indptr, indices)
    if dense:  # the row sums of A * A^2
        return np.multiply(*dense, out=dense[1]).sum(axis=1, dtype=np.float64).astype(np.int64)
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
    another, from one :func:`_closed_three_walks` per run."""
    if not graphs:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([_closed_three_walks(indptr, indices)
                           for indptr, indices, _ in _runs(graphs)])


def diag_closed_walks(g: Graph, m: int) -> np.ndarray:
    """Per-node count of closed walks of length exactly m (diagonal of A^m).

    Computed as ``rowsum(A^floor(m/2) * A^ceil(m/2))``, which equals the
    diagonal of ``A^m`` because ``A`` is symmetric. m = 3 is
    :func:`closed_three_walks` of a batch of one and forms no CSR product.
    """
    if m < 1:
        raise InputError(f"walk length must be >= 1, got {m}")
    if m == 1:  # a graph has no self-loop, so no closed 1-walk
        return np.zeros(g.n, dtype=np.int64)
    if m == 3:
        return closed_three_walks([g])
    powers = [adjacency_csr(g)]  # powers[k - 1] is A^k
    while len(powers) < (m + 1) // 2:
        powers.append(_checked_matmul(powers[-1], powers[0]))
    half, other = powers[m // 2 - 1], powers[(m + 1) // 2 - 1]
    # The row sums are the diagonal of half @ other, under the same bound.
    _check_product_bound(half, other)
    return np.asarray(half.multiply(other).sum(axis=1), dtype=np.int64)


def _halved(closed3: np.ndarray) -> np.ndarray:
    if (closed3 % 2).any():
        raise InvariantViolation("a closed 3-walk count is odd")
    return closed3 // 2


def triangle_counts_per_node(g: Graph) -> np.ndarray:
    """Triangles through each node: half the node's closed 3-walks."""
    return _halved(diag_closed_walks(g, 3))


def triangles_per_node(graphs) -> np.ndarray:
    """:func:`triangle_counts_per_node` of every node of the batch
    ``graphs``, one graph after another."""
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
    """Number of triangle subgraphs, each seen from its three nodes. Pass
    ``per_node`` (:func:`triangle_counts_per_node` of ``g``) if at hand."""
    if per_node is None:
        per_node = triangle_counts_per_node(g)
    return _triangle_totals([int(per_node.sum())])[0]


def triangle_totals(graphs) -> list[int]:
    """:func:`triangle_total` of every graph of the batch ``graphs``."""
    firsts = np.cumsum([0] + [g.n for g in graphs])
    return _triangle_totals(_per_graph_sums(triangles_per_node(graphs), firsts).tolist())


def _four_cycles(trace4: np.ndarray, degree_sums: np.ndarray, paths2: np.ndarray) -> list[int]:
    """Each graph's 4-cycles from its ``trace(A^4)``, its degree sum (twice
    its edges) and its 2-paths ``sum_v C(d_v, 2)``.

    Closed 4-walks decompose into genuine 4-cycles (8 walks each: 4
    starts x 2 directions), edge back-and-forths (2 per edge), and
    2-paths walked out-and-back from either end (4 per path), so

        C4 = (trace(A^4) - 2 * edge_count - 4 * sum_v C(d_v, 2)) / 8.
    """
    raw = trace4 - degree_sums - 4 * paths2
    bad = raw[(raw < 0) | (raw % 8 != 0)]
    if bad.size:
        raise InvariantViolation(
            f"closed 4-walk remainder {bad[0]} is not a nonnegative multiple of 8")
    return (raw // 8).tolist()


def _sorted_wedges(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The sorted keys ``u * n + w`` of every wedge u - v - w (u < w) on
    CSR arrays: key u, w appears ``A^2[u, w]`` times. Each entry u of a
    row (in increasing order) makes a wedge with every later entry w. The
    ``sum_v C(d_v, 2)`` wedges stay below :data:`MAX_PRODUCT_WORK`, so
    their positions are int32, and so are the keys while ``n * n`` fits."""
    n = indptr.size - 1
    after = np.arange(1, indices.size + 1, dtype=np.int32)  # each entry's next position
    count = np.repeat(indptr[1:], np.diff(indptr)) - after  # later entries in its row
    pos = np.repeat((after + count - np.cumsum(count)).astype(np.int32), count)
    pos += np.arange(pos.size, dtype=np.int32)  # each wedge's entry w
    ends = indices[pos]
    del pos
    keys = np.repeat(np.multiply(indices, n, dtype=np.int32 if n * n < 2**31 else np.int64),
                     count)
    keys += ends
    del ends
    keys.sort()
    return keys


def _trace4(indptr: np.ndarray, indices: np.ndarray, firsts) -> np.ndarray:
    """``trace(A^4)`` of each graph of a run: ``sum_v d_v^2 + 2 * sum
    c_uw^2`` from one :func:`_sorted_wedges`, or the sum of the squared
    entries of a :func:`_dense_square`. ``sum c_uw^2`` is the wedges plus
    twice the pairs of wedges on one key."""
    dense = _dense_square(indptr, indices)
    if dense:
        rows = np.square(dense[1], out=dense[1]).sum(axis=1, dtype=np.float64)
        return _per_graph_sums(rows.astype(np.int64), firsts)
    keys = _sorted_wedges(indptr, indices)
    # graph i's wedges start at bounds[i], its keys at firsts[i] * n
    bounds = np.searchsorted(keys, (firsts * (indptr.size - 1)).astype(keys.dtype))
    step = np.diff(np.concatenate([[False], keys[1:] == keys[:-1], [False]]).view(np.int8))
    del keys
    # a key with c_uw > 1 spans the wedges from a step up to a step down;
    # graph i's first such key is cuts[i]
    starts = np.flatnonzero(step == 1)
    cuts = np.searchsorted(starts, bounds)
    more = np.flatnonzero(step == -1)
    more -= starts  # c_uw - 1
    del starts, step
    more *= more + 1  # twice the pairs of wedges on the key
    pairs = np.concatenate([[0], np.cumsum(more, out=more)])[cuts]
    deg = np.diff(indptr).astype(np.int64)
    return _per_graph_sums(deg * (2 * deg - 1), firsts) + 2 * np.diff(pairs)


def four_cycle_count(g: Graph) -> int:
    """Number of simple 4-cycle subgraphs (see :func:`_four_cycles`)."""
    return four_cycle_counts([g])[0]


def four_cycle_counts(graphs) -> list[int]:
    """:func:`four_cycle_count` of every graph of the batch ``graphs``,
    from one :func:`_trace4` per run."""
    if not graphs:
        return []
    trace4 = np.concatenate([_trace4(*run) for run in _runs(graphs)])
    firsts = np.cumsum([0] + [g.n for g in graphs])
    deg = np.concatenate([np.diff(g.indptr) for g in graphs]).astype(np.int64)
    return _four_cycles(trace4, _per_graph_sums(deg, firsts),
                        _per_graph_sums(deg * (deg - 1) // 2, firsts))
