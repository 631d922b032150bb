"""Exact walk counting on unweighted graphs.

Every count here is an exact integer. The diagonal of ``A^k`` counts
closed k-walks, and two closed-form reductions turn them into subgraph
counts: each node's triangles are half its closed 3-walks, and the 4-node
simple cycles fall out of ``trace(A^4)`` once the degenerate closed
4-walks (edge back-and-forths, 2-paths walked both ways) are removed.

Both need only the co-degrees ``c_uw = A^2[u, w]``, and one pass gives
both. On a sparse graph no product is formed: the keys ``u * n + w`` of
the wedges u - v - w (u < w) are sorted once, a key's run being c_uw
(Chiba and Nishizeki 1985), so ``diag(A^3)_v = sum_{w in N(v)} c_vw``,
read at the keys of the edges, and ``trace(A^4) = sum_v d_v^2 + 2 * sum
c_uw^2``. A dense graph forms a float32 ``A @ A`` with BLAS instead. All
of it is bounded by ``sum_v d_v^2``; see :data:`MAX_PRODUCT_WORK`.

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
# A @ A that is sum_v d_v^2, which also bounds the wedges (half of it). At
# the limit (tracemalloc) the wedge pass peaks at 158 MB (ER, n = 272 000:
# int64 keys), 150 MB (K_2,3870: two int64 offsets per repeated key) and
# 90 MB (a star), a dense square at 46 MB (ER, n = 2400).
# ER graphs with n = 10**5 and average degree 10 (sum_v d_v^2 ~ 1.1e7) fit.
MAX_PRODUCT_WORK = 3 * 10**7
_BLAS_PER_WEDGE = 1000  # see _dense_square
_WEDGE_CHUNK = 2**18  # wedges whose keys are built at once, see _sorted_wedges


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
    a run's wedges, and at most :data:`MAX_PRODUCT_WORK`."""
    sizes = [g.n for g in graphs]
    firsts = np.cumsum([0] + sizes)
    deg = np.concatenate([np.diff(g.indptr) for g in graphs])
    work = _per_graph_sums(np.square(deg, dtype=np.int64), firsts).tolist()
    for w in work:
        _check_work(w)
    for lo, hi in batch_runs([w + n for w, n in zip(work, sizes)], MAX_PRODUCT_WORK):
        yield *concat_csr(graphs[lo:hi]), firsts[lo:hi + 1] - firsts[lo]


def _sorted_wedges(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The sorted keys ``u * n + w`` of every wedge u - v - w (u < w) on
    CSR arrays: key u, w appears ``A^2[u, w]`` times. Each entry u of a
    row (in increasing order) makes a wedge with every later entry w. The
    ``sum_v C(d_v, 2)`` wedges stay below :data:`MAX_PRODUCT_WORK`, so
    their offsets are int32, and so are the keys while ``n * n`` fits; they
    are built ``_WEDGE_CHUNK`` at a time, the keys the only wedge array."""
    n = indptr.size - 1
    count = np.repeat(indptr[1:].astype(np.int32), np.diff(indptr))
    count -= np.arange(1, indices.size + 1, dtype=np.int32)  # later entries in its row
    starts = np.concatenate([[0], np.cumsum(count)], dtype=np.int32)  # each entry's first wedge
    keys = np.empty(starts[-1], dtype=np.int32 if n * n < 2**31 else np.int64)
    cuts = [*np.searchsorted(starts, np.arange(0, keys.size, _WEDGE_CHUNK)).tolist(), indices.size]
    for lo, hi in zip(cuts, cuts[1:]):
        runs, first, last = count[lo:hi], int(starts[lo]), int(starts[hi])
        # each wedge's entry w: its entry u's next, plus its place in u's run
        pos = np.repeat(np.arange(lo + 1 + first, hi + 1 + first, dtype=np.int32) - starts[lo:hi],
                        runs)
        pos += np.arange(last - first, dtype=np.int32)
        np.add(indices[pos], np.repeat(np.multiply(indices[lo:hi], n, dtype=keys.dtype), runs),
               out=keys[first:last])
    keys.sort()
    return keys


def _codegree_sums(keys: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``diag(A^3)``, node v's sum of c_vw over its neighbours w, from the
    :func:`_sorted_wedges` ``keys`` of CSR arrays: the keys of the edges
    (v < w) are searched once, again only where a wedge closes the edge."""
    n = indptr.size - 1
    if not keys.size:
        return np.zeros(n, dtype=np.int64)
    row = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    up = row < indices
    row, col = row[up], indices[up]
    wanted = row.astype(keys.dtype) * n + col
    left = np.searchsorted(keys, wanted)
    hit = np.flatnonzero(keys.take(left, mode="clip") == wanted)
    codegree = np.searchsorted(keys, wanted[hit], side="right") - left[hit]
    closed3 = np.bincount(row[hit], codegree, n) + np.bincount(col[hit], codegree, n)
    return closed3.astype(np.int64)


def _wedge_pass(indptr: np.ndarray, indices: np.ndarray, firsts, four_cycles: bool):
    """``diag(A^3)`` of each node of a run and, for ``four_cycles``, each
    graph's ``trace(A^4)`` less its degenerate walks (:func:`_four_cycles`),
    from the co-degrees c_uw: the sums of c_vw over v's neighbours w, and
    ``2 * sum c_uw (c_uw - 1)``, as ``trace(A^4) = sum_v d_v^2 + 2 * sum
    c_uw^2``. They are the row sums of A * A^2 and of (A^2)^2 for a
    :func:`_dense_square`; else c_uw is a key's run in :func:`_sorted_wedges`.
    No count nears 2**63: ``sum c_uw^2`` is below the wedges times n."""
    dense = _dense_square(indptr, indices)
    if dense:
        a, square = dense
        deg = np.diff(indptr).astype(np.int64)
        closed3 = np.multiply(a, square, out=a).sum(axis=1, dtype=np.float64)
        rows4 = np.square(square, out=square).sum(axis=1, dtype=np.float64) - deg * (2 * deg - 1)
        return closed3.astype(np.int64), _per_graph_sums(rows4.astype(np.int64), firsts)
    keys = _sorted_wedges(indptr, indices)
    closed3 = _codegree_sums(keys, indptr, indices)
    if not four_cycles:
        return closed3, None
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
    more *= more + 1  # c_uw (c_uw - 1)
    pairs = np.concatenate([[0], np.cumsum(more, out=more)])[cuts]
    return closed3, 2 * np.diff(pairs)


def _wedge_passes(graphs, four_cycles: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_wedge_pass` of the batch ``graphs``, one per run: every
    node's ``diag(A^3)`` and, for ``four_cycles``, every graph's closed
    4-walks less the degenerate ones."""
    if not graphs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    closed3, cyclic4 = zip(*(_wedge_pass(*run, four_cycles) for run in _runs(graphs)))
    return np.concatenate(closed3), np.concatenate(cyclic4) if four_cycles else None


def closed_three_walks(graphs) -> np.ndarray:
    """``diag(A^3)`` of every node of the batch ``graphs``, in order."""
    return _wedge_passes(graphs, four_cycles=False)[0]


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


def _four_cycles(raw: np.ndarray) -> list[int]:
    """Each graph's 4-cycles from its closed 4-walks less the degenerate
    ones, ``trace(A^4) - sum_v d_v (2 d_v - 1)``.

    Closed 4-walks decompose into genuine 4-cycles (8 walks each: 4
    starts x 2 directions), edge back-and-forths (2 per edge), and
    2-paths walked out-and-back from either end (4 per path), so

        C4 = (trace(A^4) - 2 * edge_count - 4 * sum_v C(d_v, 2)) / 8.
    """
    bad = raw[(raw < 0) | (raw % 8 != 0)]
    if bad.size:
        raise InvariantViolation(
            f"closed 4-walk remainder {bad[0]} is not a nonnegative multiple of 8")
    return (raw // 8).tolist()


def four_cycle_count(g: Graph) -> int:
    """Number of simple 4-cycle subgraphs (see :func:`_four_cycles`)."""
    return four_cycle_counts([g])[0]


def four_cycle_counts(graphs) -> list[int]:
    """:func:`four_cycle_count` of every graph of the batch ``graphs``."""
    return cycle_counts(graphs)[1]


def cycle_counts(graphs) -> tuple[np.ndarray, list[int]]:
    """:func:`triangles_per_node` and :func:`four_cycle_counts` of the
    batch ``graphs``, from one pass over its wedges."""
    closed3, cyclic4 = _wedge_passes(graphs)
    return _halved(closed3), _four_cycles(cyclic4)
