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
formed. Triangles per node are ``rowsum(A * A^2) / 2`` and
``trace(A^4)`` is the sum of the squared entries of ``A^2``, so a caller
that needs both passes one :func:`adjacency_square` to each and ``A @ A``
is formed once. The work of ``A @ A`` and the entries of ``A^2`` are both
bounded by ``sum_v d_v^2``, so a count costs O(sum_v d_v^2) time and
memory; see :data:`MAX_PRODUCT_WORK` for the capacity limit.

Counts are held in int64 CSR matrices. Every multiplication first checks the
conservative bound ``inner_dim * max(a) * max(b) < 2**63`` and raises
:class:`CountOverflowError` instead of wrapping silently.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import (CapacityError, CountOverflowError, InputError,
                     InvariantViolation)
from .graphs import Graph

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


def _checked_matmul(a, b):
    """``a @ b`` for two CSR count arrays, overflow-checked and held to
    :data:`MAX_PRODUCT_WORK`."""
    _check_product_bound(a, b)
    work = int(np.diff(b.indptr)[a.indices].sum())
    if work > MAX_PRODUCT_WORK:
        raise CapacityError(
            f"sparse walk product needs {work} multiply-adds (sum_v d_v^2 "
            f"for A @ A); the limit is {MAX_PRODUCT_WORK}"
        )
    return a @ b


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
    :func:`adjacency_square` of ``g`` when it is already at hand.
    """
    if m < 1:
        raise InputError(f"walk length must be >= 1, got {m}")
    a, *known = (adjacency_csr(g),) if square is None else square
    powers = [a, *known]  # powers[k - 1] is A^k
    while len(powers) < (m + 1) // 2:
        powers.append(_checked_matmul(powers[-1], a))
    # only m = 1 reads A^0
    half = powers[m // 2 - 1] if m > 1 else sparse.eye_array(g.n, dtype=np.int64, format="csr")
    other = powers[(m + 1) // 2 - 1]
    # The row sums are the diagonal of half @ other, under the same bound.
    _check_product_bound(half, other)
    return np.asarray(half.multiply(other).sum(axis=1), dtype=np.int64)


def triangle_counts_per_node(g: Graph, square=None) -> np.ndarray:
    """Triangles through each node: half the node's closed 3-walks.
    ``square`` is :func:`adjacency_square` of ``g`` when it is already
    at hand."""
    closed3 = diag_closed_walks(g, 3, square)
    if (closed3 % 2).any():
        raise InvariantViolation("a closed 3-walk count is odd")
    return closed3 // 2


def triangle_total(g: Graph, per_node: np.ndarray | None = None) -> int:
    """Number of triangle subgraphs; each is seen from its three nodes.

    Pass ``per_node`` (from :func:`triangle_counts_per_node`) when it is
    already at hand, so it is not computed again.
    """
    if per_node is None:
        per_node = triangle_counts_per_node(g)
    total = int(per_node.sum())
    if total % 3:
        raise InvariantViolation(f"per-node triangle counts sum to {total}, not a multiple of 3")
    return total // 3


def four_cycle_count(g: Graph, square=None) -> int:
    """Number of simple 4-cycle subgraphs.

    Closed 4-walks decompose into genuine 4-cycles (8 walks each: 4
    starts x 2 directions), edge back-and-forths (2 per edge), and
    2-paths walked out-and-back from either end (4 per path), so

        C4 = (trace(A^4) - 2 * edge_count - 4 * sum_v C(d_v, 2)) / 8.

    ``square`` is :func:`adjacency_square` of ``g`` when it is already
    at hand.
    """
    a, a2 = adjacency_square(g) if square is None else square
    # trace(A^4) = sum of squared entries of A^2. Those entries sum to
    # sum_v d_v^2 and are each at most max_v d_v, so the int64 sum stays
    # below MAX_PRODUCT_WORK**1.5.
    trace4 = int(np.dot(a2.data, a2.data))
    deg = np.diff(a.indptr).astype(np.int64)
    paths2 = int((deg * (deg - 1) // 2).sum())
    raw = trace4 - 2 * g.edge_count - 4 * paths2
    if raw < 0 or raw % 8:
        raise InvariantViolation(f"closed 4-walk remainder {raw} is not a nonnegative multiple of 8")
    return raw // 8
