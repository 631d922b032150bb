"""Colour refinement, pairwise comparison, and exact canonical forms.

Refinement rounds replace each node's label with the pair (its own label,
the sorted multiset of its neighbours' labels): the textbook 1-WL step.
Two nodes that differ in colour keep differing, so each round can only
split classes, and iteration stops once a round leaves the number of
colour classes, and so the partition, unchanged.

A round runs on the graph's CSR arrays: one gather of the neighbour
colours, one sort that orders them inside every node's run of a shared
buffer, and one copy of that buffer to bytes. A signature is a node's run
as big-endian int64 - its own colour, then its sorted neighbour colours -
and these bytes sort exactly like the textbook tuples of nonnegative
colours, a shorter prefix first. Python touches each node once per round,
and a round holds O(n + m) memory. A path needs about n/2 rounds, so
:func:`wl_refine`, which reports rounds and isomorphism-invariant colour
names, can be quadratic; :data:`MAX_REFINE_WORK` caps rounds times layout
entries there and in the canonical search.

Two graphs are compared as in the 1-WL test (Morris et al. 2019, arXiv
1810.02244): one refinement of their disjoint union, so both share one
colour map, then the stable colour histograms of the two halves.
Isomorphic graphs always get equal histograms. Unequal graphs can still
collide - refinement is not a complete isomorphism test - which is why an
exact canonical form, by the individualisation-refinement search of nauty
and Traces (McKay and Piperno 2014, arXiv 1301.1493), covers small graphs.

:func:`compare_pair` answers the plain, the triangle-augmented and the
exact question with one refinement layout of the union. A verdict needs
only the stable partition of the union, not the rounds or the colour
names, so it runs at most :data:`EAGER_ROUNDS` rounds and, if the
partition is still splitting, finishes it by "process the smaller half"
refinement (Cardon and Crochemore 1982; Paige and Tarjan 1987) in
O((n + m) log n), which is optimal for colour refinement (Berkholz,
Bonsma and Grohe 2017, arXiv 1509.08251). One more round must then split
nothing. Halves whose label histograms already differ are not refined.
The plain run starts from degrees. If its halves differ, so do the
augmented ones and the graphs are not isomorphic, and nothing more is
computed. Otherwise the augmented run starts from (plain stable colour,
triangle count) instead of (degree, triangle count) and reaches the same
partition: any stable refinement of the degree partition D refines its
stable partition P, so stable(P ^ T) = stable(D ^ T) for the
triangle-count partition T. When T splits no class of P, P ^ T = P is
stable already and the plain verdict answers both runs with no further
round; a pair of trees ends there, and so does any pair whose nodes
all lie on equally many triangles. The canonical search runs only when
both verdicts tie.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError, InvariantViolation
from .graphs import Graph, concat_csr, degrees
from .walks import triangles_per_node

# No longer called here; the benchmark's tracer wraps it by this name
# (perfbench/tracing.py HOOKS).
from .walks import triangle_counts_per_node  # noqa: F401

# Largest graph the canonical form accepts. Up to 8 nodes even an unpruned
# search tree has at most 109 601 nodes, so it needs no budget; 32K2 passes
# 10^5 refinements, so a higher limit needs automorphism pruning first.
CANONICAL_MAX_NODES = 8

# Capacity limit on the textbook refinement of wl_refine and the canonical
# search, counted as rounds times layout entries (n + 2m over the refined
# graphs). A round costs 0.12-0.15 us per entry on a shared 2-core x86-64
# host, so the limit is about 5-6 s; a 3 000-node path (8 998 entries,
# 1 500 rounds: 1.3 * 10**7) passes. The verdicts of compare_pair and
# wl_distinguish run a bounded number of rounds and need no limit.
MAX_REFINE_WORK = 4 * 10**7


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


class _Layout(NamedTuple):
    """Where the refinement of the disjoint union of some graphs writes its
    signatures: a buffer of n + 2m entries in which node v owns one run,
    its own colour followed by its neighbours' colours, at bytes
    ``spans[v]`` of the buffer. Each graph's nodes follow those of the
    graphs before it, so a pair's layout holds O(n1 + n2 + m1 + m2).

    Entry i holds the colour of node ``src[i]``. Colours are below n, so
    ``offset[i]`` (2n times the run's node, plus n on a neighbour entry)
    keeps every run in place and its own colour first when
    ``offset + colour`` is sorted; sums stay below 2n^2, far inside int64."""

    src: np.ndarray
    offset: np.ndarray
    spans: list[slice]

    @classmethod
    def of(cls, *graphs: Graph) -> _Layout:
        indptr, indices = concat_csr(graphs)
        deg = np.diff(indptr)
        n, first = deg.size, np.concatenate([[0], np.cumsum(deg + 1)])  # run starts
        run = np.repeat(np.arange(n), deg + 1)  # node owning each entry
        nbr = np.ones(run.size, dtype=bool)
        nbr[first[:-1]] = False
        src = run.copy()
        src[nbr] = indices  # the union's neighbour ids
        bounds = (8 * first).tolist()
        return cls(src, run * (2 * n) + n * nbr, list(map(slice, bounds, bounds[1:])))

    def neighbour_lists(self) -> list[list[int]]:
        """Each node's neighbours, by union ids: its run without its own id."""
        flat = self.src.tolist()
        return [flat[span.start // 8 + 1:span.stop // 8] for span in self.spans]


def _ranks(labels: list) -> list[int]:
    """Each label's rank among the distinct labels: integers of any sign or
    size, or tuples of them, become colours 0..k-1 in the same order."""
    rank = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    return [rank[lab] for lab in labels]


def _refine(layout: _Layout, colors: list[int],
            max_rounds: int | None = None) -> tuple[list[int], int | None]:
    """Refinement rounds from colours 0..k-1: (final colours, rounds).

    A node's signature is the bytes of its own colour and its sorted
    neighbour colours as big-endian int64; for nonnegative colours these
    sort exactly like the tuples of the textbook step, a shorter prefix
    first, and a new colour is the rank of its signature. A round is one
    gather, one sort and one byte copy over the whole layout plus O(n)
    Python work, and holds O(n + m) memory.

    Without ``max_rounds``, rounds run until the partition is stable, and
    a round that would take the work past :data:`MAX_REFINE_WORK` raises
    :class:`CapacityError`. With it, at most that many rounds run, and the
    rounds are None when the last of them still split a class.
    """
    k = max(colors) + 1
    buf = np.empty(layout.src.size, dtype=">i8")
    for rounds in range(1, (len(layout.spans) if max_rounds is None else max_rounds) + 1):
        if max_rounds is None and rounds * buf.size > MAX_REFINE_WORK:
            raise CapacityError(
                f"refinement of {len(layout.spans)} nodes is still splitting after "
                f"{rounds - 1} rounds over {buf.size} entries; the limit is "
                f"{MAX_REFINE_WORK} entry-rounds")
        entries = layout.offset + np.array(colors, dtype=np.int64)[layout.src]
        entries.sort()
        data = np.subtract(entries, layout.offset, out=buf).tobytes()
        signatures = list(map(data.__getitem__, layout.spans))
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = list(map(rank.__getitem__, signatures))
        # the signature holds the own colour, so the new partition refines
        # the old one and an unchanged class count means the same partition
        if len(rank) == k:
            return new, rounds
        colors, k = new, len(rank)
    if max_rounds is None:
        raise InvariantViolation("refinement did not stabilise within n rounds")
    return colors, None


def _split_smaller_halves(nbrs: list[list[int]], colors: list[int],
                          before: list[int] | None) -> list[int]:
    """The coarsest stable partition that refines ``colors``, by "process
    the smaller half" refinement (Cardon and Crochemore 1982; Paige and
    Tarjan 1987), as colours 0..k-1.

    ``before``, when given, is the colouring one round before ``colors``,
    with respect to each class of which ``colors`` is therefore stable:
    each such class starts with a queue entry for every part of it but its
    largest. Without it every class starts with one.

    A splitter class counts its edges into every node it reaches; each
    class it touches splits by that count, untouched nodes counting 0. The
    largest part keeps the class and its queue entry, if any, and every
    other part becomes a new class on the queue. A class without an entry
    needs none for its largest part: the partition is already stable with
    respect to the whole class and, once they are processed, to the other
    parts, so also with respect to the rest. A new class is at most half
    the class it left, so each node is in a processed splitter O(log n)
    times and the work is O((n + m) log n), where a round-based refinement
    of a path takes n/2 rounds over every node.
    """
    colors = list(colors)
    members: list[set[int]] = [set() for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        members[c].add(v)
    if before is None:
        queue = list(range(len(members)))  # nothing is known stable at the start
    else:
        parts: dict[int, list[int]] = {}
        for c, cell in enumerate(members):
            parts.setdefault(before[next(iter(cell))], []).append(c)
        queue = [c for split in parts.values()
                 for c in sorted(split, key=lambda part: len(members[part]))[:-1]]
    while queue:
        counts: dict[int, int] = {}
        for v in members[queue.pop()]:
            for u in nbrs[v]:
                counts[u] = counts.get(u, 0) + 1
        touched: dict[int, dict[int, list[int]]] = {}  # class -> count -> nodes
        for u, k in counts.items():
            c = colors[u]
            if c in touched:
                touched[c].setdefault(k, []).append(u)
            else:
                touched[c] = {k: [u]}
        for c, by_count in touched.items():
            cell = members[c]
            parts = list(by_count.values())
            rest = len(cell) - sum(map(len, parts))  # the nodes the splitter missed
            if len(parts) > 1:
                parts.sort(key=len)
            elif not rest:
                continue
            if rest >= len(parts[-1]):
                for part in parts:
                    cell.difference_update(part)
            else:
                # the largest part is touched, so the rest costs no more
                # to move than that part
                members[c] = set(parts.pop())
                if rest:
                    parts.append(cell.difference(*by_count.values()))
            for part in parts:
                new = len(members)
                queue.append(new)
                for v in part:
                    colors[v] = new
                members.append(set(part))
    return colors


# Vectorised rounds a verdict runs before it switches to smaller-half
# refinement. A round costs O(n + m) numpy work, a node in a smaller-half
# splitter a few Python operations, so rounds win while they split much at
# once and lose on long chains of small splits. Measured on a shared
# 2-core x86-64 host: a pair of 10**5-node random graphs of average degree
# 10 is stable after 3 rounds, and its plain and augmented verdicts took
# 8.1 s and 396 MB with no rounds, 6.2 s after 2 rounds and 2.3-2.5 s and
# 287 MB after 3 or 4. The plain partition of a spine-100 caterpillar pair
# (50 textbook rounds, 5.1 ms) took 0.76 ms with no rounds and 1.09 ms
# after 4.
EAGER_ROUNDS = 4


def _stable_partition(layout: _Layout, colors: list[int]) -> list[int]:
    """The coarsest stable partition of the layout's nodes that refines
    ``colors``: the partition textbook rounds reach, with colours 0..k-1
    whose names, unlike those of :func:`_refine`, depend on node ids.

    Up to :data:`EAGER_ROUNDS` vectorised rounds run first; a partition
    still splitting after them is finished by smaller-half refinement
    from the split of the last round, whose result must survive one more
    round unsplit."""
    before = None
    if EAGER_ROUNDS:
        before, rounds = _refine(layout, colors, EAGER_ROUNDS - 1)
        if rounds is not None:
            return before
        colors, rounds = _refine(layout, before, 1)
        if rounds is not None:
            return colors
    colors = _split_smaller_halves(layout.neighbour_lists(), colors, before)
    if _refine(layout, colors, 1)[1] is None:
        raise InvariantViolation("smaller-half refinement left a partition that a round splits")
    return colors


def wl_refine(g: Graph, initial_labels=None) -> Coloring:
    """Refine integer node labels (degrees by default) to a stable partition.

    Labels may be Python or numpy integers. Stability means one more round
    would not change the grouping of nodes into colour classes; this is
    reached within n rounds, and the returned colouring is a fixed point
    of further refinement.
    """
    labels = degrees(g) if initial_labels is None else list(initial_labels)
    if len(labels) != g.n:
        raise InputError(f"expected {g.n} initial labels, got {len(labels)}")
    if not all(isinstance(lab, (int, np.integer)) for lab in labels):
        raise InputError("initial labels must be integers")
    colors, rounds = _refine(_Layout.of(g), _ranks([int(lab) for lab in labels]))
    return Coloring(colors=tuple(colors), rounds=rounds)


def _halves(colors: list[int], n1: int) -> Verdict:
    """Compare the colour histograms of the first n1 nodes and the rest.

    Once the halves' histograms differ at some round they differ at the
    stable round too, and the union cannot stop before that round, since
    a round that splits no class only renames colours. So different node
    counts or initial label histograms show up on their own."""
    if Counter(colors[:n1]) == Counter(colors[n1:]):
        return Verdict.INDISTINGUISHABLE
    return Verdict.DISTINGUISHABLE


def _verdict(layout: _Layout, colors: list[int], n1: int) -> tuple[Verdict, list[int]]:
    """The halves' verdict, with the stable partition that refines
    ``colors``. Refinement only splits classes, so halves whose histograms
    already differ stay apart, and then ``colors`` come back unrefined."""
    if _halves(colors, n1) is Verdict.INDISTINGUISHABLE:
        colors = _stable_partition(layout, colors)
    return _halves(colors, n1), colors


def _distinguish(g1: Graph, g2: Graph, labels1: list[int], labels2: list[int]) -> Verdict:
    """Refine the disjoint union of g1 and g2 from the given integer labels
    and compare the stable colour histograms of the two halves."""
    return _verdict(_Layout.of(g1, g2), _ranks(labels1 + labels2), g1.n)[0]


def wl_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Compare two graphs by refinement from degree labels."""
    return _distinguish(g1, g2, degrees(g1), degrees(g2))


def cantor_pair(a: int, b: int) -> int:
    """Bijection N x N -> N; packs two counts into one initial label."""
    if a < 0 or b < 0:
        raise InputError(f"cantor_pair needs nonnegative ints, got ({a}, {b})")
    return (a + b) * (a + b + 1) // 2 + b


def _verdicts(g1: Graph, g2: Graph) -> tuple[Verdict, Verdict]:
    """Plain and triangle-augmented verdicts from one layout of the union.

    The augmented run starts from the plain stable colours paired with
    triangle counts, which gives the stable partition of (degree, triangle
    count) labels without repeating the plain rounds. When the plain
    halves already differ, no triangle is counted. When the pairs have no
    more classes than the plain colours, the counts split no class: the
    plain partition is the augmented one, already stable, and its verdict
    answers both runs without another round."""
    layout = _Layout.of(g1, g2)
    verdict, plain = _verdict(layout, _ranks(degrees(g1) + degrees(g2)), g1.n)
    if verdict is Verdict.DISTINGUISHABLE:
        return verdict, verdict
    # one count over the pair's arrays, under each graph's own work guard:
    # the union is never a Graph, so the node limit holds for each alone
    tri = triangles_per_node((g1, g2)).tolist()
    labels = list(zip(plain, tri))
    if len(set(labels)) == len(set(plain)):
        return verdict, verdict
    return verdict, _verdict(layout, _ranks(labels), g1.n)[0]


def augmented_distinguish(g1: Graph, g2: Graph) -> Verdict:
    """Refinement comparison from (degree, triangle count) initial labels.

    The triangle count injects closed-walk information that plain
    refinement provably cannot recover, so this verdict separates some
    pairs that :func:`wl_distinguish` cannot; it never separates less,
    because the initial labels refine the degree labels.
    """
    return _verdicts(g1, g2)[1]


class PairReport(NamedTuple):
    """The answers of :func:`compare_pair`. ``isomorphic`` is None when a
    graph has more than :data:`CANONICAL_MAX_NODES` nodes."""

    wl: Verdict
    augmented: Verdict
    isomorphic: bool | None


def compare_pair(g1: Graph, g2: Graph) -> PairReport:
    """Plain refinement, triangle-augmented refinement and, for graphs of
    at most :data:`CANONICAL_MAX_NODES` nodes, exact isomorphism. The
    canonical forms are computed only when both refinements tie."""
    plain, augmented = _verdicts(g1, g2)
    isomorphic = None
    if max(g1.n, g2.n) <= CANONICAL_MAX_NODES:
        isomorphic = augmented is Verdict.INDISTINGUISHABLE and is_isomorphic_small(g1, g2)
    return PairReport(plain, augmented, isomorphic)


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


def _neighbour_lists(g: Graph) -> list[list[int]]:
    flat, ends = g.indices.tolist(), g.indptr.tolist()
    return [flat[s:e] for s, e in zip(ends, ends[1:])]


def _leaf_orders(g: Graph, nbrs: list[list[int]]):
    """Node orders at the leaves of the individualisation-refinement tree.

    Each child of a stable colouring gives one node of its first smallest
    non-singleton cell a colour of its own and refines; no step reads node
    ids, so isomorphic graphs share the leaf adjacencies. Twins (equal open
    or equal closed neighbourhoods; without loops no open one equals a
    closed one) swap by an automorphism, so one per twin class is searched.
    Every refinement of the search reuses one :class:`_Layout` of ``g``."""
    layout = _Layout.of(g)
    twin_keys = [(frozenset(ns), frozenset(ns + [v])) for v, ns in enumerate(nbrs)]

    def search(colors: list[int]):
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        if len(cells) == len(colors):
            yield [cell[0] for cell in cells]
            return
        target = min((cell for cell in cells if len(cell) > 1), key=len)
        seen: set[frozenset] = set()
        for v in target:
            if seen.isdisjoint(twin_keys[v]):
                seen.update(twin_keys[v])
                # v moves to a colour of its own just above its old cell
                cv = colors[v]
                labels = [c + (c > cv) + (u == v) for u, c in enumerate(colors)]
                yield from search(_refine(layout, labels)[0])

    yield from search(_refine(layout, _ranks([len(ns) for ns in nbrs]))[0])


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Exact canonical form of a graph as a row-major 0/1 vector."""
    _check_canonical_size(g.n)  # before the dense matrix is built
    nbrs = _neighbour_lists(g)
    return _lex_min([[int(u in ns) for u in range(g.n)] for ns in nbrs], _leaf_orders(g, nbrs))


def is_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs of at most
    :data:`CANONICAL_MAX_NODES` nodes via canonical forms."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    return canonical_form(g1) == canonical_form(g2)
