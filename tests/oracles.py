"""Independent brute-force reference implementations used only by tests.

Everything here deliberately avoids the library's closed forms and BFS
shortcuts: walk counting by literal recursion, regions by dynamic
programming over exact-length walk reachability, isomorphism by
permutation search, colour refinement by one Python tuple signature per
node and round, triangles by neighbour-pair scans and neighbour-set
intersections, 4-cycles by co-degrees, simple cycles by exhaustive DFS,
and model gradients by the reverse-mode tape of ``walklab.autodiff``
instead of the hand-written backward pass, or by central differences.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from walklab import autodiff as ad
from walklab.errors import CapacityError, InputError, InvariantViolation
from walklab.graphs import Graph
from walklab.models import OP_POWER, OP_SELF_LOOP, GraphOperators, backward, forward
from walklab.training import TrainItem, mse_loss


def neighbours(g: Graph, v: int) -> list[int]:
    """The neighbours of v: its slice of the graph's CSR arrays."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()


def count_walks_recursive(g: Graph, u: int, v: int, length: int) -> int:
    """Number of u -> v walks of exactly `length` edges, by recursion."""
    if length == 0:
        return 1 if u == v else 0
    return sum(count_walks_recursive(g, w, v, length - 1) for w in neighbours(g, u))


def triangles_at_node_brute(g: Graph, v: int) -> int:
    """Triangles through v: adjacent neighbour pairs."""
    nbrs = neighbours(g, v)
    return sum(
        1
        for i in range(len(nbrs))
        for j in range(i + 1, len(nbrs))
        if g.has_edge(nbrs[i], nbrs[j])
    )


def triangles_per_node_by_intersection(g: Graph) -> list[int]:
    """Triangles through each node, from neighbour-set intersections.

    Each triangle u < v < w is found once, on its edge (u, v), as the
    common neighbour w > v. Cost is O(sum over edges of the degrees).
    """
    adj = [set(neighbours(g, v)) for v in range(g.n)]
    counts = [0] * g.n
    for u, v in g.edges():
        for w in adj[u] & adj[v]:
            if w > v:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def four_cycles_by_codegree(g: Graph) -> int:
    """Number of 4-cycles from co-degrees of node pairs.

    Two nodes with c common neighbours are opposite corners of C(c, 2)
    4-cycles, and every 4-cycle has two pairs of opposite corners.
    Co-degrees are tallied over each node's neighbour pairs, so the cost
    is O(sum_v d_v^2).
    """
    codegree: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        for a, b in itertools.combinations(neighbours(g, v), 2):
            codegree[(a, b)] = codegree.get((a, b), 0) + 1
    twice = sum(c * (c - 1) // 2 for c in codegree.values())
    return twice // 2


_BRUTE_NODE_GUARD = {3: 64, 4: 64, 5: 40}


def count_simple_cycles_brute(g: Graph, length: int) -> int:
    """Count simple cycles of the given length by exhaustive DFS.

    Cost grows like n * d^(length-1). Guards: length in {3, 4, 5} and
    n <= 64 (40 for length 5).
    """
    if length not in _BRUTE_NODE_GUARD:
        raise InputError(f"cycle length must be 3, 4, or 5, got {length}")
    guard = _BRUTE_NODE_GUARD[length]
    if g.n > guard:
        raise CapacityError(
            f"brute-force cycle count supports n <= {guard} for length {length}, got n={g.n}"
        )
    adj = [set(neighbours(g, v)) for v in range(g.n)]
    total = 0

    def walks_back(u: int, remaining: int, start: int, seen: set[int]) -> int:
        if remaining == 1:
            return 1 if start in adj[u] else 0
        count = 0
        for w in adj[u]:
            if w > start and w not in seen:
                seen.add(w)
                count += walks_back(w, remaining - 1, start, seen)
                seen.remove(w)
        return count

    for s in range(g.n):
        # Each cycle is found at its minimal node, once per direction.
        total += walks_back(s, length, s, {s})
    if total % 2:
        raise InvariantViolation(f"directed cycle count {total} is odd")
    return total // 2


def region_by_walk_dp(g: Graph, v: int, max_len: int) -> tuple[set[int], set[tuple[int, int]]]:
    """Nodes and edges covered by walks v -> ... -> v of length <= max_len.

    reach[t] is the set of nodes with some length-t walk from v; since
    the graph is undirected, a length-t walk back to v exists from
    exactly the same set. A node is covered when an out-walk and a
    return-walk fit the budget; an edge when out-walk + edge + return
    fits.
    """
    reach = [set() for _ in range(max_len + 1)]
    reach[0] = {v}
    for t in range(1, max_len + 1):
        for u in reach[t - 1]:
            reach[t].update(neighbours(g, u))
    nodes = set()
    for u in range(g.n):
        if any(u in reach[t1] and u in reach[t2]
               for t1 in range(max_len + 1)
               for t2 in range(max_len + 1 - t1)):
            nodes.add(u)
    edges = set()
    for a, b in g.edges():
        ok = any(
            (a in reach[t1] and b in reach[t2]) or (b in reach[t1] and a in reach[t2])
            for t1 in range(max_len)
            for t2 in range(max_len - t1)
        )
        if ok:
            edges.add((a, b))
    return nodes, edges


def region_by_walk_enumeration(g: Graph, v: int, max_len: int) -> tuple[set[int], set[tuple[int, int]]]:
    """Same as region_by_walk_dp but by literally enumerating every walk.

    Exponential; keep to tiny graphs and small budgets.
    """
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()

    def extend(u: int, trail: list[int]) -> None:
        # trail holds the nodes visited after v, in order
        if u == v and len(trail) >= 1:
            nodes.update(trail)
            prev = v
            for w in trail:
                edges.add((min(prev, w), max(prev, w)))
                prev = w
        if len(trail) == max_len:
            return
        for w in neighbours(g, u):
            trail.append(w)
            extend(w, trail)
            trail.pop()

    extend(v, [])
    nodes.add(v)
    return nodes, edges


def refine_by_tuples(nbrs: list[list[int]], colors: list[int]) -> tuple[list[int], list[tuple]]:
    """Colour refinement with the textbook tuple signature (own colour,
    sorted neighbour colours), one Python tuple per node and round, from
    any integer labels: (final colours, per-round (signature, count)
    tables)."""
    tables: list[tuple] = []
    for _ in range(len(nbrs)):
        signatures = [(colors[v], *sorted([colors[u] for u in nbrs[v]]))
                      for v in range(len(nbrs))]
        table = tuple(sorted(Counter(signatures).items()))
        rank = {sig: i for i, (sig, _) in enumerate(table)}
        new = [rank[sig] for sig in signatures]
        tables.append(table)
        # the signature holds the own colour, so the new partition refines
        # the old one and an unchanged class count means the same partition
        if len(table) == len(set(colors)):
            return new, tables
        colors = new
    raise InvariantViolation("refinement did not stabilise within n rounds")


def fingerprint_by_tuples(g: Graph, labels: list[int]) -> tuple:
    """The refinement fingerprint (n, label histogram, per-round tables)
    of :func:`refine_by_tuples`."""
    _, tables = refine_by_tuples([neighbours(g, v) for v in range(g.n)], labels)
    return g.n, tuple(sorted(Counter(labels).items())), tuple(tables)


def is_isomorphic_by_search(g1: Graph, g2: Graph) -> bool:
    """Try every node bijection; True if one maps edge set onto edge set."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    e2 = {(min(a, b), max(a, b)) for a, b in g2.edges()}
    for perm in itertools.permutations(range(g1.n)):
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g1.edges()}
        if mapped == e2:
            return True
    return False


def cubic_graphs_on_8_nodes() -> list[Graph]:
    """All labelled 3-regular graphs on 8 nodes with adj(0) = {1, 2, 3}.

    Fixing node 0's neighbourhood prunes relabelling freedom; up to
    isomorphism the list still covers every cubic graph on 8 nodes.
    Built by filling the lowest-index node with open degree; partners
    are always higher-index (lower ones were completed earlier).
    """
    from walklab.graphs import from_edge_list

    results: list[Graph] = []
    base = [(0, 1), (0, 2), (0, 3)]

    def fill(edges: list[tuple[int, int]], deg: list[int]) -> None:
        try:
            u = next(i for i in range(8) if deg[i] < 3)
        except StopIteration:
            results.append(from_edge_list(8, list(edges)))
            return
        need = 3 - deg[u]
        present = {b for a, b in edges if a == u} | {a for a, b in edges if b == u}
        options = [w for w in range(u + 1, 8) if w not in present and deg[w] < 3]
        for combo in itertools.combinations(options, need):
            for w in combo:
                edges.append((u, w))
                deg[u] += 1
                deg[w] += 1
            fill(edges, deg)
            for w in combo:
                edges.pop()
                deg[u] -= 1
                deg[w] -= 1

    fill(list(base), [3, 1, 1, 1, 0, 0, 0, 0])
    return results


def caterpillar(spine: int) -> Graph:
    """A path of ``spine`` nodes with one pendant leaf on each: refinement
    from degrees needs about spine / 2 rounds."""
    from walklab.graphs import from_edge_list

    return from_edge_list(2 * spine, [(v, v + 1) for v in range(spine - 1)]
                          + [(v, spine + v) for v in range(spine)])


def tape_loss_and_grads(model, ops, x, target, *, dropout_rate=0.0, rng=None):
    """MSE of one graph and its parameter gradients from the reverse-mode
    tape in ``walklab.autodiff``: the forward pass composed op by op from
    tape nodes, then one backward sweep.

    Returns ``(loss, {name: gradient})``. Training mode, and so dropout,
    is on exactly when ``dropout_rate`` > 0.
    """
    def apply_term(term, h):
        if term.op == OP_SELF_LOOP:
            return ad.struct_mul(ops.adjacency_with_loops, h)
        if term.op == OP_POWER:
            for _ in range(term.k):
                h = ad.struct_mul(ops.adjacency, h)
            return h
        return ad.row_scale(h, ops.closed_walk_diag(term.k))

    p = {k: ad.parameter(v.copy(), name=k) for k, v in model.params.items()}
    h = ad.constant(x)
    spec = model.spec
    for i in range(spec.layers):
        mixed = None
        for t, term in enumerate(spec.terms):
            gated = ad.scalar_mul(ad.sigmoid(p[f"layer{i}.theta{t}"]), apply_term(term, h))
            mixed = gated if mixed is None else ad.add(mixed, gated)
        if spec.degree_normalize:
            mixed = ad.row_scale(mixed, ops.inv_degree_plus_one)
        h = mixed
        if spec.mlp_depth >= 1:
            h = ad.leaky_relu(ad.add(ad.matmul(h, p[f"layer{i}.w0"]), p[f"layer{i}.b0"]))
            if spec.mlp_depth == 2:
                if dropout_rate > 0.0:
                    h = ad.dropout(h, dropout_rate, rng)
                h = ad.leaky_relu(ad.add(ad.matmul(h, p[f"layer{i}.w1"]), p[f"layer{i}.b1"]))
    if spec.readout == "sum":
        h = ad.row_sum(h)
    h = ad.add(ad.matmul(h, p["head.w"]), p["head.b"])
    loss = ad.mse(h, target)
    ad.backward(loss)
    return loss.item(), {k: t.grad for k, t in p.items()}


def gradient_check(model, item: TrainItem) -> float:
    """Largest relative error between analytic and central-difference grads.

    The objective is the inference-mode MSE (dropout off), so it is
    deterministic; the L2 penalty lives in ``adam_step``, not in the
    loss. Relative error uses a floor of 1e-3 in the denominator;
    coordinates where both gradients are below 1e-10 count as exact. The
    step is 1e-5, and each coordinate costs two passes, so a model with
    more than 20 000 raises :class:`CapacityError` before the first.
    """
    w, h, max_params = model.flat, 1e-5, 20000
    if w.size > max_params:
        raise CapacityError(
            f"gradient check supports <= {max_params} coordinates, got {w.size}")
    saved: dict = {}
    ops = GraphOperators([item.graph], [item.closed_walks])
    pred = forward(model, ops, item.features, saved=saved)
    analytic = np.zeros_like(w)
    backward(model, saved, mse_loss(pred, item.target)[1], model.unflatten(analytic))

    def loss_value() -> float:
        return mse_loss(forward(model, ops, item.features), item.target)[0]

    worst = 0.0
    for i, a in enumerate(analytic.tolist()):
        orig = w[i]
        w[i] = orig + h
        up = loss_value()
        w[i] = orig - h
        down = loss_value()
        w[i] = orig
        numeric = (up - down) / (2 * h)
        scale = max(abs(a), abs(numeric))
        if scale < 1e-10:
            continue
        worst = max(worst, abs(a - numeric) / max(scale, 1e-3))
    return worst
