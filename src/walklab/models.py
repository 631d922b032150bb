"""Graph networks built from gated walk-count aggregation terms.

A layer forms its message matrix as a sum of gated structural terms,

    M = sum_t sigmoid(theta_t) * Op_t(H),

optionally divides row v by (deg(v) + 1), and feeds the result through a
small combine MLP with LeakyReLU units (slope 0.01). Term t of layer i is
scaled by the gate ``layer{i}.theta{t}``. Available structural operators:

* ``self_loop_adjacency``: (A + I) @ H, the closed-neighbourhood sum;
* ``power(k)``: A applied k times (walk counts of length k), computed
  by repeated sparse application, never materialising A^k;
* ``diag_power(m)``: row v scaled by the node's closed m-walk count
  (for m = 3, twice its triangle count).

A model is n identical layers, all described by one :class:`ModelSpec`.
A model family is the tuple of terms each layer sums; :data:`FAMILIES`
declares every family, and :func:`spec_from_model_name` builds every
spec from it.

Gates are sigmoid-squashed scalars, so each term's mixing weight lives
in (0, 1); the raw gate parameters start at 0 (weight 0.5). After the
last layer a Sum readout collapses node rows to one vector and a linear
head maps it to the output dimension; a node-level readout that skips
the pooling is available for inspection and tests.

A model keeps every parameter in one float64 vector, ``Model.flat``; a
stack of F models with one spec keeps an (F, P) array, row f for model
f, and a single model is just the vector. ``Model.params`` names
reshaped views into it, :meth:`Model.unflatten` names the same views
into any array of that layout, and :meth:`Model.with_flat` binds the
spec to another such array (a row of a stack, or a stack of several
models' vectors). :func:`forward` serves inference and training (dropout
when ``dropout_rate > 0``) and can keep the activations that
:func:`backward` needs; ``backward`` is the hand-written gradient of that
same pass, written into named views of one gradient array. Every
structural operator is symmetric, so a term's backward pass is the term
itself applied to the gated upstream gradient.

One ``forward`` runs the (G, n, d) rows of a stack of G graphs with a
common node count (:class:`GraphOperators`, some rows of one store of
graphs): one model on every graph (evaluation), or a stack of G models,
model g on graph g (a lockstep training step, which ``backward`` then
differentiates row by row). Dense products on the stack are batched
matmuls over the leading axis and the structural terms act on one
block-diagonal CSR matrix, so every graph's output, and every model's
gradient, equals its own single-graph pass bit for bit. The caller may
hand in the layer-0 terms ``Op_t(X)``, which depend only on the graph
and its features; :func:`walklab.training.prepare_items` builds them
once per store of graphs.

``scipy.sparse`` is imported on first use, when a :class:`GraphOperators`
builds its first CSR matrix, so importing this module does not load it.
"""

from __future__ import annotations

import copy
import functools
import operator
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, InputError, NumericError
from .walks import closed_three_walks, diag_closed_walks

# Widest hidden layer build_model accepts. A layer's MLP holds up to two
# hidden x hidden float64 matrices (w1, and w0 after the first layer),
# 8 MiB each at 1024. Training holds five copies of each (the weights in
# ``flat``, the flat gradient, two Adam moments and the best snapshot),
# one more when the cells of a group step apart (a scratch copy of the
# rows a step takes), plus Adam's short-lived temporaries, and
# build_model briefly holds one more, the drawn arrays it concatenates
# into ``flat``: about 100 MB per layer and cell in every worker. A lockstep group trains several cells at
# once, so experiments cap its coordinates (experiments.MAX_GROUP_PARAMS).
MAX_HIDDEN_DIM = 1024

# Deepest model spec_from_model_name builds; the experiments use at most 3.
# Each layer adds up to two hidden x hidden weight matrices
# (4 KiB at the default hidden = 16, 16 MiB at MAX_HIDDEN_DIM).
MAX_LAYERS = 64

OP_SELF_LOOP = "self_loop_adjacency"
OP_POWER = "power"
OP_DIAG = "diag_power"


@dataclass(frozen=True)
class AggregationTerm:
    """One gated structural operator inside a layer.

    ``k`` is the power exponent for ``power`` terms and the closed-walk
    length for ``diag_power`` terms (odd, >= 3, so the diagonal carries
    cycle rather than degree information).
    """

    op: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.op not in (OP_SELF_LOOP, OP_POWER, OP_DIAG):
            raise InputError(f"unknown aggregation operator {self.op!r}")
        if self.op == OP_POWER and self.k < 1:
            raise InputError(f"power exponent must be >= 1, got {self.k}")
        if self.op == OP_DIAG and (self.k < 3 or self.k % 2 == 0):
            raise InputError(f"diag_power walk length must be odd and >= 3, got {self.k}")


def self_loop_adjacency() -> AggregationTerm:
    return AggregationTerm(op=OP_SELF_LOOP)


def power(k: int) -> AggregationTerm:
    return AggregationTerm(op=OP_POWER, k=k)


def diag_power(m: int) -> AggregationTerm:
    return AggregationTerm(op=OP_DIAG, k=m)


@dataclass(frozen=True)
class ModelSpec:
    """``layers`` identical layers, each summing the gated ``terms`` (row v
    divided by deg(v) + 1 when ``degree_normalize``) before its combine MLP.

    ``mlp_depth`` 0 means identity combine (no parameters); 1 is a single
    linear map with LeakyReLU; 2 inserts a hidden layer of the model's
    hidden width, where dropout acts. ``readout`` is ``"sum"`` (pool rows,
    then the linear head) or ``"node"`` (the head on every node row).
    """

    terms: tuple[AggregationTerm, ...]
    layers: int = 1
    mlp_depth: int = 2
    degree_normalize: bool = False
    readout: str = "sum"
    output_dim: int = 1

    def __post_init__(self) -> None:
        if not self.terms:
            raise InputError("model needs at least one aggregation term")
        if self.layers < 1:
            raise InputError("model needs at least one layer")
        if self.mlp_depth not in (0, 1, 2):
            raise InputError(f"mlp_depth must be 0, 1, or 2, got {self.mlp_depth}")
        if self.readout not in ("sum", "node"):
            raise InputError(f"readout must be 'sum' or 'node', got {self.readout!r}")
        if self.output_dim < 1:
            raise InputError(f"output_dim must be >= 1, got {self.output_dim}")


# The terms every layer of a family sums, by the family part of its name:
# GCN-<n>L sums over N(v) + v, GCN-L1-<n>L adds the closed-3-walk diagonal,
# GCN-D2-<n>L adds A applied twice as well.
FAMILIES = {
    "": (self_loop_adjacency(),),
    "L1": (self_loop_adjacency(), diag_power(3)),
    "D2": (self_loop_adjacency(), diag_power(3), power(2)),
}


# A model name once upper-cased: GCN-, an optional family key, the layer
# count in ASCII digits without a leading zero, and L
_MODEL_NAME = re.compile(r"GCN-(?:(%s)-)?([1-9][0-9]*)L"
                         % "|".join(re.escape(family) for family in FAMILIES if family))


def spec_from_model_name(name: str, degree_normalize: bool = False,
                         mlp_depth: int = 2) -> ModelSpec:
    """Parse names like GCN-2L, GCN-L1-1L, GCN-D2-1L (any case) into n
    identical layers summing the terms :data:`FAMILIES` lists."""
    match = _MODEL_NAME.fullmatch(name.strip().upper())
    if match is None:
        raise InputError(f"unknown model name {name!r}")
    family, layers = match.group(1) or "", match.group(2)
    # without a leading zero, more digits than MAX_LAYERS means a larger count
    if len(layers) > len(str(MAX_LAYERS)) or int(layers) > MAX_LAYERS:
        raise InputError(f"model {name!r} has {layers} layers; the limit is {MAX_LAYERS}")
    return ModelSpec(FAMILIES[family], int(layers), mlp_depth, degree_normalize)


class GraphOperators:
    """The structure operators of G >= 1 graphs of one node count n,
    acting on their (G, n, d) rows as one block-diagonal system; ``shape``
    is (G, n).

    A store is built from its graphs. It holds each graph's own CSR arrays
    (:attr:`blocks`), its inverse degrees and each closed-walk diagonal:
    the closed 3-walks from the wedge passes over the store's graphs as one
    batch, longer walks per graph, never on the stack, whose product's
    overflow bound would grow with its node count. :meth:`gather` makes
    the stack of some of its rows, which holds no graphs: it takes the
    inverse degrees and the diagonals from the store, row by row, each
    graph's bits as they are.
    Every stack builds each float matrix on first use by one CSR
    constructor over its rows' blocks, laid one after another in scipy's
    sorted entry order, so a product equals each graph's own bit for bit.
    """

    def __init__(self, graphs):
        self.graphs = tuple(graphs)
        if not self.graphs or any(g.n != self.graphs[0].n for g in self.graphs):
            raise InputError("a graph stack holds one or more graphs of one node count")
        self.shape = (len(self.graphs), self.graphs[0].n)
        self._diagonals: dict[int, np.ndarray] = {}
        # (store, rows) for a gathered stack. A store is None, never
        # (self, rows): that cycle would keep a dropped store alive until
        # the cyclic garbage collector runs.
        self._source: tuple | None = None

    def gather(self, rows: np.ndarray) -> GraphOperators:
        """The stack of graphs ``rows`` (an integer array) of this store."""
        ops = GraphOperators.__new__(GraphOperators)
        ops.shape = (rows.size, self.shape[1])
        ops._diagonals = {}
        ops._source = (self, rows)
        return ops

    @functools.cached_property
    def blocks(self) -> dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each graph's own CSR arrays of A (under False) and of A + I
        (under True): its row lengths (G, n), its entry counts (G,) and its
        column ids, in entry order, padded to (G, most entries)."""
        g, n = self.shape
        lengths = np.diff(np.stack([graph.indptr for graph in self.graphs]), axis=1)
        nbr = np.concatenate([graph.indices for graph in self.graphs])
        indptr = np.zeros(g * n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        blocks = {}
        for loops, lens, indices in ((False, lengths, nbr),
                                     (True, lengths + 1, _with_loops(indptr, nbr, n)[1])):
            sizes = lens.sum(axis=1)
            # column ids count within their graph, below graphs.MAX_NODES
            padded = np.zeros((g, sizes.max()), dtype=np.int32)
            padded[np.arange(padded.shape[1]) < sizes[:, None]] = indices
            blocks[loops] = lens, sizes, padded
        return blocks

    def _csr(self, loops: bool) -> tuple[np.ndarray, np.ndarray]:
        """The stack's CSR arrays of A, or of A + I when ``loops``: the
        blocks of its rows of the store laid one after another."""
        store, rows = self._source or (self, slice(None))
        lens, sizes, padded = (a[rows] for a in store.blocks[loops])
        g, n = self.shape
        # int32, as a graph's own arrays are, for all but huge stacks
        ids = np.int32 if g * n + sizes.sum() < 2**31 else np.int64
        indptr = np.zeros(g * n + 1, dtype=ids)
        np.cumsum(lens, out=indptr[1:])
        shift = np.arange(0, g * n, n, dtype=ids)[:, None]
        return indptr, (padded + shift)[np.arange(padded.shape[1]) < sizes[:, None]]

    def _take_rows(self, of) -> np.ndarray:
        """``of(store)``, one value per node of the store, at this stack's
        graphs' nodes."""
        store, rows = self._source
        return of(store).reshape(-1, self.shape[1])[rows].reshape(-1)

    @functools.cached_property
    def adjacency(self):
        return _matrix(*self._csr(False))

    @functools.cached_property
    def adjacency_with_loops(self):
        return _matrix(*self._csr(True))

    @functools.cached_property
    def inv_degree_plus_one(self) -> np.ndarray:
        if self._source:
            return self._take_rows(lambda store: store.inv_degree_plus_one)
        return 1.0 / (self.blocks[False][0].reshape(-1).astype(np.float64) + 1.0)

    def closed_walk_diag(self, m: int) -> np.ndarray:
        if m not in self._diagonals:
            self._diagonals[m] = (
                self._take_rows(lambda store: store.closed_walk_diag(m)) if self._source
                else (closed_three_walks(self.graphs) if m == 3 else np.concatenate(
                    [diag_closed_walks(g, m) for g in self.graphs])).astype(np.float64))
        return self._diagonals[m]


def _with_loops(indptr: np.ndarray, nbr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR arrays of A + I from those of A, a block-diagonal matrix of
    n x n blocks whose column ids count within their block: each diagonal
    entry goes to its sorted place in its row."""
    rows = indptr.size - 1
    # positions fit int32 for all but huge stacks, which halves the build's
    # transient memory
    ids = np.int32 if nbr.size + rows < 2**31 else np.int64
    row = np.repeat(np.arange(rows, dtype=ids), np.diff(indptr))
    # an entry moves past one diagonal per earlier row, and past its own
    # row's diagonal when its column is greater
    at = np.arange(nbr.size, dtype=ids) + row + (nbr > row % n)
    indices = np.empty(nbr.size + rows, dtype=nbr.dtype)
    diagonal = np.ones(indices.size, dtype=bool)
    diagonal[at] = False
    indices[at] = nbr
    indices[diagonal] = np.arange(rows) % n
    return indptr + np.arange(rows + 1, dtype=indptr.dtype), indices


def _matrix(indptr: np.ndarray, indices: np.ndarray):
    """The square float CSR matrix of ones with these arrays."""
    from scipy import sparse

    n = indptr.size - 1
    return sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))


class Model:
    """A spec bound to concrete parameters: one model, or a stack of F
    models that share the spec and the layout.

    ``flat`` holds every parameter: a vector of P coordinates for one
    model, an (F, P) array for a stack whose row f is model f. ``params``
    is a read-only mapping from stable names, in creation order, to views
    of ``flat`` in each parameter's shape, behind the stack axis for a
    stack: write into a view, never rebind it. ``decay`` marks the
    coordinates of the linear-map weight matrices, the ones the L2 penalty
    covers (gates and biases are not among them). ``gate_index`` holds the
    coordinates of every gate, layer by layer and term by term;
    ``gate_keys[i]`` and ``map_keys[i]`` name layer i's gates and its
    MLP's (weight, bias) pairs.
    """

    def __init__(self, spec: ModelSpec, input_dim: int,
                 arrays: dict[str, np.ndarray], decayed: set[str]):
        self.spec = spec
        self.input_dim = input_dim
        self._shapes = {name: a.shape for name, a in arrays.items()}
        sizes = [a.size for a in arrays.values()]
        self._splits = np.cumsum(sizes)[:-1]
        self.flat = np.concatenate([a.ravel() for a in arrays.values()])
        self.decay = np.repeat([name in decayed for name in arrays], sizes)
        self.params = self.unflatten(self.flat)
        self.gate_keys = tuple(tuple(f"layer{i}.theta{t}" for t in range(len(spec.terms)))
                               for i in range(spec.layers))
        gates = {key for keys in self.gate_keys for key in keys}
        self.gate_index = np.flatnonzero(np.repeat([name in gates for name in arrays], sizes))
        self.map_keys = tuple(tuple((f"layer{i}.w{j}", f"layer{i}.b{j}")
                                    for j in range(spec.mlp_depth))
                              for i in range(spec.layers))

    def unflatten(self, vec: np.ndarray) -> MappingProxyType:
        """Read-only mapping from each parameter name to its view of
        ``vec``, a vector or a stack of vectors in ``flat``'s layout (say,
        a gradient)."""
        lead = vec.shape[:-1]
        return MappingProxyType({name: chunk.reshape(*lead, *shape) for (name, shape), chunk
                                 in zip(self._shapes.items(),
                                        np.split(vec, self._splits, axis=-1))})

    def with_flat(self, flat: np.ndarray) -> Model:
        """This model's spec and layout over ``flat``, without a copy: a
        vector for one model (say, ``self.flat[f]``, row f of a stack) or
        an (F, P) array for a stack of F models."""
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.decay.size:
            raise InputError(f"parameters must be ({self.decay.size},) or "
                             f"(F, {self.decay.size}), got {flat.shape}")
        model = copy.copy(self)
        model.flat = flat
        model.params = self.unflatten(flat)
        return model


def build_model(spec: ModelSpec, input_dim: int, hidden_dim: int, seed) -> Model:
    """Create a model with fresh parameters.

    Gates start at 0 (mixing weight 0.5); linear maps draw uniformly
    from +-1/sqrt(fan_in). Parameter creation order, and therefore the
    RNG stream and the layout of ``flat``, is fixed by the model spec, so
    equal seeds give bit-identical models.
    """
    if input_dim < 1 or hidden_dim < 1:
        raise InputError("input_dim and hidden_dim must be >= 1")
    if hidden_dim > MAX_HIDDEN_DIM:
        raise CapacityError(f"hidden_dim must be <= {MAX_HIDDEN_DIM}, got {hidden_dim}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    decayed: set[str] = set()

    def linear(wname: str, bname: str, fan_in: int, fan_out: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        decayed.add(wname)
        params[wname] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[bname] = rng.uniform(-bound, bound, size=(1, fan_out))

    width = input_dim
    for i in range(spec.layers):
        for t in range(len(spec.terms)):
            params[f"layer{i}.theta{t}"] = np.zeros((1, 1))
        if spec.mlp_depth >= 1:
            linear(f"layer{i}.w0", f"layer{i}.b0", width, hidden_dim)
            width = hidden_dim
        if spec.mlp_depth == 2:
            linear(f"layer{i}.w1", f"layer{i}.b1", hidden_dim, hidden_dim)
    linear("head.w", "head.b", width, spec.output_dim)
    return Model(spec, input_dim, params, decayed)


LEAKY_SLOPE = 0.01


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # Branch on sign so neither exp overflows; saturates cleanly to 0/1.
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _column(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-node coefficients ``v`` shaped to scale the rows of ``h``."""
    return v.reshape(*h.shape[:-1], 1)


def apply_term(term: AggregationTerm, ops, h: np.ndarray) -> np.ndarray:
    """Op_t(h) on one graph's (n, d) rows or a stack's (G, n, d); every
    operator is symmetric, so this is also its transpose."""
    if term.op == OP_DIAG:
        return _column(ops.closed_walk_diag(term.k), h) * h
    a, times = ((ops.adjacency_with_loops, 1) if term.op == OP_SELF_LOOP
                else (ops.adjacency, term.k))
    rows = h.reshape(-1, h.shape[-1])
    for _ in range(times):
        rows = a @ rows
    return rows.reshape(h.shape)


def forward(model: Model, ops: GraphOperators, x, *,
            dropout_rate: float = 0.0, rng=None, saved: dict | None = None,
            layer0: list | None = None, finite: np.ndarray | None = None) -> np.ndarray:
    """Run the model on the (G, n, input_dim) node features of the stack
    of G graphs ``ops`` and return its (G, 1, output_dim) output rows for
    the sum readout, (G, n, output_dim) for the node readout; each graph's
    slice equals its own pass bit for bit, one graph being a stack of one.
    One model runs every graph of the stack; a stack of F models runs a
    stack of F graphs, model f on graph f.

    ``layer0``, when given, is ``Op_t(x)`` for each of the spec's terms
    in order, the layer-0 terms the pass would otherwise compute.
    Dropout runs when ``dropout_rate > 0``, with masks drawn from ``rng``,
    a sequence of one generator per graph (``[g]`` for one graph), each
    drawing its graph's masks. Otherwise the pass is deterministic
    and repeated calls return identical values. When ``saved`` is a dict,
    the operators and activations :func:`backward` needs are stored in
    it. Non-finite activations raise :class:`NumericError` naming the
    layer, unless ``finite``, one flag per graph of the stack, is given:
    then the flag of each graph with a non-finite activation is cleared.
    """
    xv = np.asarray(x, dtype=np.float64)
    want = (*ops.shape, model.input_dim)
    if xv.shape != want:
        raise InputError(f"features must be {want}, got {xv.shape}")
    if model.flat.ndim == 2 and model.flat.shape[0] != ops.shape[0]:
        raise InputError(f"a stack of {model.flat.shape[0]} models runs one graph each, "
                         f"got {ops.shape[0]} graphs")
    drop = dropout_rate > 0.0
    if drop and (rng is None or len(rng) != ops.shape[0] or not dropout_rate < 1.0):
        raise InputError(f"training with dropout needs one rng per graph and a rate "
                         f"below 1, got rate {dropout_rate} for {ops.shape[0]} graphs")
    spec, p = model.spec, model.params
    lead = model.flat.shape[:-1]
    # one gate per (layer, term), shaped to scale a graph's rows
    gates = _sigmoid(model.flat[..., model.gate_index]).reshape(*lead, spec.layers, -1, 1, 1)
    h = xv
    layers = []
    for i in range(spec.layers):
        terms = (layer0 if i == 0 and layer0 is not None
                 else [apply_term(term, ops, h) for term in spec.terms])
        act = {"gates": [gates[..., i, t, :, :] for t in range(len(spec.terms))],
               "terms": terms, "dense": []}
        h = functools.reduce(operator.add, [s * a for s, a in zip(act["gates"], terms)])
        if spec.degree_normalize:
            h = _column(ops.inv_degree_plus_one, h) * h
        for j, (wkey, bkey) in enumerate(model.map_keys[i]):
            if j == 1 and drop:
                draw = np.empty(h.shape)
                for r, rows in zip(rng, draw.reshape(-1, *h.shape[-2:])):
                    r.random(out=rows)
                act["keep"] = (draw >= dropout_rate) / (1.0 - dropout_rate)
                h = act["keep"] * h
            z = h @ p[wkey] + p[bkey]
            if saved is None:
                h = np.maximum(z, LEAKY_SLOPE * z)
            else:
                # the unit's slope at z, which backward scales its gradient by
                slope = np.where(z >= 0, 1.0, LEAKY_SLOPE)
                act["dense"].append((h, slope))
                h = z * slope
        _check_finite(h, finite, f"layer {i} produced non-finite activations")
        if saved is not None:
            layers.append(act)
    if spec.readout == "sum":
        h = h.sum(axis=-2, keepdims=True)
    head_x = h
    h = h @ p["head.w"] + p["head.b"]
    _check_finite(h, finite, "output head produced non-finite values")
    if saved is not None:
        saved.update(ops=ops, layers=layers, head_x=head_x)
    return h


def _check_finite(h: np.ndarray, finite: np.ndarray | None, message: str) -> None:
    """Raise ``message`` on a non-finite entry of ``h``, or, when
    ``finite`` is given, clear the flag of each graph that holds one."""
    if finite is None:
        if not np.isfinite(h).all():
            raise NumericError(message)
    else:
        finite &= np.isfinite(h).all(axis=(-2, -1))


def backward(model: Model, saved: dict, d_out: np.ndarray,
             grads: MappingProxyType) -> MappingProxyType:
    """Gradient of a loss with respect to every parameter.

    ``saved`` is what a :func:`forward` pass of a stack of F models on F
    graphs stored (one model is the stack of one) and ``d_out`` is the
    loss gradient with respect to that pass's output. Every parameter's
    gradient is written into ``grads``, named views of an (F, P) array in
    ``flat``'s layout (:meth:`Model.unflatten`), which is returned. Row f
    of the gradient equals model f's own single-graph gradient bit for
    bit. Each sum runs
    in the order a reverse-mode tape over the same ops accumulates it (the
    input gradient over the terms in term order), so the gradients equal
    the tape's bit for bit.
    """
    p, ops, spec = model.params, saved["ops"], model.spec
    if model.flat.ndim != 2:
        raise InputError("backward takes a pass of a stack of models, one graph per model")
    np.matmul(saved["head_x"].swapaxes(-1, -2), d_out, out=grads["head.w"])
    d_out.sum(axis=-2, keepdims=True, out=grads["head.b"])
    g = d_out @ p["head.w"].swapaxes(-1, -2)
    if spec.readout == "sum":
        g = np.repeat(g, ops.shape[1], axis=-2)
    for i in reversed(range(spec.layers)):
        act = saved["layers"][i]
        for j in reversed(range(spec.mlp_depth)):
            wkey, bkey = model.map_keys[i][j]
            x, slope = act["dense"][j]
            g = g * slope
            np.matmul(x.swapaxes(-1, -2), g, out=grads[wkey])
            g.sum(axis=-2, keepdims=True, out=grads[bkey])
            g = g @ p[wkey].swapaxes(-1, -2)
            if j == 1 and "keep" in act:
                g = act["keep"] * g
        if spec.degree_normalize:
            g = _column(ops.inv_degree_plus_one, g) * g
        for key, s, a in zip(model.gate_keys[i], act["gates"], act["terms"]):
            grads[key][...] = (g * a).sum(axis=(-2, -1), keepdims=True) * s * (1.0 - s)
        if i > 0:
            g = functools.reduce(operator.add, [
                apply_term(term, ops, s * g) for term, s in zip(spec.terms, act["gates"])])
    return grads
