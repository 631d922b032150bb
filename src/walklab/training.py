"""Full-batch-per-graph training with Adam, early stopping, and LR decay.

:func:`fit` trains a lockstep group of F cells (one model spec, one
training config but the seed) as one stack of F models. Each step
consumes one graph per cell: one :func:`walklab.models.forward` per store,
the mean squared error of each cell and its gradient with respect to the
prediction, one stacked :func:`walklab.models.backward` into one (F, P)
gradient array, and one Adam update of the (F, P) parameter stack from
it. Each cell keeps its own rng (epoch permutation and dropout masks),
learning rate, Adam step count, best snapshot, plateau count and stop
reason, so its bits equal those of its group of one, the stack of one
model, which is how a single model trains. The divergence check reads
each cell's activations and MSE: a cell that diverges is frozen and
reported as ``diverged`` while the others go on.

:func:`prepare_items` stacks its graphs into one resident store per node
count: the (N, n, d) features, the targets, ``1/(deg+1)``, each graph's
CSR arrays of A and A + I, the closed-walk diagonals, counted per graph
and held once, by the store's operators, and one (N, n, d) array per
layer-0 term ``Op_t(X)``, one sparse product per application of A or
A + I on the whole store, each graph's own bits. Each :class:`TrainItem`
is a store and a row of it. A stack is some rows of one store: a step or
an evaluation pass groups its items by store and, per store, takes one
``np.take`` per array and operators (:meth:`GraphOperators.gather`) that
take A + I or A, the inverse degrees and the diagonals from the store on
first use, so a one-layer model builds no structure matrix. An item that
lacks a term of the model is an error, never a rebuild. The experiments
call :func:`prepare_items` once, serially, before their workers fork,
which then share the stores; each store then holds one node count.

:func:`evaluate` scores a split for one model as one stacked pass per
store, in chunks of at most :data:`MAX_STACK_ENTRIES` activations,
with the same losses bit for bit as one pass per graph. :func:`adam_step`
applies the L2 penalty ``l2 * sum(w**2)`` to the coordinates the model's
``decay`` mask marks, the MLP and head weight matrices (gates and biases
are not penalised), as coupled L2: its gradient ``2 * l2 * w`` joins the
data gradient before the Adam moments, unlike decoupled (AdamW) decay.
Validation is scored before the first epoch and after every epoch; each
cell's best validation snapshot, one copy of its row, is what
:func:`fit` leaves in the stack.

The plateau schedule counts the epochs since the last new best: at
``patience`` of them the learning rate is multiplied by ``lr_factor``,
and at ``2 * patience`` training stops. An improvement resets the count.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import InputError, NumericError
from .graphs import Graph
from .models import (OP_DIAG, AggregationTerm, GraphOperators, Model, apply_term, backward,
                     forward)

# Most float64 entries (graphs x nodes x widest layer) of one activation in
# a stacked evaluation pass: 512 KiB, so that evaluating a split adds a
# few MiB at most to a worker. A larger split runs in several passes.
MAX_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters; defaults match the experiment protocol."""

    lr: float = 1e-3
    l2: float = 5e-4
    dropout: float = 0.1
    patience: int = 10
    lr_factor: float = 0.5
    max_epochs: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        # every float check is written so that NaN fails it
        if not 0.0 < self.lr < math.inf:
            raise InputError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.l2 < math.inf:
            raise InputError(f"l2 must be nonnegative and finite, got {self.l2}")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.patience < 1:
            raise InputError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.lr_factor < 1.0:
            raise InputError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True, eq=False)
class _Store:
    """The arrays of the graphs of one :func:`prepare_items` call that
    share a node count, a feature width and a target shape, row r for the
    r-th of them, all read-only: the (N, n, d) features, the stacked
    targets and each layer-0 term, and the graphs' :class:`GraphOperators`,
    holding ``1/(deg+1)``, each graph's CSR arrays of A and A + I and the
    closed-walk diagonal of each ``diag_power`` term. Built once, before
    the experiments' workers fork, it is shared by every step and
    evaluation pass that gathers from it."""

    ops: GraphOperators
    features: np.ndarray
    target: np.ndarray
    layer0: Mapping[AggregationTerm, np.ndarray]

    @classmethod
    def of(cls, graphs, xs, ys, terms) -> _Store:
        """The store of ``graphs`` with their features ``xs``, targets ``ys``
        and layer-0 ``terms``. Each term runs once on a fresh gather of
        every row, so that at most one structure matrix lives at a time;
        the diagonals are counted per graph on the store's operators."""
        ops = GraphOperators(graphs)
        # built now, before any worker forks, so that the workers share them
        ops.blocks, ops.inv_degree_plus_one
        for term in terms:
            if term.op == OP_DIAG:
                _frozen(ops.closed_walk_diag(term.k))
        x, every = _frozen(np.stack(xs)), np.arange(len(graphs))
        return cls(ops, x, _frozen(np.stack(ys)),
                   MappingProxyType({term: _frozen(apply_term(term, ops.gather(every), x))
                                     for term in terms}))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TrainItem:
    """One graph ready for training, row ``row`` of its ``store``, built by
    :func:`prepare_items`."""

    store: _Store
    row: int

    @property
    def ops(self) -> GraphOperators:
        """This graph's operators, a stack of one gathered from its store,
        made anew on each access and kept nowhere. Training never reads
        it; it is here for readers outside the package, such as
        perfbench's tracer."""
        return self.store.ops.gather(np.array([self.row]))


def prepare_items(graphs, features, targets,
                  terms: tuple[AggregationTerm, ...] = ()) -> list[TrainItem]:
    """Bundle graphs with features and scalar or per-node targets, and
    build the layer-0 values of ``terms`` and their closed-walk diagonals;
    a model that sums a term not in ``terms`` can neither train nor be
    evaluated on the items.
    Each graph's features are its (n, d) rows, copied read-only. A scalar
    target becomes 1 x 1, and a 1-D target a column.

    The graphs that share a node count, a feature width and a target
    shape get one store, whose arrays stack theirs in item order and
    whose terms are built on all of its rows at once; each item is a row
    of it."""
    graphs, features, targets = list(graphs), list(features), list(targets)
    if not len(graphs) == len(features) == len(targets):
        raise InputError(f"prepare_items needs one feature array and one target per graph, "
                         f"got {len(graphs)} graphs, {len(features)} feature arrays and "
                         f"{len(targets)} targets")
    xs, ys = [], []
    for g, x, y in zip(graphs, features, targets):
        if not isinstance(g, Graph):
            raise InputError("prepare_items expects Graph instances")
        xv = np.array(x, dtype=np.float64)
        if xv.ndim != 2 or xv.shape[0] != g.n:
            raise InputError(f"features of a {g.n}-node graph must be {g.n} rows of d "
                             f"columns, got shape {xv.shape}")
        xs.append(xv)
        t = np.asarray(y, dtype=np.float64)
        ys.append(t.reshape(-1, 1) if t.ndim < 2 else t)
    groups: dict[tuple, list[int]] = {}
    for k, (g, x, y) in enumerate(zip(graphs, xs, ys)):
        groups.setdefault((g.n, x.shape[1], y.shape), []).append(k)
    items = [None] * len(graphs)
    for members in groups.values():
        store = _Store.of([graphs[k] for k in members], [xs[k] for k in members],
                          [ys[k] for k in members], terms)
        for row, k in enumerate(members):
            items[k] = TrainItem(store, row)
    return items


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple:
    """Mean squared error of a prediction and its gradient with respect to
    the prediction; both arrays have the same nonempty shape. The last two
    axes are one graph's output rows: a stack of graphs gets one loss per
    graph."""
    if pred.shape != target.shape:
        raise InputError(f"target shape {target.shape} does not match prediction {pred.shape}")
    if pred.size == 0:
        raise InputError("mse_loss needs at least one entry")
    diff = pred - target
    size = diff.shape[-2] * diff.shape[-1]
    return (diff * diff).sum(axis=(-2, -1)) / size, 2.0 * diff / size


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment arrays and step counts over a flat parameter
    vector or an (F, P) stack of them (one count per row), and the L2
    coefficient with the mask of the coordinates it applies to (none when
    ``decay`` is omitted)."""

    def __init__(self, w: np.ndarray, l2: float = 0.0, decay: np.ndarray | None = None):
        self.l2 = l2
        self.decay = np.zeros(w.shape[-1], dtype=bool) if decay is None else decay
        self.step_count = np.zeros(w.shape[:-1], dtype=np.int64)
        self.m = np.zeros_like(w)
        self.v = np.zeros_like(w)
        # column t: the bias corrections 1 - b1**t and 1 - b2**t, each the
        # Python float of that expression, grown as the counts grow
        self._bias = np.zeros((2, 1))

    def bias_corrections(self) -> np.ndarray:
        """The bias corrections of each row's step count: a (2, ..., 1)
        array, ``[1 - b1**t, 1 - b2**t]`` for each row's count t."""
        top = int(self.step_count.max())
        if top >= self._bias.shape[1]:
            counts = range(self._bias.shape[1], 2 * top + 1)
            self._bias = np.concatenate([self._bias, [[1 - ADAM_BETA1**t for t in counts],
                                                      [1 - ADAM_BETA2**t for t in counts]]],
                                        axis=1)
        return self._bias[:, self.step_count, None]


def adam_step(state: AdamState, w: np.ndarray, g: np.ndarray, lr) -> None:
    """One bias-corrected Adam update of ``w``, in place, from its
    gradient ``g``: a flat vector, or an (F, P) stack whose rows step
    independently, each with its own step count and with ``lr`` a float
    or an (F, 1) column of rates.

    Coordinates in ``state.decay`` first get the coupled L2 gradient
    ``2 * l2 * w`` added, on a copy: ``g`` is not modified. The moments
    are updated in place, each product and sum in the order of
    ``m = b1 * m + (1 - b1) * g`` and ``w -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    state.step_count += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    if state.l2 > 0:
        g = np.add(g, (2.0 * state.l2) * w, out=g.copy(), where=state.decay)
    state.m *= b1
    state.m += (1 - b1) * g
    state.v *= b2
    state.v += (1 - b2) * (g * g)
    first, second = state.bias_corrections()
    step = state.m / first
    denom = np.sqrt(state.v / second)
    denom += ADAM_EPS
    step *= lr
    step /= denom
    w -= step


def _adam_rows(state: AdamState, w: np.ndarray, g: np.ndarray, lr: np.ndarray,
               rows: np.ndarray) -> None:
    """:func:`adam_step` on rows ``rows`` of the stack ``w`` only, from
    their gradients ``g`` and rates ``lr``; every other row, its moments
    and its step count stay as they are. A step of every row copies
    nothing."""
    if rows.size == w.shape[0]:
        adam_step(state, w, g, lr)
        return
    part = copy.copy(state)
    part.m, part.v, part.step_count = state.m[rows], state.v[rows], state.step_count[rows]
    w_rows = w[rows]
    adam_step(part, w_rows, g, lr)
    w[rows], state.m[rows], state.v[rows], state.step_count[rows] = \
        w_rows, part.m, part.v, part.step_count
    state._bias = part._bias


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class FitResult:
    """How one cell's training went. ``stop_reason`` is ``early_stop``,
    ``max_epochs`` or ``diverged``: a non-finite loss or activation, after
    which the cell's parameters stay as they were when it diverged and
    ``history`` ends with the last epoch it completed."""

    history: list[EpochStats]
    best_epoch: int
    best_val: float
    stop_reason: str
    lr_cuts: int


def _stacked(store: _Store, rows: np.ndarray, terms) -> tuple:
    """The operators, features, layer-0 terms and targets of rows ``rows``
    of ``store`` as one stack, each array taken by row."""
    try:
        layer0 = [np.take(store.layer0[term], rows, axis=0) for term in terms]
    except KeyError as err:
        raise InputError(f"an item lacks the layer-0 term {err.args[0]}") from None
    return (store.ops.gather(rows), np.take(store.features, rows, axis=0), layer0,
            np.take(store.target, rows, axis=0))


def evaluate(model: Model, items) -> float:
    """Mean MSE of one model over items, inference mode (no dropout, no
    penalty).

    The items of one store run as one stacked forward pass, split so that
    no activation holds more than :data:`MAX_STACK_ENTRIES` entries. Each
    item's loss equals that of its own pass bit for bit, and the losses
    are summed in item order.
    """
    if not items:
        raise InputError("evaluate needs at least one item")
    if model.flat.ndim != 1:
        raise InputError("evaluate scores one model, not a stack")
    width = max(model.input_dim, *(p.shape[-1] for p in model.params.values()))
    by_store: dict[_Store, list[int]] = {}
    for k, item in enumerate(items):
        by_store.setdefault(item.store, []).append(k)
    losses = [0.0] * len(items)
    for store, members in by_store.items():
        per_pass = max(1, MAX_STACK_ENTRIES // (store.ops.shape[1] * width))
        for start in range(0, len(members), per_pass):
            chunk = members[start:start + per_pass]
            ops, x, layer0, target = _stacked(store, np.array([items[k].row for k in chunk]),
                                              model.spec.terms)
            pred = forward(model, ops, x, layer0=layer0)
            for k, loss in zip(chunk, mse_loss(pred, target)[0].tolist()):
                losses[k] = loss
    total = 0.0
    for loss in losses:
        total += loss
    return total / len(items)


def _val_loss(model: Model, row: int, items) -> float | None:
    """:func:`evaluate` of row ``row`` of a stack; None when its
    activations turn non-finite."""
    try:
        return evaluate(model.with_flat(model.flat[row]), items)
    except NumericError:
        return None


def fit(model: Model, train_items, val_items, cfg):
    """Train a lockstep group of F cells in place: ``model`` is a stack of
    F models, and cell f trains row f on ``train_items[f]``, validates on
    ``val_items[f]`` and follows ``cfg[f]``, configs that differ only in
    the seed. Returns one :class:`FitResult` per cell, and leaves each
    cell's best-validation parameters in its row.

    Every step runs one stacked forward pass, one stacked backward pass
    and one Adam update for all cells, each on its own graph. A cell's
    rng (its config's seed) draws its epoch permutation and its dropout
    masks, and its rate, step count, best snapshot, plateau count and lr
    cuts are its own, so each cell's bits equal those of its group of
    one. Cells whose graphs come from different stores at a step run one
    stack per store. A cell with fewer training graphs sits out the last
    steps of each epoch; a cell that stopped or diverged sits out the
    rest, its parameters and moments frozen. Validation is measured once
    before training (epoch 0), so a returned snapshot can be the untouched
    initial model if training only ever hurts.

    One model trains as the stack of one, ``model.with_flat(model.flat[None])``,
    a view whose row is the model's own vector.
    """
    if model.flat.ndim != 2:
        raise InputError(f"fit trains an (F, {model.decay.size}) stack of models, "
                         f"got parameters of shape {model.flat.shape}")
    cells = model.flat.shape[0]
    if not len(train_items) == len(val_items) == len(cfg) == cells:
        raise InputError(f"a group of {cells} cells needs {cells} train splits, "
                         f"validation splits and configs")
    if not all(train_items) or not all(val_items):
        raise InputError("fit needs nonempty train and validation splits")
    shared = replace(cfg[0], seed=0)
    if any(replace(c, seed=0) != shared for c in cfg):
        raise InputError("the configs of a group may differ only in their seed")
    rngs = [np.random.default_rng(c.seed) for c in cfg]
    state = AdamState(model.flat, l2=shared.l2, decay=model.decay)
    lr = [shared.lr] * cells
    since_best = [0] * cells
    results = []
    for f in range(cells):
        val = _val_loss(model, f, val_items[f])
        results.append(FitResult(history=[], best_epoch=0, best_val=math.nan, lr_cuts=0,
                                 stop_reason="diverged" if val is None else ""))
        if val is not None:
            results[f].best_val = val
            results[f].history.append(EpochStats(epoch=0, train_loss=math.nan,
                                                 val_loss=val, lr=lr[f]))
    best = model.flat.copy()
    buffers = _StepBuffers(model)
    for epoch in range(1, shared.max_epochs + 1):
        live = [f for f in range(cells) if not results[f].stop_reason]
        if not live:
            break
        order = {f: [train_items[f][i] for i in rngs[f].permutation(len(train_items[f])).tolist()]
                 for f in live}
        loss_sum = dict.fromkeys(live, 0.0)
        for step in range(max(len(order[f]) for f in live)):
            by_store: dict[_Store, list[int]] = {}
            for f in live:
                if step < len(order[f]) and not results[f].stop_reason:
                    by_store.setdefault(order[f][step].store, []).append(f)
            for store, rows in by_store.items():
                graphs = np.array([order[f][step].row for f in rows])
                losses = _step(model, state, buffers, rows, store, graphs, rngs, lr,
                               shared.dropout)
                for f, loss in zip(rows, losses):
                    if math.isfinite(loss):
                        loss_sum[f] += loss
                    else:
                        results[f].stop_reason = "diverged"
        for f in live:
            result = results[f]
            val = None if result.stop_reason else _val_loss(model, f, val_items[f])
            if val is None or not math.isfinite(val):
                result.stop_reason = "diverged"
                continue
            result.history.append(EpochStats(epoch=epoch, val_loss=val, lr=lr[f],
                                             train_loss=loss_sum[f] / len(train_items[f])))
            if val < result.best_val:
                result.best_val, result.best_epoch = val, epoch
                best[f] = model.flat[f]
                since_best[f] = 0
                continue
            since_best[f] += 1
            if since_best[f] == shared.patience:
                lr[f] *= shared.lr_factor
                result.lr_cuts += 1
            elif since_best[f] == 2 * shared.patience:
                result.stop_reason = "early_stop"
    for f, result in enumerate(results):
        if result.stop_reason != "diverged":
            result.stop_reason = result.stop_reason or "max_epochs"
            model.flat[f] = best[f]
    return results


class _StepBuffers:
    """What a step of k of the F rows of the stack ``model`` runs on: the
    model, its (k, P) gradient and that gradient's named views. A step of
    every row runs ``model`` itself; a step of fewer runs a model over the
    first k rows of one (F, P) scratch copy, made on first use. Whatever
    sets of rows the steps take, the buffers are one (F, P) gradient and
    at most one scratch copy."""

    def __init__(self, model: Model):
        self.model = model
        self.grad = np.zeros_like(model.flat)
        self.scratch: np.ndarray | None = None
        self._views: dict[int, tuple] = {}

    def rows(self, k: int) -> tuple:
        if k not in self._views:
            sub = self.model
            if k < len(self.grad):
                if self.scratch is None:
                    self.scratch = np.empty_like(self.grad)
                sub = self.model.with_flat(self.scratch[:k])
            self._views[k] = sub, self.grad[:k], sub.unflatten(self.grad[:k])
        return self._views[k]


def _step(model: Model, state: AdamState, buffers: _StepBuffers, rows: list[int],
          store: _Store, graphs: np.ndarray, rngs, lr: list[float],
          dropout: float) -> list[float]:
    """One training step of rows ``rows`` of the stack ``model``, each on
    its graph, rows ``graphs`` of ``store``: the training loss of each row,
    NaN for a row whose loss or activations turned non-finite, which is
    then left unchanged."""
    sub, grad, grads = buffers.rows(len(rows))
    if sub is not model:
        np.take(model.flat, rows, axis=0, out=sub.flat)
    ops, x, layer0, target = _stacked(store, graphs, model.spec.terms)
    saved: dict = {}
    finite = np.ones(len(rows), dtype=bool)
    pred = forward(sub, ops, x, dropout_rate=dropout, rng=[rngs[f] for f in rows],
                   saved=saved, layer0=layer0, finite=finite)
    losses, d_pred = mse_loss(pred, target)
    finite &= np.isfinite(losses)
    kept = np.flatnonzero(finite)
    if kept.size:
        every = kept.size == len(rows)
        # a diverged row's gradient is computed too, silently, then dropped
        with np.errstate(all=None if every else "ignore"):
            backward(sub, saved, d_pred, grads)
        updated = np.asarray(rows) if every else np.asarray(rows)[kept]
        _adam_rows(state, model.flat, grad if every else grad[kept],
                   np.array(lr)[updated, None], updated)
    return np.where(finite, losses, math.nan).tolist()

