"""Full-batch-per-graph training with Adam, early stopping, and LR decay.

:func:`fit` trains a lockstep group of F cells (one model spec, one
training config but the seed) as one stack of F models. Each step
consumes one graph per cell: one stacked :func:`walklab.models.forward`,
the mean squared error of each cell and its gradient with respect to the
prediction, one stacked :func:`walklab.models.backward` into one (F, P)
gradient array, and one Adam update of the (F, P) parameter stack from
it. Each cell keeps its own rng (epoch permutation and dropout masks),
learning rate, Adam step count, best snapshot, plateau count and stop
reason, so its bits equal those of its training alone, the group of one,
which is how a single model trains. The divergence check reads each
cell's activations and MSE: a cell that diverges is frozen and reported
as ``diverged`` while the others go on. Each :class:`TrainItem` keeps
its layer-0 terms ``Op_t(X)``: its features are read-only, so they are
computed once per graph and term and reused on every pass.
:func:`prepare_items` builds them, and each graph's closed-walk
diagonals, for chunks of graphs at once (:data:`CHUNK_WORK`): one
disjoint-union CSR per chunk, one walk product per diagonal and one
sparse product per term, with each item keeping read-only row slices of
its chunk's results, its own build bit for bit. The experiments call it
once, serially, before their workers fork.
:func:`evaluate` scores a split for one model as one stacked pass per
node count, in chunks of at most :data:`MAX_STACK_ENTRIES` activations,
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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, InputError, NumericError, TrainingError
from .graphs import Graph
from .models import (AggregationTerm, GraphOperators, GraphStack, Model, apply_term,
                     backward, forward, layer0_terms)

# Most float64 entries (graphs x nodes x widest layer) of one activation in
# a stacked evaluation pass: 512 KiB, so that evaluating a split adds a
# few MiB at most to a worker. A larger split runs in several passes.
MAX_STACK_ENTRIES = 1 << 16

# Most work, nodes plus the multiply-adds of A @ A (sum_v d_v^2), of the
# graphs whose operators prepare_items builds as one disjoint union: about
# 11 ER(50, 0.1) graphs. A chunk's union CSR, its A @ A, the product that
# reduces it and a float array per term live at once, so this bounds the
# build's transient memory. On 200 such graphs with the D2 terms,
# prepare_items takes 62 ms and peaks at 2.00 MB (tracemalloc) at this
# budget; 86 ms and 1.91 MB at half of it, 54 ms and 2.32 MB at twice it,
# 45 ms and 7.55 MB as one union (shared 2-core x86-64).
CHUNK_WORK = 1 << 14


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


@dataclass(frozen=True)
class TrainItem:
    """One graph ready for training: cached operators, read-only
    features, target, and the layer-0 terms computed so far."""

    ops: GraphOperators
    features: np.ndarray
    target: np.ndarray
    _layer0: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def layer0(self, terms) -> list[np.ndarray]:
        """``Op_t(features)`` for each term, computed on first use and kept
        read-only; the features cannot change, so a kept term is never stale."""
        store = self._layer0
        for term in terms:
            if term not in store:
                store[term] = apply_term(term, self.ops, self.features)
                store[term].setflags(write=False)
        return [store[term] for term in terms]


def prepare_items(graphs, features, targets,
                  terms: tuple[AggregationTerm, ...] = ()) -> list[TrainItem]:
    """Bundle graphs with features and scalar or per-node targets.

    A scalar target becomes 1 x 1, and a 1-D target or feature vector a
    column. Features are copied read-only. Each item's
    :class:`GraphOperators` builds a structure matrix on first use and
    keeps it for every later pass on that graph; the operators and
    layer-0 values of ``terms`` are built now, a chunk of graphs at a time
    (:data:`CHUNK_WORK`, :func:`walklab.models.layer0_terms`).
    """
    items = []
    for g, x, y in zip(graphs, features, targets):
        if not isinstance(g, Graph):
            raise InputError("prepare_items expects Graph instances")
        xv = np.array(x, dtype=np.float64)
        if xv.ndim == 1:
            xv = xv[:, None]
        if xv.ndim != 2 or xv.shape[0] != g.n:
            raise InputError(f"features of a {g.n}-node graph must be {g.n} rows, "
                             f"got shape {xv.shape}")
        xv.setflags(write=False)
        t = np.asarray(y, dtype=np.float64)
        if t.ndim < 2:
            t = t.reshape(-1, 1)
        items.append(TrainItem(ops=GraphOperators(g), features=xv, target=t))
    if terms:
        for chunk in _chunks(items):
            built = layer0_terms([it.ops for it in chunk], [it.features for it in chunk], terms)
            for item, layer0 in zip(chunk, built):
                item._layer0.update(zip(terms, layer0))
    return items


def _chunks(items):
    """``items`` cut, in order, into runs of one feature width whose
    graphs together cost at most :data:`CHUNK_WORK`; a graph that costs
    more on its own is a run of one."""
    chunk, work = [], 0
    for item in items:
        deg = np.diff(item.ops.graph.indptr).astype(np.int64)
        cost = item.ops.graph.n + int(deg @ deg)
        if chunk and (work + cost > CHUNK_WORK
                      or item.features.shape[1] != chunk[0].features.shape[1]):
            yield chunk
            chunk, work = [], 0
        chunk.append(item)
        work += cost
    if chunk:
        yield chunk


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
    # bias corrections from Python floats, one per row
    counts = state.step_count.reshape(-1).tolist()
    shape = (*state.step_count.shape, 1)
    step = state.m / np.reshape([1 - b1**t for t in counts], shape)
    denom = np.sqrt(state.v / np.reshape([1 - b2**t for t in counts], shape))
    denom += ADAM_EPS
    step *= lr
    step /= denom
    w -= step


def _adam_rows(state: AdamState, w: np.ndarray, g: np.ndarray, lr: np.ndarray,
               rows: np.ndarray) -> None:
    """:func:`adam_step` on rows ``rows`` of the stack ``w`` only, from
    their gradients ``g`` and rates ``lr``; every other row, its moments
    and its step count stay as they are."""
    if rows.size == w.shape[0]:
        adam_step(state, w, g, lr)
        return
    part = copy.copy(state)
    part.m, part.v, part.step_count = state.m[rows], state.v[rows], state.step_count[rows]
    w_rows = w[rows]
    adam_step(part, w_rows, g, lr)
    w[rows], state.m[rows], state.v[rows], state.step_count[rows] = \
        w_rows, part.m, part.v, part.step_count


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


def _stacked(items, terms) -> tuple:
    """The operators, features and layer-0 terms of ``items``, graphs of
    one node count, as one stack."""
    return (GraphStack([it.ops for it in items]), np.stack([it.features for it in items]),
            [np.stack(col) for col in zip(*(it.layer0(terms) for it in items))])


def _stacked_targets(items, shape) -> np.ndarray:
    """The targets of ``items`` as one stack, each checked against the
    ``shape`` of one graph's prediction."""
    wrong = [it.target.shape for it in items if it.target.shape != shape]
    if wrong:
        raise InputError(f"target shape {wrong[0]} does not match prediction {shape}")
    return np.stack([it.target for it in items])


def evaluate(model: Model, items) -> float:
    """Mean MSE of one model over items, inference mode (no dropout, no
    penalty).

    Items with one node count run as one stacked forward pass, split so
    that no activation holds more than :data:`MAX_STACK_ENTRIES` entries.
    Each item's loss equals that of its own pass bit for bit, and the
    losses are summed in item order.
    """
    if not items:
        raise InputError("evaluate needs at least one item")
    if model.flat.ndim != 1:
        raise InputError("evaluate scores one model, not a stack")
    width = max(model.input_dim, *(p.shape[-1] for p in model.params.values()))
    by_size: dict[int, list[int]] = {}
    for k, item in enumerate(items):
        by_size.setdefault(item.ops.graph.n, []).append(k)
    losses = [0.0] * len(items)
    for n, members in by_size.items():
        per_pass = max(1, MAX_STACK_ENTRIES // (n * width))
        for start in range(0, len(members), per_pass):
            chunk = members[start:start + per_pass]
            group = [items[k] for k in chunk]
            ops, x, layer0 = _stacked(group, model.spec.terms)
            pred = forward(model, ops, x, layer0=layer0)
            sq = mse_loss(pred, _stacked_targets(group, pred.shape[1:]))[0]
            for k, loss in zip(chunk, sq.tolist()):
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
    one. Cells whose graphs differ in node count at a step run one stack
    per node count. A cell with fewer training graphs sits out the last
    steps of each epoch; a cell that stopped or diverged sits out the
    rest, its parameters and moments frozen. Validation is measured once
    before training (epoch 0), so a returned snapshot can be the untouched
    initial model if training only ever hurts.

    One model (a flat vector) with one train split, one validation split
    and one config is the group of one: its result comes back alone, and
    a cell that diverges raises :class:`TrainingError` carrying the epoch.
    """
    if model.flat.ndim == 1:
        result, = fit(model.with_flat(model.flat[None]), [train_items], [val_items], [cfg])
        if result.stop_reason == "diverged":
            raise TrainingError(f"non-finite loss or activations at epoch {len(result.history)}")
        return result
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
            parts: dict[int, list[int]] = {}
            for f in live:
                if step < len(order[f]) and not results[f].stop_reason:
                    parts.setdefault(order[f][step].ops.graph.n, []).append(f)
            for rows in parts.values():
                losses = _step(model, state, buffers, rows, [order[f][step] for f in rows],
                               rngs, lr, shared.dropout)
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


def _step(model: Model, state: AdamState, buffers: _StepBuffers, rows: list[int], items,
          rngs, lr: list[float], dropout: float) -> list[float]:
    """One training step of rows ``rows`` of the stack ``model``, each on
    its item: the training loss of each row, NaN for a row whose loss or
    activations turned non-finite, which is then left unchanged."""
    sub, grad, grads = buffers.rows(len(rows))
    if sub is not model:
        np.take(model.flat, rows, axis=0, out=sub.flat)
    ops, x, layer0 = _stacked(items, model.spec.terms)
    saved: dict = {}
    finite = np.ones(len(rows), dtype=bool)
    pred = forward(sub, ops, x, dropout_rate=dropout, rng=[rngs[f] for f in rows],
                   saved=saved, layer0=layer0, finite=finite)
    losses, d_pred = mse_loss(pred, _stacked_targets(items, pred.shape[1:]))
    finite &= np.isfinite(losses)
    kept = np.flatnonzero(finite)
    if kept.size:
        # a diverged row's gradient is computed too, silently, then dropped
        with np.errstate(all=None if kept.size == len(rows) else "ignore"):
            backward(sub, saved, d_pred, grads)
        updated = np.asarray(rows)[kept]
        _adam_rows(state, model.flat, grad[kept], np.array(lr)[updated, None], updated)
    return np.where(finite, losses, math.nan).tolist()


def gradient_check(model: Model, item: TrainItem) -> float:
    """Largest relative error between analytic and central-difference grads.

    The objective is the inference-mode MSE (dropout off), so it is
    deterministic; the L2 penalty lives in :func:`adam_step`, not in the
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
    pred = forward(model, item.ops, item.features, saved=saved)
    analytic = np.zeros_like(w)
    backward(model, saved, mse_loss(pred, item.target)[1], model.unflatten(analytic))

    def loss_value() -> float:
        return mse_loss(forward(model, item.ops, item.features), item.target)[0]

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
