"""Full-batch-per-graph training with Adam, early stopping, and LR decay.

One optimisation step consumes one graph: :func:`walklab.models.forward`,
the mean squared error and its gradient with respect to the prediction,
:func:`walklab.models.backward` into one flat gradient vector, and an Adam
update of the model's flat parameter vector from it. The divergence
check reads the MSE. Each :class:`TrainItem` keeps its layer-0 terms
``Op_t(X)``: its features are read-only, so they are computed once per
graph and term and reused on every pass. :func:`evaluate` scores a split
as one stacked pass per node count, in chunks of at most
:data:`MAX_STACK_ENTRIES` activations, with the same losses bit for bit
as one pass per graph. :func:`adam_step` applies the L2 penalty
``l2 * sum(w**2)`` to the coordinates the model's ``decay`` mask marks,
the MLP and head weight matrices (gates and biases are not penalised), as
coupled L2: its gradient ``2 * l2 * w`` joins the data gradient before the
Adam moments, unlike decoupled (AdamW) decay. Validation is scored before
the first epoch and after every epoch; the best validation snapshot, one
copy of the flat vector, is what :func:`fit` returns.

The plateau schedule counts the epochs since the last new best: at
``patience`` of them the learning rate is multiplied by ``lr_factor``,
and at ``2 * patience`` training stops. An improvement resets the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError, TrainingError
from .graphs import Graph
from .models import (AggregationTerm, GraphOperators, GraphStack, Model, apply_term,
                     backward, forward)

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
    layer-0 values of ``terms`` are built now.
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
        items[-1].layer0(terms)
    return items


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error of a prediction and its gradient with respect to
    the prediction; both arrays have the same nonempty shape."""
    if pred.shape != target.shape:
        raise InputError(f"target shape {target.shape} does not match prediction {pred.shape}")
    if pred.size == 0:
        raise InputError("mse_loss needs at least one entry")
    diff = pred - target
    return float((diff * diff).sum() / diff.size), 2.0 * diff / diff.size


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment vectors over a flat parameter vector, and the L2
    coefficient with the mask of the coordinates it applies to (none when
    ``decay`` is omitted)."""

    def __init__(self, w: np.ndarray, l2: float = 0.0, decay: np.ndarray | None = None):
        self.l2 = l2
        self.decay = np.zeros(w.shape, dtype=bool) if decay is None else decay
        self.step_count = 0
        self.m = np.zeros_like(w)
        self.v = np.zeros_like(w)


def adam_step(state: AdamState, w: np.ndarray, g: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of the flat vector ``w``, in place,
    from its gradient ``g``.

    Coordinates in ``state.decay`` first get the coupled L2 gradient
    ``2 * l2 * w`` added, on a copy: ``g`` is not modified. The moments
    are updated in place, each product and sum in the order of
    ``m = b1 * m + (1 - b1) * g`` and ``w -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    if state.l2 > 0:
        g = g.copy()
        g[state.decay] += (2.0 * state.l2) * w[state.decay]
    state.m *= b1
    state.m += (1 - b1) * g
    state.v *= b2
    state.v += (1 - b2) * (g * g)
    step = state.m / (1 - b1**t)
    denom = np.sqrt(state.v / (1 - b2**t))
    denom += ADAM_EPS
    step *= lr
    step /= denom
    w -= step


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class FitResult:
    history: list[EpochStats]
    best_epoch: int
    best_val: float
    stop_reason: str
    lr_cuts: int


def evaluate(model: Model, items) -> float:
    """Mean MSE over items, inference mode (no dropout, no penalty).

    Items with one node count run as one stacked forward pass, split so
    that no activation holds more than :data:`MAX_STACK_ENTRIES` entries.
    Each item's loss equals that of its own pass bit for bit, and the
    losses are summed in item order.
    """
    if not items:
        raise InputError("evaluate needs at least one item")
    terms = model.spec.terms
    width = max(model.input_dim, *(p.shape[1] for p in model.params.values()))
    by_size: dict[int, list[int]] = {}
    for k, item in enumerate(items):
        by_size.setdefault(item.ops.graph.n, []).append(k)
    losses = [0.0] * len(items)
    for n, members in by_size.items():
        per_pass = max(1, MAX_STACK_ENTRIES // (n * width))
        for start in range(0, len(members), per_pass):
            chunk = members[start:start + per_pass]
            group = [items[k] for k in chunk]
            pred = forward(model, GraphStack([it.ops for it in group]),
                           np.stack([it.features for it in group]),
                           layer0=[np.stack(col) for col in zip(*(it.layer0(terms)
                                                                   for it in group))])
            wrong = [it.target.shape for it in group if it.target.shape != pred.shape[1:]]
            if wrong:
                raise InputError(f"target shape {wrong[0]} does not match "
                                 f"prediction {pred.shape[1:]}")
            diff = pred - np.stack([it.target for it in group])
            sq = (diff * diff).sum(axis=(1, 2)) / diff[0].size
            for k, loss in zip(chunk, sq.tolist()):
                losses[k] = loss
    total = 0.0
    for loss in losses:
        total += loss
    return total / len(items)


def fit(model: Model, train_items, val_items, cfg: TrainConfig) -> FitResult:
    """Train in place and leave the best-validation parameters on the model.

    Validation is measured once before training (epoch 0), so the
    returned snapshot can be the untouched initial model if training
    only ever hurts. Non-finite losses abort with
    :class:`TrainingError` carrying the epoch index.
    """
    if not train_items or not val_items:
        raise InputError("fit needs nonempty train and validation splits")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.flat, l2=cfg.l2, decay=model.decay)
    grad = np.zeros_like(model.flat)
    grads = model.unflatten(grad)
    lr_cuts = 0
    lr = cfg.lr
    best_val = evaluate(model, val_items)
    best_snapshot = model.flat.copy()
    best_epoch = 0
    history = [EpochStats(epoch=0, train_loss=float("nan"), val_loss=best_val, lr=lr)]
    since_best = 0
    stop_reason = "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_items))
        train_mse_sum = 0.0
        for idx in order:
            item = train_items[int(idx)]
            saved: dict = {}
            pred = forward(model, item.ops, item.features, dropout_rate=cfg.dropout,
                           rng=rng, saved=saved, layer0=item.layer0(model.spec.terms))
            loss, d_pred = mse_loss(pred, item.target)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            backward(model, saved, d_pred, grads)
            adam_step(state, model.flat, grad, lr)
            train_mse_sum += loss
        val = evaluate(model, val_items)
        if not np.isfinite(val):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch=epoch, val_loss=val, lr=lr,
                                  train_loss=train_mse_sum / len(train_items)))
        if val < best_val:
            best_val = val
            best_snapshot = model.flat.copy()
            best_epoch = epoch
            since_best = 0
            continue
        since_best += 1
        if since_best == cfg.patience:
            lr *= cfg.lr_factor
            lr_cuts += 1
        elif since_best == 2 * cfg.patience:
            stop_reason = "early_stop"
            break
    model.flat[:] = best_snapshot
    return FitResult(history=history, best_epoch=best_epoch, best_val=best_val,
                     stop_reason=stop_reason, lr_cuts=lr_cuts)


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
