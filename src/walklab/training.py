"""Full-batch-per-graph training with Adam, early stopping, and LR decay.

One optimisation step consumes one graph: forward, mean squared error,
backward, Adam update. The tape holds the MSE only, and the divergence
check reads it. :func:`adam_step` applies the L2 penalty
``l2 * sum(w**2)`` to the MLP and head weight matrices (gates and biases
are not penalised) as coupled L2: its gradient ``2 * l2 * w`` joins the
data gradient before the Adam moments, unlike decoupled (AdamW) decay.
It also clears every gradient it consumed. Validation is scored before
the first epoch and after every epoch; the best validation snapshot is
what :func:`fit` returns.

The plateau schedule counts the epochs since the last new best: at
``patience`` of them the learning rate is multiplied by ``lr_factor``,
and at ``2 * patience`` training stops. An improvement resets the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import CapacityError, InputError, TrainingError
from .graphs import Graph
from .models import GraphOperators, Model, forward

__all__ = [
    "TrainConfig",
    "TrainItem",
    "prepare_items",
    "mse_loss",
    "AdamState",
    "adam_step",
    "EpochStats",
    "FitResult",
    "evaluate",
    "fit",
    "gradient_check",
]


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
    """One graph ready for training: cached operators, features, target."""

    ops: GraphOperators
    features: np.ndarray
    target: np.ndarray


def prepare_items(graphs, features, targets) -> list[TrainItem]:
    """Bundle graphs with features and scalar or vector targets.

    Structure matrices are computed once per graph here and reused by
    every subsequent forward pass.
    """
    items = []
    for g, x, y in zip(graphs, features, targets):
        if not isinstance(g, Graph):
            raise InputError("prepare_items expects Graph instances")
        t = np.asarray(y, dtype=np.float64)
        if t.ndim == 0:
            t = t.reshape(1, 1)
        items.append(TrainItem(ops=GraphOperators(g),
                               features=np.asarray(x, dtype=np.float64),
                               target=t))
    return items


def mse_loss(pred, target) -> float:
    """Mean squared error between two equal-length arrays."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise InputError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise InputError("mse_loss needs at least one entry")
    d = p - t
    return float((d * d).mean())


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment accumulators, one pair per parameter, and the
    L2 coefficient with the names of the parameters it applies to."""

    def __init__(self, params: dict[str, ad.Tensor], l2: float = 0.0,
                 decay_names: tuple[str, ...] = ()):
        self.l2 = l2
        self.decay_names = frozenset(decay_names)
        self.step_count = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}


def adam_step(state: AdamState, params: dict[str, ad.Tensor], lr: float) -> None:
    """One bias-corrected Adam update from each parameter's ``.grad``.

    Parameters named in ``state.decay_names`` first get the coupled L2
    gradient ``2 * l2 * value`` added. Parameters without an accumulated
    gradient are treated as zero-grad (their moments still decay
    deterministically). Every gradient is cleared after the update.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for key, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if state.l2 > 0 and key in state.decay_names:
            g = g + (2.0 * state.l2) * p.value
        state.m[key] = b1 * state.m[key] + (1 - b1) * g
        state.v[key] = b2 * state.v[key] + (1 - b2) * (g * g)
        m_hat = state.m[key] / (1 - b1**t)
        v_hat = state.v[key] / (1 - b2**t)
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad = None


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


def _graph_loss(model: Model, item: TrainItem, *, dropout: float = 0.0,
                rng=None) -> ad.Tensor:
    """MSE of one graph's prediction, the 1x1 root of the tape."""
    pred = forward(model, item.ops, item.features, training=dropout > 0.0,
                   dropout_rate=dropout, rng=rng)
    return ad.mse(pred, item.target)


def evaluate(model: Model, items) -> float:
    """Mean MSE over items, inference mode (no dropout, no penalty)."""
    if not items:
        raise InputError("evaluate needs at least one item")
    total = 0.0
    for item in items:
        pred = forward(model, item.ops, item.features)
        total += mse_loss(pred.value, item.target)
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
    state = AdamState(model.params, l2=cfg.l2, decay_names=model.weight_names)
    lr = cfg.lr
    best_val = evaluate(model, val_items)
    best_snapshot = model.param_values()
    best_epoch = 0
    history = [EpochStats(epoch=0, train_loss=float("nan"), val_loss=best_val, lr=lr)]
    since_best = 0
    stop_reason = "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_items))
        train_mse_sum = 0.0
        for idx in order:
            loss = _graph_loss(model, train_items[int(idx)], dropout=cfg.dropout, rng=rng)
            if not np.isfinite(loss.value).all():
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            ad.backward(loss)
            adam_step(state, model.trainable(), lr)
            train_mse_sum += loss.item()
        val = evaluate(model, val_items)
        if not np.isfinite(val):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch=epoch, val_loss=val, lr=lr,
                                  train_loss=train_mse_sum / len(train_items)))
        if val < best_val:
            best_val = val
            best_snapshot = model.param_values()
            best_epoch = epoch
            since_best = 0
            continue
        since_best += 1
        if since_best == cfg.patience:
            lr *= cfg.lr_factor
        elif since_best == 2 * cfg.patience:
            stop_reason = "early_stop"
            break
    model.load_param_values(best_snapshot)
    return FitResult(history=history, best_epoch=best_epoch,
                     best_val=best_val, stop_reason=stop_reason)


def gradient_check(model: Model, item: TrainItem, h: float = 1e-5,
                   max_params: int = 20000) -> float:
    """Largest relative error between analytic and central-difference grads.

    The objective is the inference-mode MSE (dropout off), so it is
    deterministic; the L2 penalty lives in :func:`adam_step`, not on the
    tape. Relative error uses a floor of 1e-3 in the denominator;
    coordinates where both gradients are below 1e-10 count as exact.
    Returns 0.0 when the model has no trainable parameters. The
    gradients it accumulates are cleared again before it returns.
    """
    trainable = model.trainable()
    coord_count = sum(p.value.size for p in trainable.values())
    if coord_count > max_params:
        raise CapacityError(
            f"gradient check supports <= {max_params} coordinates, got {coord_count}")
    if coord_count == 0:
        return 0.0
    ad.backward(_graph_loss(model, item))
    analytic = {k: (p.grad if p.grad is not None else np.zeros_like(p.value))
                for k, p in trainable.items()}
    for p in model.params.values():
        p.grad = None

    def loss_value() -> float:
        return _graph_loss(model, item).item()

    worst = 0.0
    for key, p in trainable.items():
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            a = float(analytic[key].reshape(-1)[i])
            scale = max(abs(a), abs(numeric))
            if scale < 1e-10:
                continue
            worst = max(worst, abs(a - numeric) / max(scale, 1e-3))
    return worst
