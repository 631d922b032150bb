"""Minimal reverse-mode automatic differentiation over 2-D float64 arrays.

The reference the tests check :func:`walklab.models.backward` against;
no module of the package imports it. A :class:`Tensor` wraps a value
plus a gradient slot; ops build a DAG of closures and :func:`backward`
replays it in reverse topological order. The op set is exactly what the
models need: dense and fixed-structure matrix products, broadcast add,
leaky ReLU, sigmoid, scalar gating, row scaling, inverted dropout,
row-sum readout and mean squared error. Structure matrices (adjacency
and friends) are plain constants; no gradient ever flows into them.
Gradients accumulate in ``.grad`` until the caller sets it back to None.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


class Tensor:
    """Node in the computation graph; value and grad are 2-D float64."""

    __slots__ = ("value", "grad", "trainable", "name", "_parents", "_backward")

    def __init__(self, value, parents=(), backward_fn=None, trainable=False, name=""):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        if v.ndim != 2:
            raise InputError(f"tensors are 2-D, got shape {v.shape}")
        self.value = v
        self.grad: np.ndarray | None = None
        self.trainable = trainable
        self.name = name
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.value.shape}, trainable={self.trainable})"


def parameter(value, name: str = "") -> Tensor:
    return Tensor(value, trainable=True, name=name)


def constant(value, name: str = "") -> Tensor:
    return Tensor(value, name=name)


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # Reverse numpy row-broadcasting: sum the gradient over expanded axes.
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise InputError(f"cannot reduce gradient {g.shape} to {shape}")
    return out


def matmul(x: Tensor, w: Tensor) -> Tensor:
    if x.shape[1] != w.shape[0]:
        raise InputError(f"matmul mismatch: {x.shape} @ {w.shape}")
    out = Tensor(x.value @ w.value, parents=(x, w))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(g @ w.value.T)
        w._accumulate(x.value.T @ g)

    out._backward = backward_fn
    return out


def struct_mul(mat, x: Tensor) -> Tensor:
    """Left-multiply by a fixed structure matrix (sparse or dense)."""
    out = Tensor(mat @ x.value, parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(mat.T @ g)

    out._backward = backward_fn
    return out


def add(x: Tensor, y: Tensor) -> Tensor:
    out = Tensor(x.value + y.value, parents=(x, y))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(_unbroadcast(g, x.shape))
        y._accumulate(_unbroadcast(g, y.shape))

    out._backward = backward_fn
    return out


def scalar_mul(s: Tensor, x: Tensor) -> Tensor:
    """Multiply by a 1x1 gate tensor."""
    if s.shape != (1, 1):
        raise InputError(f"gate must be 1x1, got {s.shape}")
    out = Tensor(s.value * x.value, parents=(s, x))

    def backward_fn(g: np.ndarray) -> None:
        s._accumulate(np.array([[float((g * x.value).sum())]]))
        x._accumulate(s.value * g)

    out._backward = backward_fn
    return out


def sigmoid(x: Tensor) -> Tensor:
    v = x.value
    # Branch on sign so neither exp overflows; saturates cleanly to 0/1.
    e = np.exp(-np.abs(v))
    out_val = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(out_val, parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(g * out_val * (1.0 - out_val))

    out._backward = backward_fn
    return out


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    mask = x.value >= 0
    out = Tensor(np.where(mask, x.value, slope * x.value), parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(g * np.where(mask, 1.0, slope))

    out._backward = backward_fn
    return out


def row_scale(x: Tensor, vec) -> Tensor:
    """Scale row v by the fixed coefficient vec[v]."""
    col = np.asarray(vec, dtype=np.float64).reshape(-1, 1)
    if col.shape[0] != x.shape[0]:
        raise InputError(f"row_scale length {col.shape[0]} does not match rows {x.shape[0]}")
    out = Tensor(col * x.value, parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(col * g)

    out._backward = backward_fn
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in training mode."""
    if not 0.0 <= rate < 1.0:
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(mask * x.value, parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(mask * g)

    out._backward = backward_fn
    return out


def row_sum(x: Tensor) -> Tensor:
    """Sum over rows: (n, c) -> (1, c). Permutation-invariant readout."""
    out = Tensor(x.value.sum(axis=0, keepdims=True), parents=(x,))

    def backward_fn(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    out._backward = backward_fn
    return out


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error against a fixed target array; returns 1x1."""
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 0:
        t = t.reshape(1, 1)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if t.shape != pred.shape:
        raise InputError(f"target shape {t.shape} does not match prediction {pred.shape}")
    diff = pred.value - t
    out = Tensor(np.array([[float((diff * diff).mean())]]), parents=(pred,))

    def backward_fn(g: np.ndarray) -> None:
        pred._accumulate(float(g[0, 0]) * 2.0 * diff / diff.size)

    out._backward = backward_fn
    return out


def backward(root: Tensor, seed=None) -> None:
    """Accumulate gradients of ``root`` into every reachable tensor.

    ``seed`` defaults to ones; passing an explicit upstream gradient of
    zeros leaves every gradient zero.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    g0 = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=np.float64)
    if g0.shape != root.value.shape:
        raise InputError(f"seed gradient shape {g0.shape} does not match root {root.value.shape}")
    root._accumulate(g0)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
