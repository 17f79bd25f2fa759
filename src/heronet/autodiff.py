"""Reverse-mode automatic differentiation on numpy arrays.

A small tape: every operation returns a `Tensor` that remembers its parents
and a closure propagating the output gradient to them. `backward()` walks the
graph in reverse topological order. Training runs the tape in float32; the
gradient-check harness builds the identical graph in float64.

Gradients at non-differentiable points use the conventional subgradients:
relu'(0) = 0, d|x|/dx at 0 = 0, and the Euclidean distance propagates a zero
gradient at coincident points (see `euclidean`).
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference, caching)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other, like=self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def backward(loss: Tensor):
    """Backpropagate d(loss)/d(leaf) into `.grad` of every reachable tensor."""
    if loss.data.ndim != 0:
        raise ValueError("backward() expects a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        parent_grads = node._backward(node.grad)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            p.grad = pg if p.grad is None else p.grad + pg
        if node._parents:
            node.grad = None  # intermediate node: free after use


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), bw)


def div(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data / b.data

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        return (-g,)

    return _make(-a.data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        if ga.shape != a.data.shape:
            ga = _unbroadcast(ga, a.data.shape)
        if gb.shape != b.data.shape:
            gb = _unbroadcast(gb, b.data.shape)
        return ga, gb

    return _make(data, (a, b), bw)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bw(g):
        return (g * data,)

    return _make(data, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        return (g / a.data,)

    return _make(np.log(a.data), (a,), bw)


def log1p(a: Tensor) -> Tensor:
    def bw(g):
        return (g / (1.0 + a.data),)

    return _make(np.log1p(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / data,)

    return _make(data, (a,), bw)


def square(a: Tensor) -> Tensor:
    def bw(g):
        return (g * 2.0 * a.data,)

    return _make(a.data * a.data, (a,), bw)


def absolute(a: Tensor) -> Tensor:
    def bw(g):
        return (g * np.sign(a.data),)

    return _make(np.abs(a.data), (a,), bw)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0),)

    return _make(data, (a,), bw)


def _stable_sigmoid(x: np.ndarray) -> tuple:
    """exp(-|x|) and the overflow-free sigmoid of x built from it."""
    e = np.exp(-np.abs(x))
    return e, np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    _, data = _stable_sigmoid(a.data)

    def bw(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), bw)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.data.shape).copy(),)

    return _make(data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        return (g.reshape(a.data.shape),)

    return _make(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def bw(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), bw)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, parts, bw)


def getitem(a: Tensor, key) -> Tensor:
    data = a.data[key]

    def bw(g):
        out = np.zeros_like(a.data)
        np.add.at(out, key, g)
        return (out,)

    return _make(data, (a,), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: table (V, d), integer ids of any shape -> ids.shape + (d,)."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def bw(g):
        out = np.zeros_like(table.data)
        np.add.at(out, ids.ravel(), g.reshape(-1, table.data.shape[-1]))
        return (out,)

    return _make(data, (table,), bw)


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick a[..., idx] per row: a (..., V), idx (...) ints -> (...)."""
    idx = np.asarray(idx)
    data = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        out = np.zeros_like(a.data)
        flat = out.reshape(-1, a.data.shape[-1])
        rows = np.arange(flat.shape[0])
        np.add.at(flat, (rows, idx.ravel()), g.ravel())
        return (out,)

    return _make(data, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`; the stabilizing max-shift carries no gradient."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return ((g - dot) * data,)

    return _make(data, (a,), bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def bw(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _make(data, (a,), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gain.data * xhat + bias.data

    def bw(g):
        d = a.data.shape[-1]
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead) if g.ndim > 1 else g * xhat
        dbias = g.sum(axis=lead) if g.ndim > 1 else g
        return dx, _unbroadcast(dgain, gain.data.shape), _unbroadcast(dbias, bias.data.shape)

    return _make(data, (a, gain, bias), bw)


def euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Euclidean distance over the last axis, with broadcasting.

    At coincident points the true derivative is undefined; the minimal-norm
    subgradient 0 is propagated so a satisfied-margin hinge stays NaN-free.
    """
    diff = a.data - b.data
    data = np.sqrt((diff * diff).sum(axis=-1))

    def bw(g):
        denom = np.where(data > 0, data, 1.0)
        scale = np.where(data > 0, g / denom, 0.0)[..., None]
        gd = scale * diff
        return _unbroadcast(gd, a.data.shape), _unbroadcast(-gd, b.data.shape)

    return _make(data, (a, b), bw)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed as max(x, 0) + log1p(exp(-|x|))."""
    e, sig = _stable_sigmoid(a.data)
    data = np.maximum(a.data, 0.0) + np.log1p(e)

    def bw(g):
        return (g * sig,)

    return _make(data, (a,), bw)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam over a named parameter dict; state keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / bias1
            vhat = v / bias2
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.data.dtype)
