"""Reverse-mode automatic differentiation on numpy arrays.

A small tape that records structure, not values.  Every operation
returns a `Tensor` holding its output array and, when it needs a
gradient, a link to a `_Node`: the nodes of its parents, a closure that
maps the output gradient to theirs, and a gradient slot.  A leaf
(parameter or constant) is its own node.  A closure captures exactly
the arrays, shapes and indices its backward reads, never an input
`Tensor`, so an output no closure captured is freed as soon as the
forward code drops it.  `backward()` walks the nodes in reverse
topological order.  Training runs the tape in float32; the
gradient-check harness builds the identical graph in float64.

Gradients at non-differentiable points use the conventional subgradients:
relu'(0) = 0, d|x|/dx at 0 = 0, and the Euclidean distance propagates a zero
gradient at coincident points (see `euclidean`).
"""

from __future__ import annotations

import contextlib
import math
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


class _Node:
    """One recorded operation: its parents' nodes (None for a parent that
    needs no gradient), its backward closure and its gradient slot."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents: tuple, backward):
        self.grad = None
        self._parents = parents
        self._backward = backward


class Tensor:
    """A numpy array plus its link into the tape.

    `_node` is the node of the operation that made it, or None.  A leaf
    that requires grad is its own node: the class-level `_parents` and
    `_backward` give it no parents and no closure, and backward writes its
    gradient to `grad`, without a reference from the tensor to itself.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")
    _parents: tuple = ()
    _backward = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

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

    def __getitem__(self, key):
        return getitem(self, key)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap an op's output and, when a parent needs a gradient, record it.

    The node keeps the parents' nodes and `backward`, never the parent
    Tensors or their arrays: whatever forward value the backward reads,
    `backward` must have captured itself (an operand, its own output, a
    shape or an index).  A parent that needs no gradient is recorded as
    None, so a constant's array is not kept either.  Under no_grad
    nothing is recorded.
    """
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple([(p._node or p) if p.requires_grad else None
                                 for p in parents]), backward)
    return out


def backward(loss: Tensor):
    """Backpropagate d(loss)/d(leaf) into `.grad` of every reachable leaf.

    The walk visits nodes, not Tensors: the graph is whatever the loss's
    node reaches, and an intermediate Tensor the forward code dropped
    takes no part.  Each op node's gradient is dropped once its closure
    has run; the nodes and their closures live until the caller drops the
    loss.
    """
    if loss.data.ndim != 0:
        raise ValueError("backward() expects a scalar loss")
    root = loss._node or loss
    topo: list = []
    seen: set[int] = set()
    stack: list = [(root, False)] if loss.requires_grad else []
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None:
                stack.append((p, False))
    root.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        parent_grads = node._backward(node.grad)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or p is None:
                continue
            p.grad = pg if p.grad is None else p.grad + pg
        node.grad = None  # intermediate node: free after use


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    data = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, like=a)
    av, bv = a.data, b.data
    data = av * bv

    def bw(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _make(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        return (-g,)

    return _make(-a.data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with numpy broadcasting.

    A stack of rows times a 2-D weight, (..., k) @ (k, n), runs as one
    (rows, k) @ (k, n) GEMM both ways; the weight gradient is then a
    single a2.T @ g2 rather than a per-row stack summed afterwards.  A
    mismatched k falls through to numpy, which raises.
    """
    av, bv = a.data, b.data
    if bv.ndim == 2 and av.ndim >= 3 and av.shape[-1] == bv.shape[0]:
        k, n = bv.shape
        a_shape, a2 = av.shape, av.reshape(-1, k)
        data = (a2 @ bv).reshape(a_shape[:-1] + (n,))

        def bw_flat(g):
            g2 = g.reshape(-1, n)
            return (g2 @ bv.T).reshape(a_shape), a2.T @ g2

        return _make(data, (a, b), bw_flat)

    data = av @ bv

    def bw(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        if ga.shape != av.shape:
            ga = _unbroadcast(ga, av.shape)
        if gb.shape != bv.shape:
            gb = _unbroadcast(gb, bv.shape)
        return ga, gb

    return _make(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b: a (..., k) stack of rows, a (k, n) weight and an (n,) bias.

    One node: forward is one (rows, k) @ (k, n) GEMM plus the bias, and
    backward is one GEMM each for x and w and a single row sum for b.
    """
    wd, x_shape = w.data, x.data.shape
    k, n = wd.shape
    x2 = x.data.reshape(-1, k)
    data = (x2 @ wd + b.data).reshape(x_shape[:-1] + (n,))

    def bw(g):
        g2 = g.reshape(-1, n)
        return (g2 @ wd.T).reshape(x_shape), x2.T @ g2, g2.sum(axis=0)

    return _make(data, (x, w, b), bw)


def square(a: Tensor) -> Tensor:
    av = a.data

    def bw(g):
        return (g * 2.0 * av,)

    return _make(av * av, (a,), bw)


def absolute(a: Tensor) -> Tensor:
    av = a.data

    def bw(g):
        return (g * np.sign(av),)

    return _make(np.abs(av), (a,), bw)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bw(g):
        # the output is positive exactly where the input is
        return (g * (data > 0),)

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
    shape = a.data.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _make(data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shape).copy(),)

    return _make(data, (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    a_shape = a.data.shape

    def bw(g):
        return (g.reshape(a_shape),)

    return _make(a.data.reshape(shape), (a,), bw)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[axis] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, parts, bw)


def _sum_rows_into(out: np.ndarray, ids: np.ndarray, g: np.ndarray) -> None:
    """out[i] = sum of the rows g[j] with ids[j] == i, for every id present.

    A stable sort groups equal ids in their original order and one
    np.add.reduceat sums each group, so repeats cost no per-element
    scatter.
    """
    if ids.size == 0:
        return
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], ids_sorted[1:] != ids_sorted[:-1])))
    out[ids_sorted[starts]] = np.add.reduceat(g[order], starts, axis=0)


def getitem(a: Tensor, key) -> Tensor:
    """a[key].  An integer array key of any shape picks rows of axis 0
    (an embedding lookup is one), and backward sums the gradients of
    repeated rows group by group."""
    data = a.data[key]
    shape, dtype = a.data.shape, a.data.dtype
    by_rows = isinstance(key, np.ndarray) and key.dtype.kind in "iu"

    def bw(g):
        out = np.zeros(shape, dtype=dtype)
        if by_rows:
            _sum_rows_into(out, key.ravel() % shape[0],
                           g.reshape((-1,) + shape[1:]))
        else:
            np.add.at(out, key, g)
        return (out,)

    return _make(data, (a,), bw)


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Take grid positions off a (B, T, d) grid: -> (len(rows), d).

    rows are distinct flat indices into the B * T positions.  Backward
    is scatter_rows of the gradient onto a zero grid.
    """
    shape = a.data.shape
    d = shape[-1]
    data = a.data.reshape(-1, d)[rows]

    def bw(g):
        out = np.zeros(shape, dtype=g.dtype)
        out.reshape(-1, d)[rows] = g
        return (out,)

    return _make(data, (a,), bw)


def scatter_rows(a: Tensor, rows: np.ndarray, lead: tuple) -> Tensor:
    """Place the (R, d) rows of `a` at grid positions: -> lead + (d,).

    rows are R distinct flat indices into the lead = (B, T) positions;
    every other position is exactly 0.  Backward is gather_rows of the
    gradient.
    """
    d = a.data.shape[-1]
    data = np.zeros(tuple(lead) + (d,), dtype=a.data.dtype)
    data.reshape(-1, d)[rows] = a.data

    def bw(g):
        return (g.reshape(-1, d)[rows],)

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


def _attention_bias(kv_mask, causal: bool, t_q: int, t_k: int, dtype):
    """Additive -1e9 score bias for padded keys and future positions.

    None when nothing is masked: an all-ones kv_mask and a causal block
    whose t_q = 1 query is the last key position (every cached decode
    step) both leave every score as it is.
    """
    bias = None
    if not kv_mask.all():
        bias = ((1.0 - kv_mask.astype(dtype))[:, None, None, :]
                * np.asarray(-1e9, dtype=dtype))
    if causal and t_q > 1:
        tri = np.triu(np.full((t_q, t_k), -1e9, dtype=dtype),
                      k=t_k - t_q + 1)[None, None]
        bias = tri if bias is None else bias + tri
    return bias


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              kv_mask: np.ndarray, causal: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is (B, Tq, d); k and v are (B, Tk, d), with d split evenly into
    n_heads heads.  kv_mask (B, Tk) holds 1 for keys to attend to and 0
    for padding.  Under `causal` the Tq queries are the last Tq of the Tk
    key positions, so each sees its own position and the ones before it.
    Returns the heads' contexts merged back to (B, Tq, d).  Backward
    keeps only the attention weights besides the inputs.

    The weights are held key-major, as (Tk, B, H, Tq): the score GEMM
    writes k @ q^T straight into that layout, so the softmax max and sum,
    and the backward's row dot, reduce over the leading axis, which numpy
    does far faster than over a short trailing one.  The context and
    every gradient are written by their GEMMs straight into the merged
    (B, T, H, dh) layout.  The result equals the composition of matmul,
    softmax and the elementwise nodes up to float rounding.
    """
    b_sz, t_q, d = q.data.shape
    t_k = k.data.shape[1]
    dh = d // n_heads
    dt = q.data.dtype
    q4 = q.data.reshape(b_sz, t_q, n_heads, dh).transpose(0, 2, 1, 3)
    k4 = k.data.reshape(b_sz, t_k, n_heads, dh).transpose(0, 2, 1, 3)
    v4 = v.data.reshape(b_sz, t_k, n_heads, dh).transpose(0, 2, 1, 3)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=dt)
    # the scores, turned in place into the softmax weights
    attn = np.empty((t_k, b_sz, n_heads, t_q), dtype=dt)
    np.matmul(k4, q4.transpose(0, 1, 3, 2), out=attn.transpose(1, 2, 0, 3))
    attn *= scale
    bias = _attention_bias(kv_mask, causal, t_q, t_k, dt)
    if bias is not None:
        attn += bias.transpose(3, 0, 1, 2)
    attn -= attn.max(axis=0)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=0)
    out = np.empty((b_sz, t_q, n_heads, dh), dtype=dt)
    np.matmul(attn.transpose(1, 2, 3, 0), v4, out=out.transpose(0, 2, 1, 3))

    def bw(g):
        g4 = g.reshape(b_sz, t_q, n_heads, dh).transpose(0, 2, 1, 3)
        # the weights' gradient, key-major like attn, then the softmax
        # and scale backward in place
        g_s = np.empty_like(attn)
        np.matmul(v4, g4.transpose(0, 1, 3, 2), out=g_s.transpose(1, 2, 0, 3))
        gv = np.empty((b_sz, t_k, n_heads, dh), dtype=dt)
        np.matmul(attn.transpose(1, 2, 0, 3), g4, out=gv.transpose(0, 2, 1, 3))
        g_s -= (g_s * attn).sum(axis=0)
        g_s *= attn
        g_s *= scale
        gq = np.empty((b_sz, t_q, n_heads, dh), dtype=dt)
        np.matmul(g_s.transpose(1, 2, 3, 0), k4, out=gq.transpose(0, 2, 1, 3))
        gk = np.empty((b_sz, t_k, n_heads, dh), dtype=dt)
        np.matmul(g_s.transpose(1, 2, 0, 3), q4, out=gk.transpose(0, 2, 1, 3))
        return (gq.reshape(b_sz, t_q, d), gk.reshape(b_sz, t_k, d),
                gv.reshape(b_sz, t_k, d))

    return _make(out.reshape(b_sz, t_q, d), (q, k, v), bw)


def target_log_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    """log softmax(logits)[..., target]: logits (..., V), integer targets
    (...) -> (...).

    Forward keeps only the softmax for backward, whose gradient
    g * (onehot(target) - softmax) is written into one (..., V) array.
    """
    idx = np.asarray(targets)[..., None]
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    soft = np.exp(logp)
    logp -= np.log(soft.sum(axis=-1, keepdims=True))
    data = np.take_along_axis(logp, idx, axis=-1)[..., 0]
    np.exp(logp, out=soft)

    def bw(g):
        # g + 0.0 turns a -0.0 gradient into +0.0, as a row sum would, and
        # 0.0 - grad, unlike -grad, leaves +0.0 off target where grad is 0
        grad = soft * (g + 0.0)[..., None]
        at = g[..., None] - np.take_along_axis(grad, idx, axis=-1)
        np.subtract(0.0, grad, out=grad)
        np.put_along_axis(grad, idx, at, axis=-1)
        return (grad,)

    return _make(data, (logits,), bw)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    Means are taken as sum / d, which equals np.mean bit for bit and
    skips its per-call overhead.
    """
    d = a.data.shape[-1]
    mu = a.data.sum(axis=-1, keepdims=True) / d
    xc = a.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd, bias_shape = gain.data, bias.data.shape
    data = gd * xhat + bias.data

    def bw(g):
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        )
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead) if g.ndim > 1 else g * xhat
        dbias = g.sum(axis=lead) if g.ndim > 1 else g
        return (dx, _unbroadcast(dgain, gd.shape),
                _unbroadcast(dbias, bias_shape))

    return _make(data, (a, gain, bias), bw)


def euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Euclidean distance over the last axis, with broadcasting.

    At coincident points the true derivative is undefined; the minimal-norm
    subgradient 0 is propagated so a satisfied-margin hinge stays NaN-free.
    """
    diff = a.data - b.data
    data = np.sqrt((diff * diff).sum(axis=-1))
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        denom = np.where(data > 0, data, 1.0)
        scale = np.where(data > 0, g / denom, 0.0)[..., None]
        gd = scale * diff
        return _unbroadcast(gd, sa), _unbroadcast(-gd, sb)

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
        """Update every parameter that has a gradient.  A non-finite update
        is not applied: it raises FloatingPointError naming the parameter."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):
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
                update = (self.lr * mhat / (np.sqrt(vhat) + self.eps)
                          ).astype(p.data.dtype)
                if not np.isfinite(update).all():
                    raise FloatingPointError(f"non-finite update to {name}")
                p.data -= update
