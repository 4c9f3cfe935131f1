"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps an ndarray and records the op graph as it is built.
``Tensor.backward()`` on a scalar adds to ``.grad`` on every reachable leaf
with ``requires_grad=True`` and consumes the graph: each interior node drops
its grad, parents and backward closure once its closure has run, so the
activations the closures hold are freed while backward runs, not after it.
A graph is backpropagated once; reaching a consumed node again raises
``ContractError``. Inside ``no_grad()`` no graph is recorded, so
inference keeps no parents or backward closures alive. There is no global
dtype: a ``Tensor`` keeps the float dtype of the array it wraps, every op
computes in its operands' dtype, and a constant (a Python float, or any
non-``Tensor`` operand of ``+``, ``-`` and ``*``) takes the dtype of the
``Tensor`` it meets, so float32 arithmetic stays float32 (NEP 50).

Ops take and return ``Tensor``s. The forward arithmetic of ``layer_norm``,
``gelu`` and ``attention`` is written once, as the array kernels
``layer_norm_forward``, ``gelu_forward`` and ``attend``, which the LM's bound
decode step calls too.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from segprompt.errors import ContractError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Record no graph: tensors made inside need no grad and keep no parents."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A node in the autodiff graph holding an ndarray value: a float array
    as it is, anything else as float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar loss and consume its graph.

        Leaves with ``requires_grad`` accumulate into ``.grad`` and keep it,
        so the gradients of several backward calls add up. Each interior
        node, once its closure has run, drops ``grad``, ``_parents`` and
        ``_backward`` and leaves the traversal list, so what it held is freed
        partway through backward. A graph that reaches a node an earlier
        backward consumed raises ``ContractError`` before any gradient moves.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                _consumed(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = _consumed

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -as_tensor(other, self.data.dtype))

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape)

    def __getitem__(self, idx):
        return take(self, idx)


def _consumed(g) -> None:
    """The backward closure of a node an earlier backward consumed."""
    raise ContractError("backward reached a tensor whose graph an earlier backward "
                        "consumed; rebuild the graph to backpropagate it again")


def as_tensor(x, dtype=None) -> Tensor:
    """``x`` as a Tensor; a non-Tensor is converted to ``dtype`` when given."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = req
    out._parents = parents if req else ()
    out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- primitive ops -----------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = as_tensor(b, a.data.dtype)
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = bw
    return out


def mul(a: Tensor, b) -> Tensor:
    b = as_tensor(b, a.data.dtype)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with numpy matmul semantics over operands of two or more axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(f"matmul takes operands of two or more axes, got {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))
        out._backward = bw
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b as one node: x (..., in), w (out, in), b (out,)."""
    w, b = as_tensor(w), as_tensor(b)
    out = _make(x.data @ w.data.T + b.data, (x, w, b))
    if out.requires_grad:
        def bw(g):
            if x.requires_grad:
                x._accumulate(g @ w.data)
            g2 = g.reshape(-1, g.shape[-1])
            if w.requires_grad:
                w._accumulate(g2.T @ x.data.reshape(-1, x.shape[-1]))
            if b.requires_grad:
                b._accumulate(g2.sum(axis=0))
        out._backward = bw
    return out


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, heads*d) -> (..., heads, rows, d), a view."""
    return a.reshape(*a.shape[:-1], heads, -1).swapaxes(-2, -3)


def attend(qh: np.ndarray, kt: np.ndarray, vh: np.ndarray, scale: float,
           causal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over split heads, on arrays: the weights
    p = softmax(qh kt * scale + mask) and p vh. qh (..., n, d) holds the
    queries, kt (..., d, m) the transposed keys, vh (..., m, d) the values;
    with ``causal`` query row i sits at position m - n + i and sees keys up
    to it. The one formula of ``attention`` and of the decode step."""
    s = (qh @ kt) * scale
    if causal:
        n, m = s.shape[-2:]
        if n > 1:
            s = s + np.triu(np.full((n, m), -1e30, dtype=s.dtype), k=m - n + 1)
    e = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    return p, p @ vh


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False,
              heads: int = 1) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask) v per head over (..., rows, heads*d) as one node.

    q has n rows, k and v have m. With ``causal`` query row i sits at
    position m - n + i and sees keys up to it. Only the attention weights are
    kept for backward; head split and merge, scores, mask and softmax are not
    separate nodes.
    """
    k, v = as_tensor(k), as_tensor(v)
    qh, kh, vh = (_split_heads(q.data, heads), _split_heads(k.data, heads),
                  _split_heads(v.data, heads))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    p, yh = attend(qh, kh.swapaxes(-1, -2), vh, scale, causal)
    out = _make(yh.swapaxes(-2, -3).reshape(q.shape), (q, k, v))
    if out.requires_grad:
        def bw(g):
            gh = _split_heads(g, heads)
            if v.requires_grad:
                v._accumulate((p.swapaxes(-1, -2) @ gh).swapaxes(-2, -3).reshape(v.shape))
            gp = gh @ vh.swapaxes(-1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                q._accumulate((gs @ kh).swapaxes(-2, -3).reshape(q.shape))
            if k.requires_grad:
                k._accumulate((gs.swapaxes(-1, -2) @ qh).swapaxes(-2, -3).reshape(k.shape))
        out._backward = bw
    return out


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    out = _make(np.asarray(x.data.sum(axis=axis)), (x,))
    if out.requires_grad:
        def bw(g):
            if axis is None:
                x._accumulate(np.broadcast_to(g, x.shape))
            else:
                x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape))
        out._backward = bw
    return out


def tensor_mean(x: Tensor, axis=None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return tensor_sum(x, axis=axis) * (1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    out = _make(x.data.reshape(shape), (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(g.reshape(x.shape))
    return out


def take(x: Tensor, idx) -> Tensor:
    """Indexing/gather. Backward assigns g for int and slice indexes, which cannot
    repeat, and scatter-adds it for integer arrays, which can."""
    out = _make(np.asarray(x.data[idx]), (x,))
    if out.requires_grad:
        def bw(g):
            gx = np.zeros_like(x.data)
            if all(isinstance(i, (int, np.integer, slice)) for i in np.index_exp[idx]):
                gx[idx] = g
            else:
                np.add.at(gx, idx, g)
            x._accumulate(gx)
        out._backward = bw
    return out


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in ts], axis=axis), tuple(ts))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)

        def bw(g):
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])
        out._backward = bw
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of an array, and the tanh term backward reuses."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    y, t = gelu_forward(xd)
    out = _make(y, (x,))
    if out.requires_grad:
        def bw(g):
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
            dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
            x._accumulate(g * dx)
        out._backward = bw
    return out


LN_EPS = 1e-5


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its trailing axis: the output, and the
    normalized input and inverse deviation that backward reuses. The
    statistics are numpy's mean/var reductions written out: same bits, less
    overhead."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + LN_EPS)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    y, xhat, inv = layer_norm_forward(x.data, gamma.data, beta.data)
    out = _make(y, (x, gamma, beta))
    if out.requires_grad:
        def bw(g):
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=tuple(range(g.ndim - 1))))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=tuple(range(g.ndim - 1))))
            if x.requires_grad:
                d = xhat.shape[-1]
                gy = g * gamma.data
                term = gy - gy.sum(axis=-1, keepdims=True) / d \
                    - xhat * ((gy * xhat).sum(axis=-1, keepdims=True) / d)
                x._accumulate(term * inv)
        out._backward = bw
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of targets under softmax(logits), rows (T, V)."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ContractError(
            f"cross_entropy expects (T, V) logits and (T,) targets, "
            f"got {logits.shape} and {targets.shape}")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    nll = lse[:, 0] - z[np.arange(len(targets)), targets]
    out = _make(np.asarray(nll.mean()), (logits,))
    if out.requires_grad:
        def bw(g):
            probs = np.exp(z - lse)
            probs[np.arange(len(targets)), targets] -= 1.0
            logits._accumulate(g * probs / len(targets))
        out._backward = bw
    return out

