"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps an ndarray and records the op graph as it is built.
``Tensor.backward()`` on a scalar fills ``.grad`` on every reachable tensor
with ``requires_grad=True``. Inside ``no_grad()`` no graph is recorded, so
inference keeps no parents or backward closures alive. Arrays are float64 by
default ("test mode"); training runs switch to float32 via
``set_default_dtype`` / ``precision``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from segprompt.errors import ContractError, OracleError

_DEFAULT_DTYPE = np.float64

_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}

_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the dtype used for all newly created tensors ('float32'/'float64')."""
    global _DEFAULT_DTYPE
    if isinstance(dtype, str):
        dtype = _DTYPE_NAMES[dtype]
    if dtype not in (np.float32, np.float64):
        raise ContractError(f"unsupported dtype {dtype!r}")
    _DEFAULT_DTYPE = dtype


@contextmanager
def precision(dtype):
    """Temporarily switch the default dtype (e.g. float32 for training runs)."""
    prev = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


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
    """A node in the autodiff graph holding an ndarray value."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (),
                 _backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

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

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar loss; fills .grad on requires_grad tensors."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -as_tensor(other))

    def __rsub__(self, other):
        return add(-self, other)

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division unsupported; use mul by reciprocal")
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == _DEFAULT_DTYPE else data.astype(_DEFAULT_DTYPE)
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
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad or a._parents:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad or b._parents:
                b._accumulate(_unbroadcast(g, b.shape))
        out._backward = bw
    return out


def mul(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            if a.requires_grad or a._parents:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad or b._parents:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with numpy matmul semantics; 1-d operands are lifted internally."""
    a, b = as_tensor(a), as_tensor(b)
    lift_a = a.ndim == 1
    lift_b = b.ndim == 1
    ad = a.data[None, :] if lift_a else a.data
    bd = b.data[:, None] if lift_b else b.data
    y = ad @ bd
    if lift_a:
        y = y[..., 0, :]
    if lift_b:
        y = y[..., 0]
    out = _make(y, (a, b))
    if out.requires_grad:
        def bw(g):
            gd = g
            if lift_a and lift_b:
                gd = gd[None, None]
            elif lift_a:
                gd = gd[..., None, :]
            elif lift_b:
                gd = gd[..., None]
            if a.requires_grad or a._parents:
                ga = gd @ bd.swapaxes(-1, -2)
                if lift_a:
                    ga = ga.reshape(a.shape) if ga.ndim <= 2 else ga.sum(
                        axis=tuple(range(ga.ndim - 2)))[0]
                else:
                    ga = _unbroadcast(ga, a.shape)
                a._accumulate(ga.reshape(a.shape))
            if b.requires_grad or b._parents:
                gb = ad.swapaxes(-1, -2) @ gd
                if lift_b:
                    gb = gb.reshape(b.shape) if gb.ndim <= 2 else gb.sum(
                        axis=tuple(range(gb.ndim - 2)))[:, 0]
                else:
                    gb = _unbroadcast(gb, b.shape)
                b._accumulate(gb.reshape(b.shape))
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


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = _make(x.data.transpose(axes), (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(g.transpose(inv))
    return out


def take(x: Tensor, idx) -> Tensor:
    """Indexing/gather (slices or integer arrays); backward scatter-adds."""
    out = _make(np.asarray(x.data[idx]), (x,))
    if out.requires_grad:
        def bw(g):
            gx = np.zeros_like(x.data)
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
                if t.requires_grad or t._parents:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accumulate(g[tuple(sl)])
        out._backward = bw
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = _make(0.5 * xd * (1.0 + t), (x,))
    if out.requires_grad:
        def bw(g):
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
            dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
            x._accumulate(g * dx)
        out._backward = bw
    return out


def relu(x: Tensor) -> Tensor:
    out = _make(np.maximum(x.data, 0.0), (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(g * (x.data > 0))
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    out = _make(t, (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(g * (1.0 - t * t))
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, (x,))
    if out.requires_grad:
        def bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            x._accumulate(y * (g - dot))
        out._backward = bw
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _make(xhat * gamma.data + beta.data, (x, gamma, beta))
    if out.requires_grad:
        d = x.shape[-1]

        def bw(g):
            if gamma.requires_grad or gamma._parents:
                gamma._accumulate((g * xhat).sum(axis=tuple(range(g.ndim - 1))))
            if beta.requires_grad or beta._parents:
                beta._accumulate(g.sum(axis=tuple(range(g.ndim - 1))))
            if x.requires_grad or x._parents:
                gy = g * gamma.data
                term = gy - gy.mean(axis=-1, keepdims=True) \
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
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


# -- gradient oracle ----------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    if eps <= 0:
        raise ContractError("eps must be positive")
    base = x.data.astype(np.float64, copy=True)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(base)))
        flat[i] = orig - eps
        lo = float(f(Tensor(base)))
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise OracleError(f"non-finite evaluation at coordinate {i}")
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-6) -> float:
    """max|a-n| / max(max|a|, max|n|, floor).

    The floor absorbs central-difference truncation noise (~1e-10 at
    eps=1e-6 in float64) on coordinates whose true gradient is zero.
    """
    diff = float(np.max(np.abs(analytic - numeric)))
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), floor)
    return diff / scale
