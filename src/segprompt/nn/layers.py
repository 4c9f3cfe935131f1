"""Layers on top of the autodiff core: linear, MLP, layer norm, attention.

Each layer takes a ``Tensor`` or an ndarray and returns the same kind (see
``segprompt.nn.tensor``): the cached decode path runs them on arrays."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn import tensor as T
from segprompt.nn.tensor import Tensor

# MlpBlock looks its activation up here on every call, not once at import:
# the benchmark's traced run times ``nn.gelu`` by wrapping ACTIVATIONS["gelu"].
ACTIVATIONS = {"gelu": T.gelu}


def init_uniform(rng: np.random.Generator | None, shape: tuple[int, ...],
                 fan_in: int) -> np.ndarray:
    """Scaled uniform init, +-1/sqrt(fan_in). Without ``rng`` nothing is drawn:
    zeros of the default dtype, for a model whose weights a checkpoint fills."""
    if rng is None:
        return np.zeros(shape, dtype=T.default_dtype())
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LinearLayer:
    """y = x @ W.T + b with weight (out_dim, in_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(init_uniform(rng, (out_dim, in_dim), in_dim), requires_grad=True)
        self.bias = Tensor(init_uniform(rng, (out_dim,), in_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ContractError(
                f"linear layer expects trailing dim {self.in_dim}, got {x.shape}")
        return T.linear(x, self.weight, self.bias)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class MlpBlock:
    """Chain of linear layers with a GELU between them."""

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ContractError("MlpBlock needs at least one layer")
        self.layers = [LinearLayer(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        act = ACTIVATIONS["gelu"]
        for i, layer in enumerate(self.layers):
            if i > 0:
                x = act(x)
            x = layer(x)
        return x

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named_params(f"{prefix}.{i}"))
        return out


class LayerNorm:
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class KvCache:
    """One attention block's keys and values for up to ``rows`` sequences.

    K and V each live in one preallocated ``(rows, max_len, width)`` buffer;
    every sequence has its own length. ``extend`` copies only the new rows
    into place and returns ``[:n]`` array views, so a report copies each row
    once. Inference only: the stored values carry no graph.
    """

    def __init__(self, rows: int, max_len: int, width: int):
        dtype = T.default_dtype()
        self.k = np.empty((rows, max_len, width), dtype=dtype)
        self.v = np.empty((rows, max_len, width), dtype=dtype)
        self.lens = np.zeros(rows, dtype=np.intp)

    def extend(self, row: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append ``row``'s new keys and values (n, width); return all of its rows."""
        start = int(self.lens[row])
        end = start + k.shape[0]
        if end > self.k.shape[1]:
            raise ContractError(
                f"KV cache row {row}: {end} rows exceed max_seq_len {self.k.shape[1]}")
        self.k[row, start:end] = k
        self.v[row, start:end] = v
        self.lens[row] = end
        return self.k[row, :end], self.v[row, :end]


class AttentionBlock:
    """Multi-head self-attention over a (seq, dim) input, optionally causal."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None,
                 causal: bool = False):
        if dim % heads != 0:
            raise ContractError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.causal = causal
        self.wq = LinearLayer(dim, dim, rng)
        self.wk = LinearLayer(dim, dim, rng)
        self.wv = LinearLayer(dim, dim, rng)
        self.proj = LinearLayer(dim, dim, rng)

    def __call__(self, x: Tensor | np.ndarray, cache: KvCache | None = None,
                 rows: Sequence[int] = ()) -> Tensor | np.ndarray:
        """With ``cache`` a (B, n, dim) array ``x`` adds n rows to each of the
        B cached sequences ``rows``: their keys and values are appended, and
        they attend over every cached row of their sequence too. Only the
        row-wise projections see the whole batch: each sequence attends on
        its own over its own cache, with no padding or key mask, so its bits
        do not depend on the batch it runs in."""
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if cache is None:
            return self.proj(T.attention(q, k, v, self.causal, self.heads))
        out = np.empty_like(q)
        for b, row in enumerate(rows):
            kb, vb = cache.extend(row, k[b], v[b])
            out[b] = T.attention(q[b], kb, vb, self.causal, self.heads)
        return self.proj(out)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.wq.named_params(f"{prefix}.wq"))
        out.update(self.wk.named_params(f"{prefix}.wk"))
        out.update(self.wv.named_params(f"{prefix}.wv"))
        out.update(self.proj.named_params(f"{prefix}.proj"))
        return out


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)), then x + mlp(ln(x))."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None,
                 causal: bool = False, mlp_ratio: int = 4):
        self.ln1 = LayerNorm(dim)
        self.attn = AttentionBlock(dim, heads, rng, causal=causal)
        self.ln2 = LayerNorm(dim)
        self.mlp = MlpBlock([dim, mlp_ratio * dim, dim], rng=rng)

    def __call__(self, x: Tensor | np.ndarray, cache: KvCache | None = None,
                 rows: Sequence[int] = ()) -> Tensor | np.ndarray:
        x = x + self.attn(self.ln1(x), cache, rows)
        return x + self.mlp(self.ln2(x))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.named_params(f"{prefix}.ln1"))
        out.update(self.attn.named_params(f"{prefix}.attn"))
        out.update(self.ln2.named_params(f"{prefix}.ln2"))
        out.update(self.mlp.named_params(f"{prefix}.mlp"))
        return out
