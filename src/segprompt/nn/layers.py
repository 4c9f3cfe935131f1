"""Layers on top of the autodiff core: linear, MLP, layer norm, attention.

Each layer takes and returns ``Tensor``s; under ``no_grad`` they record no
graph, which is how a decoder prefill runs them."""

from __future__ import annotations

import math

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn import tensor as T
from segprompt.nn.tensor import Tensor

# MlpBlock looks its activation up here on every call, not once at import:
# the benchmark's traced run times ``nn.gelu`` by wrapping ACTIVATIONS["gelu"].
ACTIVATIONS = {"gelu": T.gelu}


def param_dtype(rng: np.random.Generator | None) -> type:
    """The dtype of every parameter a layer builds: float64 when ``rng``
    draws its init, and float32, the checkpoint's storage dtype, when there
    is no ``rng`` and a checkpoint fills the weights."""
    return np.float32 if rng is None else np.float64


def init_uniform(rng: np.random.Generator | None, shape: tuple[int, ...],
                 fan_in: int) -> np.ndarray:
    """Scaled uniform init, +-1/sqrt(fan_in); without ``rng`` nothing is
    drawn and the weights are zeros. Either way in ``param_dtype(rng)``."""
    if rng is None:
        return np.zeros(shape, dtype=param_dtype(rng))
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(param_dtype(rng), copy=False)


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
    """Gain one, shift zero, in ``param_dtype(rng)``; ``rng`` draws nothing."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        dtype = param_dtype(rng)
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class KvCache:
    """One attention block's keys and values for up to ``rows`` sequences.

    K and V each live in one preallocated ``(rows, max_len, width)`` buffer
    of ``dtype``, the LM's; every sequence has its own length. A prefill
    ``fill``s a row; the LM's decode step then writes one position per
    sequence in place. Inference only: the stored values carry no graph.
    """

    def __init__(self, rows: int, max_len: int, width: int, dtype=np.float64):
        self.k = np.empty((rows, max_len, width), dtype=dtype)
        self.v = np.empty((rows, max_len, width), dtype=dtype)
        self.lens = np.zeros(rows, dtype=np.intp)

    def fill(self, row: int, k: np.ndarray, v: np.ndarray) -> None:
        """Make ``row`` hold just these n keys and values (n, width)."""
        n = k.shape[0]
        if n > self.k.shape[1]:
            raise ContractError(
                f"KV cache row {row}: {n} rows exceed max_seq_len {self.k.shape[1]}")
        self.k[row, :n] = k
        self.v[row, :n] = v
        self.lens[row] = n


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

    def __call__(self, x: Tensor, cache: KvCache | None = None, row: int = 0) -> Tensor:
        """With ``cache`` the keys and values of the whole sequence ``x`` are
        also filled into its buffer row ``row``, for decode steps to extend."""
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if cache is not None:
            cache.fill(row, k.data, v.data)
        return self.proj(T.attention(q, k, v, self.causal, self.heads))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.wq.named_params(f"{prefix}.wq"))
        out.update(self.wk.named_params(f"{prefix}.wk"))
        out.update(self.wv.named_params(f"{prefix}.wv"))
        out.update(self.proj.named_params(f"{prefix}.proj"))
        return out


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)), then x + mlp(ln(x)), the MLP's hidden
    layer four times ``dim`` wide."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None,
                 causal: bool = False):
        self.ln1 = LayerNorm(dim, rng)
        self.attn = AttentionBlock(dim, heads, rng, causal=causal)
        self.ln2 = LayerNorm(dim, rng)
        self.mlp = MlpBlock([dim, 4 * dim, dim], rng=rng)

    def __call__(self, x: Tensor, cache: KvCache | None = None, row: int = 0) -> Tensor:
        x = x + self.attn(self.ln1(x), cache, row)
        return x + self.mlp(self.ln2(x))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.named_params(f"{prefix}.ln1"))
        out.update(self.attn.named_params(f"{prefix}.attn"))
        out.update(self.ln2.named_params(f"{prefix}.ln2"))
        out.update(self.mlp.named_params(f"{prefix}.mlp"))
        return out
