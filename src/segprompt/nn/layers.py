"""Layers on top of the autodiff core: linear, MLP, layer norm, attention."""

from __future__ import annotations

import math

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn import tensor as T
from segprompt.nn.tensor import Tensor

ACTIVATIONS = {
    "gelu": T.gelu,
    "relu": T.relu,
    "tanh": T.tanh,
    "identity": lambda x: x,
}


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Scaled uniform init, +-1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LinearLayer:
    """y = x @ W.T + b with weight (out_dim, in_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        self.in_dim = in_dim
        self.out_dim = out_dim
        if rng is None:
            w = np.zeros((out_dim, in_dim))
            b = np.zeros(out_dim)
        else:
            w = init_uniform(rng, (out_dim, in_dim), in_dim)
            b = init_uniform(rng, (out_dim,), in_dim)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(b, requires_grad=True)

    @classmethod
    def identity(cls, dim: int) -> "LinearLayer":
        layer = cls(dim, dim)
        layer.weight.data[:] = np.eye(dim)
        return layer

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ContractError(
                f"linear layer expects trailing dim {self.in_dim}, got {x.shape}")
        return T.linear(x, self.weight, self.bias)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class MlpBlock:
    """Chain of linear layers with a pointwise activation between them."""

    def __init__(self, dims: list[int], activation: str = "gelu",
                 rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ContractError("MlpBlock needs at least one layer")
        if activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        self.activation = activation
        self.layers = [LinearLayer(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    @classmethod
    def identity(cls, dim: int, n_layers: int) -> "MlpBlock":
        block = cls([dim] * (n_layers + 1), activation="identity")
        for layer in block.layers:
            layer.weight.data[:] = np.eye(dim)
        return block

    def __call__(self, x: Tensor) -> Tensor:
        act = ACTIVATIONS[self.activation]
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
    """One attention block's keys and values so far, each (rows, heads*head_dim)."""

    def __init__(self):
        self.k: Tensor | None = None
        self.v: Tensor | None = None

    def __len__(self) -> int:
        return 0 if self.k is None else self.k.shape[0]

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append the new rows' keys and values; return all of them."""
        if self.k is not None:
            k, v = T.concat([self.k, k]), T.concat([self.v, v])
        self.k, self.v = k, v
        return k, v


class AttentionBlock:
    """Multi-head self-attention over a (seq, dim) input, optionally causal."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, causal: bool = False):
        if dim % heads != 0:
            raise ContractError(f"heads ({heads}) must divide dim ({dim})")
        self.heads = heads
        self.causal = causal
        self.wq = LinearLayer(dim, dim, rng)
        self.wk = LinearLayer(dim, dim, rng)
        self.wv = LinearLayer(dim, dim, rng)
        self.proj = LinearLayer(dim, dim, rng)

    def __call__(self, x: Tensor, cache: KvCache | None = None) -> Tensor:
        """With ``cache`` the rows of ``x`` follow the cached ones: their keys
        and values are appended, and they attend over every cached row too."""
        k, v = self.wk(x), self.wv(x)
        if cache is not None:
            k, v = cache.extend(k, v)
        return self.proj(T.attention(self.wq(x), k, v, self.causal, self.heads))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.wq.named_params(f"{prefix}.wq"))
        out.update(self.wk.named_params(f"{prefix}.wk"))
        out.update(self.wv.named_params(f"{prefix}.wv"))
        out.update(self.proj.named_params(f"{prefix}.proj"))
        return out


class TransformerBlock:
    """Pre-norm block: x + attn(ln(x)), then x + mlp(ln(x))."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 causal: bool = False, mlp_ratio: int = 4):
        self.ln1 = LayerNorm(dim)
        self.attn = AttentionBlock(dim, heads, rng, causal=causal)
        self.ln2 = LayerNorm(dim)
        self.mlp = MlpBlock([dim, mlp_ratio * dim, dim], activation="gelu", rng=rng)

    def __call__(self, x: Tensor, cache: KvCache | None = None) -> Tensor:
        x = x + self.attn(self.ln1(x), cache)
        return x + self.mlp(self.ln2(x))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.ln1.named_params(f"{prefix}.ln1"))
        out.update(self.attn.named_params(f"{prefix}.attn"))
        out.update(self.ln2.named_params(f"{prefix}.ln2"))
        out.update(self.mlp.named_params(f"{prefix}.mlp"))
        return out
