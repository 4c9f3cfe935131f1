"""Small frozen ViT-style patch encoder with intermediate layer taps.

Random seeded weights stand in for a pretrained domain encoder; the taps and
the final feature grid exercise the same plumbing. Taps are the residual
stream after each block (1-based).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from segprompt.errors import ContractError, check_at_least
from segprompt.nn import Tensor, TransformerBlock, init_uniform
from segprompt.nn.layers import LinearLayer


@dataclass
class VitConfig:
    image_size: int = 64
    patch_size: int = 16
    depth: int = 8
    dim: int = 64
    heads: int = 4
    tap_layers: tuple[int, ...] = (2, 4, 6, 8)

    def __post_init__(self):
        check_at_least(self, 1, "image_size", "patch_size", "depth", "dim", "heads")
        if self.image_size % self.patch_size:
            raise ContractError(f"key 'patch_size' ({self.patch_size}) must divide "
                                f"key 'image_size' ({self.image_size})")
        if self.dim % self.heads:
            raise ContractError(f"key 'heads' ({self.heads}) must divide key 'dim' ({self.dim})")
        if not self.tap_layers or any(t < 1 or t > self.depth for t in self.tap_layers):
            raise ContractError(f"key 'tap_layers' {list(self.tap_layers)} must be nonempty "
                                f"and lie in [1, depth {self.depth}]")
        if len(set(self.tap_layers)) < len(self.tap_layers):
            raise ContractError(f"key 'tap_layers' {list(self.tap_layers)} repeats a layer")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_side ** 2


@dataclass
class FeatureGrid:
    """Patch-grid features: Tensor of shape (rows*cols, dim), row-major."""

    rows: int
    cols: int
    features: Tensor

    def __post_init__(self):
        if self.features.shape[0] != self.rows * self.cols:
            raise ContractError(
                f"feature grid {self.rows}x{self.cols} expects "
                f"{self.rows * self.cols} cells, got {self.features.shape}")

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class EncoderOutput:
    taps: dict[int, FeatureGrid]
    final: FeatureGrid


class VitEncoder:
    def __init__(self, cfg: VitConfig, seed: int | None = 0):
        """``seed=None`` draws nothing: zero weights for a checkpoint to fill."""
        self.cfg = cfg
        rng = None if seed is None else np.random.default_rng(seed)
        in_dim = cfg.patch_size ** 2
        self.patch_embed = LinearLayer(in_dim, cfg.dim, rng)
        self.pos_embed = Tensor(init_uniform(rng, (cfg.n_patches, cfg.dim), cfg.dim),
                                requires_grad=True)
        self.blocks = [TransformerBlock(cfg.dim, cfg.heads, rng, causal=False)
                       for _ in range(cfg.depth)]

    def named_params(self, prefix: str = "enc") -> dict[str, Tensor]:
        out = self.patch_embed.named_params(f"{prefix}.patch_embed")
        out[f"{prefix}.pos_embed"] = self.pos_embed
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"{prefix}.block{i}"))
        return out

    def _patchify(self, images: np.ndarray) -> np.ndarray:
        """(n, size, size) -> (n, patches, patch*patch), patches row-major."""
        p, g = self.cfg.patch_size, self.cfg.grid_side
        return images.reshape(-1, g, p, g, p).transpose(0, 1, 3, 2, 4).reshape(-1, g * g, p * p)

    def encode(self, images: Sequence[np.ndarray]) -> list[EncoderOutput]:
        """Run the encoder once over a stack of images; returns, per image,
        one FeatureGrid per tap layer plus the final-layer grid for the
        adapter path. Each image's features are those of encoding it alone:
        every op is row-wise or runs per image."""
        size = self.cfg.image_size
        stack = []
        for i, image in enumerate(images):
            image = np.asarray(image, dtype=np.float64)
            if image.shape != (size, size):
                raise ContractError(
                    f"image {i}: shape {image.shape} != configured ({size}, {size})")
            if image.min() < 0.0 or image.max() > 1.0:
                raise ContractError(f"image {i}: pixel values must lie in [0, 1]")
            stack.append(image)
        if not stack:
            return []
        g = self.cfg.grid_side
        patches = self._patchify(np.stack(stack)).astype(self.pos_embed.data.dtype)
        x = self.patch_embed(Tensor(patches)) + self.pos_embed
        taps: dict[int, Tensor] = {}
        for layer_index, block in enumerate(self.blocks, start=1):
            x = block(x)
            if layer_index in self.cfg.tap_layers:
                taps[layer_index] = x
        outs = []
        for i in range(len(stack)):
            grids = {layer: FeatureGrid(g, g, t[i]) for layer, t in taps.items()}
            final = grids[self.cfg.depth] if self.cfg.depth in grids else FeatureGrid(g, g, x[i])
            outs.append(EncoderOutput(taps=grids, final=final))
        return outs
