"""Segmentation tokens extractor.

Per positive structure it emits two vectors: a mask token (mask pooling of
multi-layer patch features, per-tap linear projections, addition, MLP) and a
spatial token (fixed-resolution mask resample, flatten, linear projection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segprompt.errors import ContractError
from segprompt.encoder import FeatureGrid
from segprompt.masks import Mask, MaskSet, StructureId, is_positive, positive_structures, to_grid
from segprompt.nn import MlpBlock, Tensor
from segprompt.nn.layers import LinearLayer


@dataclass
class ExtractorConfig:
    dim: int = 64
    tap_layers: tuple[int, ...] = (2, 4, 6, 8)
    spatial_side: int = 32
    mlp_depth: int = 2

    def __post_init__(self):
        if not self.tap_layers:
            raise ContractError("tap_layers must be nonempty")
        if self.dim <= 0 or self.spatial_side <= 0:
            raise ContractError("dim and spatial_side must be positive")


@dataclass
class SegTokenPair:
    structure: StructureId
    mask_token: Tensor    # (dim,)
    spatial_token: Tensor  # (dim,)


class SegTokenExtractor:
    """Trainable weights: one linear per tap, a fusion MLP, a spatial linear."""

    def __init__(self, cfg: ExtractorConfig, seed: int = 0, identity: bool = False):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        if identity:
            self.tap_linears = {k: LinearLayer.identity(cfg.dim) for k in cfg.tap_layers}
            self.fusion = MlpBlock.identity(cfg.dim, cfg.mlp_depth)
        else:
            self.tap_linears = {k: LinearLayer(cfg.dim, cfg.dim, rng) for k in cfg.tap_layers}
            self.fusion = MlpBlock([cfg.dim] * (cfg.mlp_depth + 1), activation="gelu", rng=rng)
        self.spatial = LinearLayer(cfg.spatial_side ** 2, cfg.dim, rng)

    def named_params(self, prefix: str = "seg") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, layer in self.tap_linears.items():
            out.update(layer.named_params(f"{prefix}.tap{k}.linear"))
        out.update(self.fusion.named_params(f"{prefix}.fusion.mlp"))
        out.update(self.spatial.named_params(f"{prefix}.spatial.linear"))
        return out


def mask_pool(fg: FeatureGrid, gm: Mask) -> Tensor:
    """Mean of the feature vectors over the grid mask's set cells."""
    if gm.shape != (fg.rows, fg.cols):
        raise ContractError(f"grid mask {gm.shape} != feature grid ({fg.rows}, {fg.cols})")
    idx = np.nonzero(gm.reshape(-1))[0]
    if idx.size == 0:
        raise ContractError("mask_pool over an empty grid mask; gate on positivity first")
    return fg.features[idx].mean(axis=0)


def mask_token(features: dict[int, FeatureGrid], gm: Mask,
               extractor: SegTokenExtractor) -> Tensor:
    """MLP( sum over taps of Linear_tap(mask_pool(features[tap], gm)) )."""
    fused: Tensor | None = None
    for tap in extractor.cfg.tap_layers:
        if tap not in features:
            raise ContractError(f"missing tap layer {tap} in encoder features")
        projected = extractor.tap_linears[tap](mask_pool(features[tap], gm))
        fused = projected if fused is None else fused + projected
    return extractor.fusion(fused)


def resample_mask(m: Mask, side: int) -> Mask:
    """Resample to side x side: a cell is set iff its source window contains
    any foreground pixel. Cell i spans rows [i*h//side, (i+1)*h//side), or
    just row i*h//side when that is empty (masks smaller than side); columns
    alike. ``logical_or.reduceat`` is exactly this: on a repeated edge it
    returns the row at that edge."""
    h, w = m.shape
    if side < 1 or h < 1 or w < 1:
        raise ContractError(f"cannot resample a mask of shape {m.shape} to side {side}")
    rows = np.logical_or.reduceat(m, np.arange(side) * h // side, axis=0)
    return np.logical_or.reduceat(rows, np.arange(side) * w // side, axis=1)


def spatial_token(m: Mask, extractor: SegTokenExtractor) -> Tensor:
    """Linear projection of the row-major flattened side x side mask resample."""
    if not is_positive(m):
        raise ContractError("spatial_token of an empty mask; gate on positivity first")
    grid = resample_mask(m, extractor.cfg.spatial_side)
    flat = Tensor(grid.reshape(-1).astype(np.float64))
    return extractor.spatial(flat)


def extract_tokens(features: dict[int, FeatureGrid], ms: MaskSet, patch: int,
                   extractor: SegTokenExtractor) -> list[SegTokenPair]:
    """One SegTokenPair per positive structure, in canonical roster order.
    The mask branch pools over the patch-lattice resample of the mask."""
    pairs: list[SegTokenPair] = []
    for structure in positive_structures(ms):
        m = ms[structure]
        gm = to_grid(m, patch)
        pairs.append(SegTokenPair(
            structure=structure,
            mask_token=mask_token(features, gm, extractor),
            spatial_token=spatial_token(m, extractor),
        ))
    return pairs
