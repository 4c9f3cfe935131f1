"""Segmentation tokens extractor.

Per positive structure it emits two vectors: a mask token (mask pooling of
multi-layer patch features, per-tap linear projections, addition, MLP) and a
spatial token (fixed-resolution mask resample, flatten, linear projection).
It pools the image encoder's own tap layers, so its width and its taps are
the encoder's: ``ReportModel`` passes ``VitConfig.dim`` and
``VitConfig.tap_layers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from segprompt.errors import ContractError, check_at_least
from segprompt.encoder import FeatureGrid
from segprompt.masks import Mask, MaskSet, StructureId, is_positive, positive_structures, to_grid
from segprompt.nn import MlpBlock, Tensor
from segprompt.nn.layers import LinearLayer


@dataclass
class ExtractorConfig:
    spatial_side: int = 32
    mlp_depth: int = 2

    def __post_init__(self):
        check_at_least(self, 1, "spatial_side", "mlp_depth")


@dataclass
class SegTokenPair:
    structure: StructureId
    mask_token: Tensor    # (dim,)
    spatial_token: Tensor  # (dim,)


class SegTokenExtractor:
    """Trainable weights: one linear per tap, a fusion MLP, a spatial linear,
    all ``dim`` wide, the width of the encoder features it pools."""

    def __init__(self, cfg: ExtractorConfig, dim: int, tap_layers: Sequence[int],
                 seed: int | None = 0):
        """One tap projection per encoder layer in ``tap_layers``. ``seed=None``
        draws nothing: zero weights for a checkpoint to fill."""
        self.cfg = cfg
        rng = None if seed is None else np.random.default_rng(seed)
        self.tap_linears = {k: LinearLayer(dim, dim, rng) for k in tap_layers}
        self.fusion = MlpBlock([dim] * (cfg.mlp_depth + 1), rng=rng)
        self.spatial = LinearLayer(cfg.spatial_side ** 2, dim, rng)

    def named_params(self, prefix: str = "seg") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for k, layer in self.tap_linears.items():
            out.update(layer.named_params(f"{prefix}.tap{k}.linear"))
        out.update(self.fusion.named_params(f"{prefix}.fusion.mlp"))
        out.update(self.spatial.named_params(f"{prefix}.spatial.linear"))
        return out


def mask_pool(fg: FeatureGrid, gm: Mask) -> Tensor:
    """Mean of the feature vectors over the grid mask's set cells, as one
    (S, cells) weight matrix @ features for a stack of S grid masks
    (S, rows, cols), which pools to (S, dim); a grid mask pools to (dim,)."""
    if gm.ndim not in (2, 3) or gm.shape[-2:] != (fg.rows, fg.cols):
        raise ContractError(f"grid mask {gm.shape} != feature grid ({fg.rows}, {fg.cols})")
    sel = gm.reshape(-1, fg.rows * fg.cols)
    counts = sel.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ContractError("mask_pool over an empty grid mask; gate on positivity first")
    pooled = Tensor((sel / counts).astype(fg.features.data.dtype)) @ fg.features
    return pooled if gm.ndim == 3 else pooled[0]


def mask_token(features: dict[int, FeatureGrid], gm: Mask,
               extractor: SegTokenExtractor) -> Tensor:
    """MLP( sum over taps of Linear_tap(mask_pool(features[tap], gm)) ).

    A grid mask gives (dim,); a stack (S, rows, cols) gives (S, dim)."""
    fused: Tensor | None = None
    for tap, linear in extractor.tap_linears.items():
        if tap not in features:
            raise ContractError(f"missing tap layer {tap} in encoder features")
        projected = linear(mask_pool(features[tap], gm))
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


def spatial_token(m: Mask | Sequence[Mask], extractor: SegTokenExtractor) -> Tensor:
    """Linear projection of the row-major flattened side x side mask resample.

    A mask gives (dim,); a stack of S masks, (S, h, w) or a sequence, gives
    (S, dim) from one projection, resampling each mask once."""
    single = isinstance(m, np.ndarray) and m.ndim == 2
    masks = [m] if single else list(m)
    if not all(is_positive(x) for x in masks):
        raise ContractError("spatial_token of an empty mask; gate on positivity first")
    side = extractor.cfg.spatial_side
    flat = np.stack([resample_mask(x, side).reshape(-1) for x in masks]).astype(
        extractor.spatial.weight.data.dtype)
    return extractor.spatial(Tensor(flat[0] if single else flat))


def extract_tokens(features: dict[int, FeatureGrid], ms: MaskSet, patch: int,
                   extractor: SegTokenExtractor) -> list[SegTokenPair]:
    """One SegTokenPair per positive structure, in canonical roster order.
    The mask branch pools over the patch-lattice resample of the mask. Each
    branch runs once over the view's stack of positive masks; the pairs hold
    its rows."""
    structures = positive_structures(ms)
    if not structures:
        return []
    masks = [ms[s] for s in structures]
    mask_tokens = mask_token(features, np.stack([to_grid(m, patch) for m in masks]), extractor)
    spatial_tokens = spatial_token(masks, extractor)
    return [SegTokenPair(structure=s, mask_token=mask_tokens[i], spatial_token=spatial_tokens[i])
            for i, s in enumerate(structures)]
