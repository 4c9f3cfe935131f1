"""Set-of-marks rendering: grayscale contour overlays and numeric marks stamped
from an embedded 5x7 bitmap font.

Images are float grids in [0, 1]; mark intensities are 8-bit values drawn at
``value / 255``. Pixels outside the contour and glyph footprints are left
bit-identical to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from segprompt.errors import ContractError
from segprompt.masks import (
    Mask,
    MaskSet,
    StructureId,
    contour,
    largest_component_centroid,
    positive_structures,
)

# 5x7 digit bitmaps; '1' cells are drawn.
DIGIT_FONT: dict[str, tuple[str, ...]] = {
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    "3": ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}
GLYPH_H = 7
GLYPH_W = 5
GLYPH_GAP = 1
# each digit's bitmap as a (GLYPH_H, GLYPH_W) bool array
GLYPHS: dict[str, np.ndarray] = {
    ch: np.array([[bit == "1" for bit in row] for row in rows])
    for ch, rows in DIGIT_FONT.items()}

LegendEntry = tuple[str, StructureId, int]  # (mark label, structure, intensity)


@dataclass
class MarkStyle:
    contours: bool = True
    alphanumerics: bool = True
    policy: str = "contrast_max"  # alternating | contrast_max | uniform
    uniform_value: int = 128

    def __post_init__(self):
        if not (self.contours or self.alphanumerics):
            raise ContractError("a mark style needs contours or alphanumerics")
        if self.policy not in ("alternating", "contrast_max", "uniform"):
            raise ContractError(f"unknown intensity policy {self.policy!r}")


@dataclass
class Overlay:
    image: np.ndarray
    legend: list[LegendEntry] = field(default_factory=list)


def assign_intensities(image: np.ndarray, rings: list[Mask], policy: str,
                       uniform_value: int = 128) -> list[int]:
    """Per-mask 8-bit intensities, one per mask contour in ``rings``.
    alternating: 255,0,255,... in order. contrast_max: argmax over {0,255} of
    the distance to the mean image value under the ring (ties go to 255).
    uniform: one constant (the same-intensity sanity configuration)."""
    if not rings:
        raise ContractError("assign_intensities needs at least one mask")
    if policy == "alternating":
        return [255 if i % 2 == 0 else 0 for i in range(len(rings))]
    if policy == "uniform":
        return [int(uniform_value)] * len(rings)
    out = []
    for ring in rings:
        mean = float(image[ring].mean()) * 255.0 if ring.any() else 0.0
        out.append(255 if abs(255.0 - mean) >= abs(0.0 - mean) else 0)
    return out


def _glyph_stamps(label: str, shape: tuple[int, int], center: tuple[float, float]):
    """Each digit of the label as ``(window, bits)``: its bitmap clipped to
    ``shape`` and the slices of the image it covers. The label is centered
    near ``center`` and clamped to stay inside ``shape``."""
    h, w = shape
    total_w = len(label) * GLYPH_W + (len(label) - 1) * GLYPH_GAP
    r0 = int(round(center[0])) - GLYPH_H // 2
    c0 = int(round(center[1])) - total_w // 2
    r0 = min(max(r0, 0), max(h - GLYPH_H, 0))
    c0 = min(max(c0, 0), max(w - total_w, 0))
    for k, ch in enumerate(label):
        cc = c0 + k * (GLYPH_W + GLYPH_GAP)
        if cc >= w:
            break
        bits = GLYPHS[ch][:h - r0, :w - cc]
        yield np.s_[r0:r0 + bits.shape[0], cc:cc + bits.shape[1]], bits


def glyph_mask(label: str, shape: tuple[int, int], center: tuple[float, float]) -> Mask:
    """Footprint of the label's digits centered near ``center``, clamped to
    stay inside ``shape``."""
    out = np.zeros(shape, dtype=bool)
    for window, bits in _glyph_stamps(label, shape, center):
        out[window] |= bits
    return out


def render_overlay(image: np.ndarray, ms: MaskSet, style: MarkStyle) -> Overlay:
    """Draw each positive mask's contour and/or numeric mark in canonical
    order; later marks overwrite earlier pixels on overlap."""
    image = np.asarray(image, dtype=np.float64)
    for s, m in ms.items():
        if m.shape != image.shape:
            raise ContractError(
                f"mask {s.value} extents {m.shape} != image {image.shape}")
    out = image.copy()
    positives = positive_structures(ms)
    if not positives:
        return Overlay(image=out, legend=[])
    rings = [contour(ms[s]) for s in positives]
    intensities = assign_intensities(image, rings, style.policy, style.uniform_value)
    legend: list[LegendEntry] = []
    for k, (s, ring, value) in enumerate(zip(positives, rings, intensities), start=1):
        if style.contours:
            out[ring] = value / 255.0
        if style.alphanumerics:
            center = largest_component_centroid(ms[s])
            for window, bits in _glyph_stamps(str(k), image.shape, center):
                out[window][bits] = value / 255.0
        legend.append((str(k), s, value))
    return Overlay(image=out, legend=legend)


def overlay_footprint(ms: MaskSet, style: MarkStyle, shape: tuple[int, int]) -> Mask:
    """Union of all contour and glyph pixels a render would draw."""
    fp = np.zeros(shape, dtype=bool)
    for k, s in enumerate(positive_structures(ms), start=1):
        m = ms[s]
        if style.contours:
            fp |= contour(m)
        if style.alphanumerics:
            fp |= glyph_mask(str(k), shape, largest_component_centroid(m))
    return fp
