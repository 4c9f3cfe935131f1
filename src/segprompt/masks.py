"""Binary masks: the structure roster, positivity, grid resampling, contours,
centroids, connected components, and PGM I/O.

A mask is a 2-d bool ndarray. A MaskSet maps structures to masks that all
share one view's extents. All operations are pure.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path

import numpy as np

from segprompt.errors import ContractError

Mask = np.ndarray  # bool, shape (height, width)


class StructureId(str, Enum):
    """Fixed roster: anatomical, then support devices, then pathological."""

    LEFT_LUNG = "left_lung"
    RIGHT_LUNG = "right_lung"
    HEART = "heart"
    CVC = "cvc"
    ETT = "ett"
    NGT = "ngt"
    SGC = "sgc"
    CHEST_TUBE = "chest_tube"
    PNEUMOTHORAX = "pneumothorax"


STRUCTURE_ORDER: tuple[StructureId, ...] = tuple(StructureId)

STRUCTURE_NAMES: dict[StructureId, str] = {
    StructureId.LEFT_LUNG: "left lung",
    StructureId.RIGHT_LUNG: "right lung",
    StructureId.HEART: "heart",
    StructureId.CVC: "central venous catheter",
    StructureId.ETT: "endotracheal tube",
    StructureId.NGT: "nasogastric tube",
    StructureId.SGC: "swan-ganz catheter",
    StructureId.CHEST_TUBE: "chest tube",
    StructureId.PNEUMOTHORAX: "pneumothorax",
}

MaskSet = dict[StructureId, Mask]


def as_mask(arr) -> Mask:
    a = np.asarray(arr)
    if a.ndim != 2:
        raise ContractError(f"mask must be 2-d, got shape {a.shape}")
    return a.astype(bool)


def positive_structures(ms: MaskSet) -> list[StructureId]:
    """Structures with a positive mask, in canonical roster order."""
    return [s for s in STRUCTURE_ORDER if s in ms and is_positive(ms[s])]


def is_positive(m: Mask) -> bool:
    """True iff the mask has at least one foreground pixel."""
    return bool(m.any())


def to_grid(m: Mask, patch: int) -> Mask:
    """Downsample to the patch lattice: a cell is set iff its window has any
    foreground pixel (preserves one-pixel-wide tubes)."""
    h, w = m.shape
    if patch <= 0 or h % patch or w % patch:
        raise ContractError(f"extents {m.shape} not divisible by patch {patch}")
    return m.reshape(h // patch, patch, w // patch, patch).any(axis=(1, 3))


def contour(m: Mask) -> Mask:
    """Foreground pixels with at least one background 4-neighbor
    (out-of-bounds counts as background)."""
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = m
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return m & ~interior


def centroid(m: Mask) -> tuple[float, float]:
    """Arithmetic mean (row, col) of the foreground."""
    rows, cols = np.nonzero(m)
    if rows.size == 0:
        raise ContractError("centroid of an empty mask")
    return float(rows.mean()), float(cols.mean())


def connected_components(m: Mask) -> list[Mask]:
    """8-connected components, largest first; ties broken by the smallest
    (row, col) pixel of the component.

    Run-based labeling (He, Chao and Suzuki, IEEE TIP 2008): find each row's
    foreground runs, union the runs of adjacent rows that touch, then paint
    each component's runs."""
    m = np.asarray(m, dtype=bool)
    h, w = m.shape
    width = w + 1  # one background column ends every row's last run
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = m
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)  # runs [start, end) in raster order
    ends = np.nonzero(edges == -1)[1]
    if rows.size == 0:
        return []
    # Half-open runs [s1, e1) in row r and [s2, e2) in row r + 1 touch under
    # 8-connectivity when s1 <= e2 and s2 <= e1. Keyed by row * width + col,
    # the row-r runs touching a row-(r + 1) run form one contiguous range.
    start_key = rows * width + starts
    end_key = rows * width + ends
    above = (rows - 1) * width
    lo = np.searchsorted(end_key, above + starts, side="left")
    hi = np.searchsorted(start_key, above + ends, side="right")
    # Union-find that keeps the smaller run index as the root, so every
    # parent index is at most its child's and one pass resolves the roots.
    parent = list(range(rows.size))
    for b, (first, stop) in enumerate(zip(lo.tolist(), hi.tolist())):
        for a in range(first, stop):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            root = b
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            if a != root:
                parent[max(a, root)] = min(a, root)
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    label = np.unique(parent, return_inverse=True)[1]
    # A component's root is its first run, which holds its smallest
    # (row, col) pixel, so a stable sort by size keeps that tie-break.
    sizes = np.bincount(label, weights=ends - starts)
    order = np.argsort(-sizes, kind="stable")
    delta = np.zeros(h * width, dtype=np.int64)
    delta[start_key] = label + 1
    delta[end_key] = -(label + 1)
    painted = np.cumsum(delta).reshape(h, width)[:, :w]
    return [painted == k + 1 for k in order]


# -- PGM I/O -------------------------------------------------------------------
# Binary PGM (P5), 8-bit. Masks: 0 background, nonzero foreground.


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.dtype == bool:
        arr = arr.astype(np.uint8) * 255
    if arr.dtype != np.uint8:
        raise ContractError(f"PGM writer expects uint8 or bool, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ContractError(f"{path}: not a binary PGM (P5) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise ContractError(f"{path}: malformed PGM header field {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ContractError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(raw) - pos < h * w:
        raise ContractError(f"{path}: truncated PGM pixel data, {w}x{h} needs {h * w} bytes")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).copy()


def read_mask(path: str | Path) -> Mask:
    """Load a mask PGM, normalizing any nonzero byte to foreground."""
    return read_pgm(path) != 0


def write_mask(path: str | Path, m: Mask) -> None:
    write_pgm(path, as_mask(m))


def read_image(path: str | Path) -> np.ndarray:
    """Load a grayscale PGM as floats in [0, 1]."""
    return read_pgm(path).astype(np.float64) / 255.0


def write_image(path: str | Path, image: np.ndarray) -> None:
    arr = np.clip(np.asarray(image), 0.0, 1.0)
    write_pgm(path, np.round(arr * 255.0).astype(np.uint8))
