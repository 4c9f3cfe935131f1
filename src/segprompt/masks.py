"""Binary masks: the structure roster, positivity, grid resampling, contours,
the largest component's centroid from row runs, and PGM I/O.

A mask is a 2-d bool ndarray. A MaskSet maps structures to masks that all
share one view's extents. All operations are pure.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path

import numpy as np

from segprompt.errors import ContractError, read_file, write_file

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


def row_runs(m: Mask) -> tuple[np.ndarray, ...]:
    """Each row's foreground runs, for run-based labeling (He, Chao and
    Suzuki, IEEE TIP 2008): ``(rows, starts, ends, lo, hi)``, with run ``i``
    covering ``[starts[i], ends[i])`` of row ``rows[i]`` in raster order, and
    the runs ``lo[i]:hi[i]`` of the row above the ones it touches under
    8-connectivity."""
    m = np.asarray(m, dtype=bool)
    h, w = m.shape
    width = w + 1  # one background column ends every row's last run
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = m
    # Each row's edges alternate: a run's start, then its end.
    rows, cols = np.nonzero(padded[:, 1:] ^ padded[:, :-1])
    rows, starts, ends = rows[::2], cols[::2], cols[1::2]
    # Half-open runs [s1, e1) in row r and [s2, e2) in row r + 1 touch under
    # 8-connectivity when s1 <= e2 and s2 <= e1. Keyed by row * width + col,
    # the row-r runs touching a row-(r + 1) run form one contiguous range.
    above = (rows - 1) * width
    lo = np.searchsorted(rows * width + ends, above + starts, side="left")
    hi = np.searchsorted(rows * width + starts, above + ends, side="right")
    return rows, starts, ends, lo, hi


def run_roots(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The component root of every run of ``row_runs``: the index of the
    component's first run in raster order, which holds its smallest
    (row, col) pixel."""
    # Union-find that keeps the smaller run index as the root, so every
    # parent index is at most its child's and one pass resolves the roots.
    parent = list(range(lo.size))
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
    return np.array(parent, dtype=np.intp)


def largest_component_centroid(m: Mask) -> tuple[float, float]:
    """Mean (row, col) of the largest 8-connected component; a size tie goes
    to the component whose smallest (row, col) pixel comes first.

    Summed from the row runs, so no component is painted. When every run
    after the first touches one in the row above, each chains up to the
    first run and the mask is one component; only otherwise are the runs
    labeled. The sums are exact integers, so the means are those of
    ``np.nonzero`` over the component's pixels, bit for bit."""
    rows, starts, ends, lo, hi = row_runs(m)
    if rows.size == 0:
        raise ContractError("centroid of an empty mask")
    if not (hi[1:] > lo[1:]).all():
        roots = run_roots(lo, hi)
        # np.argmax takes the first of equal sizes: the smallest root
        keep = roots == np.argmax(np.bincount(roots, weights=ends - starts))
        rows, starts, ends = rows[keep], starts[keep], ends[keep]
    lengths = ends - starts
    count = int(lengths.sum())
    # a run covering columns s..e-1 sums to (s + e - 1) * (e - s) / 2
    col_sum = int((starts + ends - 1) @ lengths) // 2
    return int(rows @ lengths) / count, col_sum / count


# -- PGM I/O -------------------------------------------------------------------
# Binary PGM (P5), 8-bit. Masks: 0 background, nonzero foreground.

# Whitespace and ``#`` comments before a header field. The lookahead ends a
# comment only at a newline or the end of the file, so backtracking cannot
# cut one short and read the rest of its line as a field.
_GAP = rb"(?:\s|#[^\n]*(?=\n|\Z))*"
_PGM_HEADER = re.compile(rb"P5" + _GAP + rb"(\d+)\s" + _GAP + rb"(\d+)\s" + _GAP
                         + rb"(\d+)(?:\s|\Z)")


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.dtype == bool:
        arr = arr.astype(np.uint8) * 255
    if arr.dtype != np.uint8:
        raise ContractError(f"PGM writer expects uint8 or bool, got {arr.dtype}")
    h, w = arr.shape
    write_file(path, b"P5\n%d %d\n255\n" % (w, h), arr.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """An 8-bit binary PGM's pixels as a (height, width) uint8 array.

    The header is ``P5``, then width, height and maxval in decimal, each
    preceded by any whitespace and ``#`` comments (to the end of the line),
    and one whitespace byte before the pixels. maxval must be 255 and both
    extents positive. A malformed header or too few pixel bytes raises a
    ContractError naming the file. The file is read by ``errors.read_file``,
    on its descriptor: a mask is a few KB, and a file object would cost about
    as much again as the read."""
    raw = read_file(path)
    header = _PGM_HEADER.match(raw)
    if header is None:
        if not raw.startswith(b"P5"):
            raise ContractError(f"{path}: not a binary PGM (P5) file")
        raise ContractError(f"{path}: malformed PGM header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ContractError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if not (w and h):
        raise ContractError(f"{path}: PGM extents {w}x{h} must be positive")
    pos = header.end(3) + 1  # single whitespace byte after maxval
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
