"""Test helpers shared across modules: the central finite-difference gradient
oracle, a parameter cast for bare components, the whole-image tube
rasterizer that ``synth._polyline`` must match, and the count of this
process's open file descriptors."""

import math
import os
from typing import Callable

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn import Tensor


class OracleError(RuntimeError):
    """The finite-difference oracle hit a non-finite evaluation."""


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


def cast_params(params: dict[str, Tensor], dtype) -> None:
    """Cast each parameter to ``dtype`` in place, as ``ReportModel(dtype=...)``
    does: for a bare component, such as a ``DecoderLm``, built in float64."""
    for p in params.values():
        p.data = p.data.astype(dtype, copy=False)


def polyline_reference(size: int, points: list[tuple[float, float]], radius: int) -> np.ndarray:
    """``synth._polyline`` as one test over the whole image per sample point:
    the oracle its windowed version must match bit for bit."""
    m = np.zeros((size, size), dtype=bool)
    rows = np.arange(size)[:, None]
    cols = np.arange(size)[None, :]
    for (r0, c0), (r1, c1) in zip(points[:-1], points[1:]):
        steps = max(int(2 * max(abs(r1 - r0), abs(c1 - c0))), 1)
        for t in np.linspace(0.0, 1.0, steps + 1):
            r = r0 + t * (r1 - r0)
            c = c0 + t * (c1 - c0)
            m |= (rows - r) ** 2 + (cols - c) ** 2 <= radius ** 2
    return m


def open_fds() -> int:
    """The number of file descriptors this process has open, so that a test
    can check that an error path closes the one it opened."""
    return len(os.listdir("/proc/self/fd"))
