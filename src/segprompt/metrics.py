"""Evaluation metrics: Dice and clDice over binary masks, multi-label
macro/micro F1, BLEU-4 and ROUGE-L on token lists, and percentile bootstrap
confidence intervals.

Dice and clDice return None when undefined (both masks empty / an empty
skeleton); aggregation skips those, i.e. scores are pooled over positives
only. Zero-denominator F1 terms score 0. BLEU is unsmoothed. The BLEU order,
ROUGE-L's beta and the bootstrap (500 resamples, the median, a 95% interval)
are fixed, and ``metric_conventions`` reports them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from segprompt.errors import ContractError
from segprompt.masks import Mask

# The five mask-relevant findings, in report order.
MR_FINDINGS = ("lung_opacity", "cardiomegaly", "pneumothorax",
               "support_devices", "pleural_effusion")

BLEU_ORDER = 4
ROUGE_BETA = 1.2  # ROUGE-L weighs recall 1.2 times precision
BOOTSTRAP_SAMPLES = 500
BOOTSTRAP_STATISTIC = np.median
BOOTSTRAP_INTERVAL = 95.0  # percent


def dice(pred: Mask, gt: Mask) -> float | None:
    """2|P∩G| / (|P|+|G|); None (skipped in aggregation) when both empty."""
    if pred.shape != gt.shape:
        raise ContractError(f"extent mismatch {pred.shape} vs {gt.shape}")
    p, g = int(pred.sum()), int(gt.sum())
    if p + g == 0:
        return None
    inter = int((pred & gt).sum())
    return 2.0 * inter / (p + g)


def _neighbors(m: np.ndarray) -> list[np.ndarray]:
    """P2..P9 (N, NE, E, SE, S, SW, W, NW) of a zero-padded mask."""
    z = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=m.dtype)
    z[1:-1, 1:-1] = m
    return [
        z[:-2, 1:-1], z[:-2, 2:], z[1:-1, 2:], z[2:, 2:],
        z[2:, 1:-1], z[2:, :-2], z[1:-1, :-2], z[:-2, :-2],
    ]


def skeletonize(m: Mask) -> Mask:
    """Zhang-Suen iterative thinning to convergence. The output is a subset
    of the input and preserves 8-connectivity."""
    img = m.astype(np.uint8)
    while True:
        changed = False
        for phase in (0, 1):
            p = _neighbors(img)
            b = sum(p)
            ring = np.stack(p + [p[0]])
            a = ((ring[:-1] == 0) & (ring[1:] == 1)).sum(axis=0)
            if phase == 0:
                cond = (p[0] * p[2] * p[4] == 0) & (p[2] * p[4] * p[6] == 0)
            else:
                cond = (p[0] * p[2] * p[6] == 0) & (p[0] * p[4] * p[6] == 0)
            delete = (img == 1) & (b >= 2) & (b <= 6) & (a == 1) & cond
            if delete.any():
                img[delete] = 0
                changed = True
        if not changed:
            return img.astype(bool)


def cl_dice(pred: Mask, gt: Mask) -> float | None:
    """Centerline Dice: harmonic mean of topology precision and sensitivity
    computed with thinning-based skeletons; None when either skeleton is
    empty."""
    if pred.shape != gt.shape:
        raise ContractError(f"extent mismatch {pred.shape} vs {gt.shape}")
    skel_p = skeletonize(pred)
    skel_g = skeletonize(gt)
    np_, ng = int(skel_p.sum()), int(skel_g.sum())
    if np_ == 0 or ng == 0:
        return None
    tprec = int((skel_p & gt).sum()) / np_
    tsens = int((skel_g & pred).sum()) / ng
    if tprec + tsens == 0:
        return 0.0
    return 2.0 * tprec * tsens / (tprec + tsens)


# -- multi-label F1 -----------------------------------------------------------


def _f1(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    denom = 2 * tp + fp + fn
    return np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0)


def macro_micro_f1(preds: Sequence[np.ndarray] | np.ndarray, gts: Sequence[np.ndarray] | np.ndarray
                   ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Per-finding F1 averaged (macro) and pooled-count F1 (micro) over
    binary label vectors; zero-denominator findings score 0.

    The tables are (studies, findings), and any leading axes batch them: a
    (S, n, F) stack gives two (S,) arrays, a single (n, F) table two floats."""
    p = np.asarray(preds, dtype=bool)
    g = np.asarray(gts, dtype=bool)
    if p.shape != g.shape or p.ndim < 2:
        raise ContractError(f"label tables must match, got {p.shape} vs {g.shape}")
    tp = (p & g).sum(axis=-2)
    fp = (p & ~g).sum(axis=-2)
    fn = (~p & g).sum(axis=-2)
    macro = _f1(tp, fp, fn).mean(axis=-1)
    micro = _f1(tp.sum(axis=-1), fp.sum(axis=-1), fn.sum(axis=-1))
    if p.ndim == 2:
        return float(macro), float(micro)
    return macro, micro


# -- lexical ----------------------------------------------------------------


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Unsmoothed BLEU-4 on 0-100: geometric mean of modified n-gram
    precisions times the brevity penalty; 0 if any precision is 0."""
    return corpus_bleu([candidate], [reference])


def corpus_bleu(candidates: Sequence[Sequence[str]],
                references: Sequence[Sequence[str]]) -> float:
    if len(candidates) != len(references):
        raise ContractError("candidate/reference count mismatch")
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for order in range(1, BLEU_ORDER + 1):
        matched = total = 0
        for cand, ref in zip(candidates, references):
            counts = _ngram_counts(cand, order)
            ref_counts = _ngram_counts(ref, order)
            matched += sum(min(c, ref_counts[g]) for g, c in counts.items())
            total += max(len(cand) - order + 1, 0)
        if matched == 0 or total == 0:
            return 0.0
        log_sum += math.log(matched / total)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum / BLEU_ORDER)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence, bit-parallel over Python
    ints (Allison and Dix 1986, in Hyyro's 2004 form): bit i of ``v`` is 0
    where the LCS so far grows at a[i], so the LCS is the count of 0 bits."""
    match: dict[str, int] = {}
    for i, x in enumerate(a):
        match[x] = match.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & match.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """LCS-based F-measure on 0-100, recall-weighted by ROUGE_BETA."""
    if not candidate or not reference:
        return 0.0
    lcs = _lcs_len(candidate, reference)
    if lcs == 0:
        return 0.0
    prec = lcs / len(candidate)
    rec = lcs / len(reference)
    b2 = ROUGE_BETA * ROUGE_BETA
    return 100.0 * (1 + b2) * prec * rec / (rec + b2 * prec)


# -- bootstrap ----------------------------------------------------------------


def bootstrap_ci(scores: Sequence[float], seed: int = 0) -> tuple[float, float, float]:
    """(median of the full sample, low percentile, high percentile) from
    resampling with replacement; deterministic under the seed."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ContractError("bootstrap over an empty score list")
    return bootstrap_ci_fn(arr, lambda resamples: BOOTSTRAP_STATISTIC(resamples, axis=1), seed)


def bootstrap_ci_fn(items: np.ndarray,
                    statistic_fn: Callable[[np.ndarray], np.ndarray],
                    seed: int = 0) -> tuple[float, float, float]:
    """Generic percentile bootstrap: resample rows of ``items``.

    All BOOTSTRAP_SAMPLES resamples come from one (samples, n) index matrix,
    which draws the same indexes as one ``size=n`` draw per resample.
    ``statistic_fn`` maps a (samples, n, ...) stack of resamples to the
    (samples,) statistics; the center is its value on ``items[None]``."""
    n = len(items)
    if n == 0:
        raise ContractError("bootstrap over an empty item list")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(BOOTSTRAP_SAMPLES, n))
    stats = np.asarray(statistic_fn(items[idx]), dtype=np.float64)
    center = np.asarray(statistic_fn(items[None]), dtype=np.float64)
    if stats.shape != (BOOTSTRAP_SAMPLES,) or center.shape != (1,):
        raise ContractError(f"bootstrap statistic must return one value per resample, "
                            f"got shape {stats.shape} for {BOOTSTRAP_SAMPLES} resamples")
    tail = (100.0 - BOOTSTRAP_INTERVAL) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail])
    return float(center[0]), float(low), float(high)


def metric_conventions() -> dict:
    return {
        "bleu": {"max_order": BLEU_ORDER, "smoothing": "none"},
        "rouge_l": {"beta": ROUGE_BETA},
        "f1": {"zero_division": 0},
        "dice": {"both_empty": "excluded"},
        "cl_dice": {"empty_skeleton": "excluded", "skeleton": "zhang-suen"},
        "bootstrap": {"samples": BOOTSTRAP_SAMPLES, "statistic": BOOTSTRAP_STATISTIC.__name__,
                      "interval": BOOTSTRAP_INTERVAL},
    }
