"""Metric oracles: hand-counted masks and label tables, lexical identities,
and a frozen bootstrap run."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprompt.errors import ContractError
from segprompt.metrics import (
    BOOTSTRAP_INTERVAL,
    BOOTSTRAP_SAMPLES,
    _lcs_len,
    bleu,
    bootstrap_ci,
    bootstrap_ci_fn,
    cl_dice,
    corpus_bleu,
    dice,
    macro_micro_f1,
    metric_conventions,
    rouge_l,
    skeletonize,
)


def box(shape, r0, c0, h, w):
    m = np.zeros(shape, dtype=bool)
    m[r0:r0 + h, c0:c0 + w] = True
    return m


def aggregate_positive(scores):
    """Mean over defined scores only; None when every score is undefined."""
    defined = [s for s in scores if s is not None]
    return float(np.mean(defined)) if defined else None


class TestDice:
    def test_identical_nonempty(self):
        m = box((5, 5), 1, 1, 3, 3)
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        assert dice(box((6, 6), 0, 0, 2, 2), box((6, 6), 3, 3, 2, 2)) == 0.0

    def test_shifted_block_overlap(self):
        p = box((5, 5), 1, 0, 3, 3)
        g = box((5, 5), 1, 1, 3, 3)
        assert dice(p, g) == pytest.approx(12 / 18)

    def test_both_empty_undefined(self):
        z = np.zeros((4, 4), dtype=bool)
        assert dice(z, z) is None

    def test_extent_mismatch(self):
        with pytest.raises(ContractError):
            dice(np.zeros((3, 3), dtype=bool), np.zeros((4, 4), dtype=bool))

    def test_symmetric_and_identity_only_at_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.random((6, 6)) < 0.4
            g = rng.random((6, 6)) < 0.4
            if not (p.any() or g.any()):
                continue
            assert dice(p, g) == dice(g, p)
            if dice(p, g) == 1.0:
                assert np.array_equal(p, g)

    def test_positives_only_aggregation(self):
        z = np.zeros((3, 3), dtype=bool)
        m = box((3, 3), 0, 0, 2, 2)
        scores = [dice(z, z), dice(m, m), dice(z, m)]
        assert scores[0] is None
        assert aggregate_positive(scores) == pytest.approx(0.5)
        assert aggregate_positive([None, None]) is None


class TestSkeletonize:
    def test_single_pixel_fixed_point(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        assert np.array_equal(skeletonize(m), m)

    def test_thin_line_fixed_point(self):
        m = np.zeros((5, 9), dtype=bool)
        m[2, 1:8] = True
        assert np.array_equal(skeletonize(m), m)

    def test_solid_bar_golden_centerline(self):
        bar = box((7, 13), 2, 2, 3, 9)
        expected = np.zeros((7, 13), dtype=bool)
        expected[3, 3:9] = True  # frozen from a reference thinning run
        assert np.array_equal(skeletonize(bar), expected)

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.random((12, 12)) < 0.45
            sk = skeletonize(m)
            assert not (sk & ~m).any()
            assert np.array_equal(skeletonize(sk), sk)

    def test_preserves_component_count(self):
        from test_masks import connected_components
        m = np.zeros((9, 9), dtype=bool)
        m[1:4, 1:4] = True
        m[6:8, 5:9] = True
        assert len(connected_components(skeletonize(m))) == \
            len(connected_components(m))


class TestClDice:
    def test_identical_thin_line(self):
        m = np.zeros((5, 9), dtype=bool)
        m[2, 1:8] = True
        assert cl_dice(m, m) == 1.0

    def test_disjoint_lines(self):
        a = np.zeros((6, 9), dtype=bool)
        a[1, 1:8] = True
        b = np.zeros((6, 9), dtype=bool)
        b[4, 1:8] = True
        assert cl_dice(a, b) == 0.0

    def test_centerline_prediction_formula(self):
        gt = box((7, 13), 2, 2, 3, 9)
        pred = np.zeros((7, 13), dtype=bool)
        pred[3, 2:11] = True
        skel_pred = skeletonize(pred)
        assert not (skel_pred & ~gt).any()  # Tprec == 1 by inclusion
        skel_gt = skeletonize(gt)
        tsens = (skel_gt & pred).sum() / skel_gt.sum()
        assert cl_dice(pred, gt) == pytest.approx(2 * tsens / (1 + tsens))

    def test_empty_skeleton_undefined(self):
        z = np.zeros((4, 4), dtype=bool)
        m = box((4, 4), 0, 0, 2, 2)
        assert cl_dice(z, m) is None
        assert cl_dice(m, z) is None

    def test_self_is_one_on_random_tubes(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = np.zeros((16, 16), dtype=bool)
            r = int(rng.integers(2, 13))
            m[r, 2:14] = True
            m[r:r + int(rng.integers(1, 3)), int(rng.integers(2, 12))] = True
            assert cl_dice(m, m) == 1.0


class TestF1:
    def test_perfect(self):
        labels = [np.array([1, 0, 1], dtype=bool), np.array([0, 1, 1], dtype=bool)]
        assert macro_micro_f1(labels, labels) == (1.0, 1.0)

    def test_all_zero_predictions(self):
        gts = [np.array([1, 0], dtype=bool), np.array([1, 1], dtype=bool)]
        preds = [np.zeros(2, dtype=bool)] * 2
        assert macro_micro_f1(preds, gts) == (0.0, 0.0)

    def test_hand_counted_table(self):
        # finding A: perfect on both samples; finding B: one FP
        preds = [np.array([1, 1], dtype=bool), np.array([1, 0], dtype=bool)]
        gts = [np.array([1, 0], dtype=bool), np.array([1, 0], dtype=bool)]
        macro, micro = macro_micro_f1(preds, gts)
        # A: tp=2 fp=0 fn=0 -> 1.0; B: tp=0 fp=1 fn=0 -> 0.0
        assert macro == pytest.approx(0.5)
        # pooled: tp=2 fp=1 fn=0 -> 4/5
        assert micro == pytest.approx(0.8)

    def test_micro_equals_pooled_confusion(self):
        rng = np.random.default_rng(3)
        preds = [rng.random(4) < 0.5 for _ in range(8)]
        gts = [rng.random(4) < 0.5 for _ in range(8)]
        _, micro = macro_micro_f1(preds, gts)
        p = np.array(preds)
        g = np.array(gts)
        tp = (p & g).sum()
        fp = (p & ~g).sum()
        fn = (~p & g).sum()
        assert micro == pytest.approx(2 * tp / (2 * tp + fp + fn))

    def test_mismatched_tables(self):
        with pytest.raises(ContractError):
            macro_micro_f1([np.zeros(3, dtype=bool)], [np.zeros(2, dtype=bool)])


class TestBleu:
    def test_identical_long_enough(self):
        tokens = "the lungs are clear and normal".split()
        assert bleu(tokens, tokens) == pytest.approx(100.0)

    def test_no_overlap(self):
        assert bleu("a b c d".split(), "x y z w".split()) == 0.0

    def test_brevity_penalty_hand_case(self):
        got = bleu("a b c d".split(), "a b c d e".split())
        assert got == pytest.approx(100.0 * np.exp(1 - 5 / 4), rel=1e-6)
        assert got == pytest.approx(77.880, abs=0.01)

    def test_empty_candidate(self):
        assert bleu([], "a b".split()) == 0.0

    def test_zero_precision_without_smoothing(self):
        # bigram precision is zero -> the BLEU-4 score is zero
        assert bleu("a c b d".split(), "a b c d".split()) == 0.0

    def test_removing_overlap_never_increases(self):
        ref = "a b c d e f".split()
        full = bleu("a b c d e f".split(), ref)
        partial = bleu("a b c x y z".split(), ref)
        none = bleu("u v w x y z".split(), ref)
        assert full >= partial >= none

    def test_corpus_pooling(self):
        cands = ["a b c d".split(), "e f g h".split()]
        refs = [c[:] for c in cands]
        assert corpus_bleu(cands, refs) == pytest.approx(100.0)


class TestRougeL:
    def test_identical(self):
        tokens = "the heart is enlarged".split()
        assert rouge_l(tokens, tokens) == pytest.approx(100.0)

    def test_disjoint(self):
        assert rouge_l("a b".split(), "c d".split()) == 0.0

    def test_hand_lcs_case(self):
        # candidate "a c", reference "a b c": lcs 2, P=1, R=2/3, beta=1.2
        got = rouge_l("a c".split(), "a b c".split())
        b2 = 1.2 * 1.2
        expected = 100 * (1 + b2) * 1.0 * (2 / 3) / ((2 / 3) + b2 * 1.0)
        assert got == pytest.approx(expected)

    def test_empty_inputs(self):
        assert rouge_l([], []) == 0.0
        assert rouge_l([], "a".split()) == 0.0


def dp_lcs_len(a, b) -> int:
    """The O(len(a) * len(b)) dynamic program: the oracle for ``_lcs_len``."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


# few distinct words, so lists repeat tokens and share long subsequences
token_lists = st.lists(st.sampled_from(["a", "b", "c", "the", "."]), max_size=90)


class TestLcsLen:
    @given(token_lists, token_lists)
    def test_matches_dynamic_program(self, a, b):
        assert _lcs_len(a, b) == dp_lcs_len(a, b)

    @pytest.mark.parametrize("a,b,want", [
        ([], [], 0), ([], ["a"], 0), (["a"], [], 0), (["a", "a", "a"], ["a"], 1),
        ("a b c b d a b".split(), "b d c a b a".split(), 4)])
    def test_hand_cases(self, a, b, want):
        assert _lcs_len(a, b) == _lcs_len(b, a) == dp_lcs_len(a, b) == want


class TestBootstrap:
    def test_constant_scores_degenerate(self):
        center, low, high = bootstrap_ci([0.7] * 20, seed=1)
        assert center == low == high == 0.7

    def test_single_score(self):
        assert bootstrap_ci([0.3], seed=2) == (0.3, 0.3, 0.3)

    def test_frozen_reference_run(self):
        scores = [0.0] * 50 + [1.0] * 50
        assert bootstrap_ci(scores, seed=0) == (0.5, 0.0, 1.0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        scores = rng.random(30).tolist()
        a = bootstrap_ci(scores, seed=9)
        b = bootstrap_ci(scores, seed=9)
        assert a == b

    def test_generic_statistic(self):
        items = np.arange(10, dtype=float).reshape(10, 1)
        center, low, high = bootstrap_ci_fn(
            items, lambda rows: rows.mean(axis=(1, 2)), seed=0)
        assert center == pytest.approx(4.5)
        assert low <= center <= high

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            bootstrap_ci([])
        with pytest.raises(ContractError):
            bootstrap_ci_fn(np.zeros((0, 2)), lambda rows: rows.mean(axis=(1, 2)))


def _bootstrap_loop(items, statistic_fn, seed):
    """The per-resample loop bootstrap_ci_fn replaced, with a statistic of one
    resample: the oracle for its (center, low, high)."""
    n = len(items)
    rng = np.random.default_rng(seed)
    stats = np.empty(BOOTSTRAP_SAMPLES)
    for k in range(BOOTSTRAP_SAMPLES):
        idx = rng.integers(0, n, size=n)
        stats[k] = statistic_fn(items[idx])
    center = statistic_fn(items)
    tail = (100.0 - BOOTSTRAP_INTERVAL) / 2.0
    low, high = np.percentile(stats, [tail, 100.0 - tail])
    return float(center), float(low), float(high)


def _f1_loop(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def _macro_micro_f1_loop(p, g):
    """Per-finding Python-int F1 of one (n, findings) table, as before
    macro_micro_f1 took a batch axis."""
    tp = (p & g).sum(axis=0)
    fp = (p & ~g).sum(axis=0)
    fn = (~p & g).sum(axis=0)
    macro = float(np.mean([_f1_loop(*counts) for counts in zip(tp, fp, fn)]))
    micro = _f1_loop(int(tp.sum()), int(fp.sum()), int(fn.sum()))
    return macro, micro


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def score_lists(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "levels", "equal"]))
    if kind == "uniform":
        return rng.random(n) * 100.0
    if kind == "levels":  # many ties, as BLEU and F1 scores have
        return rng.integers(0, 4, size=n) / 3.0
    return np.full(n, draw(st.sampled_from([0.0, 0.42, 37.5])))


@st.composite
def label_tables(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "zeros", "ones", "pred_zeros", "gt_ones"]))
    pred = rng.random((n, 5)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    gt = rng.random((n, 5)) < 0.4
    if kind == "zeros":
        pred[:] = gt[:] = False
    elif kind == "ones":
        pred[:] = gt[:] = True
    elif kind == "pred_zeros":
        pred[:] = False
    elif kind == "gt_ones":
        gt[:] = True
    return np.stack([pred, gt], axis=1)


class TestBootstrapOracle:
    """The one-matrix bootstrap gives the per-resample loop's bits."""

    @settings(max_examples=200, deadline=None)
    @given(score_lists(), st.integers(0, 2 ** 32 - 1))
    def test_scores_match_loop(self, scores, seed):
        want = _bootstrap_loop(scores, lambda r: float(np.median(r)), seed)
        assert _bits(bootstrap_ci(scores.tolist(), seed=seed)) == _bits(want)

    @settings(max_examples=200, deadline=None)
    @given(label_tables(), st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1]))
    def test_f1_tables_match_loop(self, pairs, seed, which):
        got = bootstrap_ci_fn(
            pairs, lambda rows: macro_micro_f1(rows[..., 0, :], rows[..., 1, :])[which],
            seed=seed)
        want = _bootstrap_loop(
            pairs, lambda rows: _macro_micro_f1_loop(rows[:, 0], rows[:, 1])[which], seed)
        assert _bits(got) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(label_tables(), st.integers(1, 40))
    def test_batched_f1_matches_each_table(self, pairs, batch):
        stack = np.stack([np.roll(pairs, k, axis=0) for k in range(batch)])
        macro, micro = macro_micro_f1(stack[:, :, 0], stack[:, :, 1])
        assert macro.shape == micro.shape == (batch,)
        for k in range(batch):
            want = _macro_micro_f1_loop(stack[k, :, 0], stack[k, :, 1])
            assert _bits((macro[k], micro[k])) == _bits(want)
            got = macro_micro_f1(stack[k, :, 0], stack[k, :, 1])
            assert type(got[0]) is float and _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [1, 5, 7, 40, 300])
    def test_index_matrix_draws_the_loop_indexes(self, n):
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, n, size=(500, n))
        rng = np.random.default_rng(11)
        rows = np.stack([rng.integers(0, n, size=n) for _ in range(500)])
        assert np.array_equal(matrix, rows)

    def test_statistic_must_keep_resample_axis(self):
        with pytest.raises(ContractError, match="one value per resample"):
            bootstrap_ci_fn(np.arange(4.0), lambda rows: float(rows.mean()))


def test_conventions_surface_choices():
    conv = metric_conventions()
    assert conv["bleu"]["smoothing"] == "none"
    assert conv["rouge_l"]["beta"] == 1.2
    assert conv["bleu"]["max_order"] == 4
    assert conv["bootstrap"] == {"samples": 500, "statistic": "median", "interval": 95.0}
    assert conv["f1"]["zero_division"] == 0
