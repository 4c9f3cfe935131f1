"""Acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s`` or ``-rA``)
and enforces the stated runtime budget. The heavy mechanism-signal runs are
shared between criteria 4 and 8 through a module-scoped fixture.
"""

import hashlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from segprompt.encoder import FeatureGrid, VitConfig
from segprompt.extractor import (
    ExtractorConfig,
    SegTokenExtractor,
    mask_token,
    spatial_token,
)
from segprompt.masks import StructureId
from segprompt.metrics import (
    bleu,
    bootstrap_ci,
    cl_dice,
    dice,
    macro_micro_f1,
    rouge_l,
)
from segprompt.mllm import (
    ModelConfig,
    ReportModel,
    TrainConfig,
    adapt,
    make_adapter,
    train,
)
from segprompt.nn import Tensor, no_grad
from segprompt.prompting import Strategy, StudyInput, build_prompt, prompt_dumps
from segprompt.som import MarkStyle, overlay_footprint, render_overlay
from segprompt.synth import (
    SynthSpec,
    findings_to_labels,
    make_study,
    split_of,
    vocabulary,
)

from helpers import finite_diff_grad, grad_rel_error

GOLDEN_PROMPT = Path(__file__).parent / "data" / "golden_prompt.json"


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}", flush=True)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} overran: {elapsed:.1f}s"
    print(f"[acceptance] criterion {number}: PASS - {description} "
          f"({elapsed:.1f}s)", flush=True)


def tiny_model_config(seed: int = 0) -> ModelConfig:
    return ModelConfig(
        encoder=VitConfig(image_size=32, patch_size=16, depth=2, dim=12, heads=2,
                          tap_layers=(1, 2)),
        extractor=ExtractorConfig(spatial_side=8, mlp_depth=2),
        lm_dim=12, lm_depth=1, lm_heads=2, max_seq_len=192, seed=seed)


def param_checksum(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


# -- criterion 1: gradient suite --------------------------------------------------


def _check_param_grads(loss_fn, params: dict, tol: float, label: str,
                       sample: int | None = None, rng=None):
    loss = loss_fn()
    loss.backward()
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        def f(t, p=p):
            old = p.data
            p.data = t.data.reshape(old.shape)
            try:
                return float(loss_fn().data)
            finally:
                p.data = old
        if sample is None or p.data.size <= sample:
            numeric = finite_diff_grad(f, Tensor(p.data))
            err = grad_rel_error(analytic, numeric)
        else:
            flat_idx = rng.choice(p.data.size, size=sample, replace=False)
            base = p.data.copy()
            numeric = np.zeros(sample)
            for j, idx in enumerate(flat_idx):
                eps = 1e-6
                flat = base.reshape(-1)
                orig = flat[idx]
                flat[idx] = orig + eps
                p.data = base
                hi = float(loss_fn().data)
                flat[idx] = orig - eps
                lo = float(loss_fn().data)
                flat[idx] = orig
                p.data = base
                numeric[j] = (hi - lo) / (2 * eps)
            err = grad_rel_error(analytic.reshape(-1)[flat_idx], numeric)
        assert err < tol, f"{label}/{name}: rel err {err:.2e} >= {tol}"
    for p in params.values():
        p.grad = None


def test_criterion_1_gradient_suite():
    with criterion(1, "analytic gradients match finite differences", 120):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            # extractor: mask token and spatial token, all coordinates
            ext = SegTokenExtractor(
                ExtractorConfig(spatial_side=4, mlp_depth=2), 3, (1, 2), seed=seed)
            feats = {k: FeatureGrid(2, 2, Tensor(rng.standard_normal((4, 3))))
                     for k in (1, 2)}
            gm = np.array([[True, False], [True, True]])
            w = rng.standard_normal(3)
            mask_params = {n: p for n, p in ext.named_params().items()
                           if "spatial" not in n}
            _check_param_grads(lambda: (mask_token(feats, gm, ext) * w).sum(),
                               mask_params, 1e-4, "mask_token")
            m = np.zeros((8, 8), dtype=bool)
            m[1:5, 2:5] = True
            spatial_params = {n: p for n, p in ext.named_params().items()
                              if "spatial" in n}
            _check_param_grads(lambda: (spatial_token(m, ext) * w).sum(),
                               spatial_params, 1e-4, "spatial_token")

            # adapter, all coordinates
            adapter = make_adapter(4, 5, rng)
            fg = FeatureGrid(2, 2, Tensor(rng.standard_normal((4, 4))))
            wa = rng.standard_normal((4, 5))
            _check_param_grads(lambda: (adapt(fg, adapter) * wa).sum(),
                               adapter.named_params("adapter"), 1e-4, "adapter")

            # full stack through the realized prompt, sampled coordinates
            model = ReportModel(tiny_model_config(seed=seed), vocabulary())
            spec = SynthSpec(seed=seed, n_studies=1, image_size=32,
                             lateral_prob=0.0, prior_prob=0.0)
            study = make_study(spec, 0)
            with no_grad():
                [enc] = model.encode_views([study], single_view=True)
            stack_params = {n: p for n, p in model.named_params().items()
                            if not n.startswith("enc.")}
            _check_param_grads(
                lambda: model.study_loss(study, Strategy.SS, single_view=True,
                                         enc_out=enc),
                stack_params, 1e-3, "full_stack", sample=2, rng=rng)


# -- criterion 2: token accounting -------------------------------------------------


def test_criterion_2_token_accounting():
    with criterion(2, "SS realization adds exactly two embeddings per positive mask",
                   30):
        model = ReportModel(tiny_model_config(), vocabulary())
        spec = SynthSpec(seed=21, n_studies=200, image_size=32, lateral_prob=0.3,
                         prior_prob=0.4, heart_area_threshold=50)
        for i in range(spec.n_studies):
            study = make_study(spec, i)
            with no_grad():
                [enc] = model.encode_views([study])
            ns_len = model.realize(study, Strategy.NS, enc_out=enc).shape[0]
            ss_len = model.realize(study, Strategy.SS, enc_out=enc).shape[0]
            positives = sum(int(m.any()) for _, _, ms in study.views()
                            for m in ms.values())
            assert ss_len == ns_len + 2 * positives, study.study_id


# -- criterion 3: prompt golden ----------------------------------------------------


def golden_study() -> StudyInput:
    def blob(r, c):
        m = np.zeros((64, 64), dtype=bool)
        m[r:r + 4, c:c + 4] = True
        return m

    return StudyInput(
        frontal_image=np.zeros((64, 64)),
        frontal_masks={StructureId.LEFT_LUNG: blob(20, 40),
                       StructureId.RIGHT_LUNG: blob(20, 12),
                       StructureId.ETT: blob(4, 30),
                       StructureId.HEART: blob(38, 32)},
        prior_image=np.zeros((64, 64)),
        prior_masks={StructureId.LEFT_LUNG: blob(22, 41),
                     StructureId.RIGHT_LUNG: blob(21, 13),
                     StructureId.HEART: blob(39, 33)},
        indication="Evaluation of line placement.",
        technique="Portable AP view of the chest.",
        comparison="Prior radiograph from the previous day.",
        prior_report="The lungs are clear. The heart size is normal.",
        target_findings="The lungs are clear.")


def test_criterion_3_prompt_golden():
    with criterion(3, "multi-view SS prompt is byte-exact against the golden", 10):
        dump = prompt_dumps(build_prompt(golden_study(), Strategy.SS))
        golden = open(GOLDEN_PROMPT, encoding="utf-8").read()
        assert dump == golden


# -- criteria 4 + 8: mechanism signal and freezing ---------------------------------

MECHANISM_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def mechanism_runs():
    probs = dict(left_lung=1.0, right_lung=1.0, heart=1.0, cvc=0.3, ett=0.3,
                 ngt=0.25, sgc=0.12, chest_tube=0.18, pneumothorax=0.5)
    spec = SynthSpec(seed=77, n_studies=512, lateral_prob=0.0, prior_prob=0.0,
                     structure_probs=probs, ptx_intensity_delta=0.0)
    studies = [make_study(spec, i) for i in range(spec.n_studies)]
    train_set = [s for i, s in enumerate(studies) if split_of(i) == "train"]
    test_set = [s for i, s in enumerate(studies) if split_of(i) == "test"]
    gt = [findings_to_labels(s.target_findings) for s in test_set]

    results = {"micro": {}, "checksums": [], "elapsed": 0.0}
    start = time.monotonic()
    for strategy in (Strategy.NS, Strategy.SS):
        micros = []
        for seed in MECHANISM_SEEDS:
            model = ReportModel(ModelConfig(seed=seed), vocabulary(), dtype="float32")
            enc_params = {n: p for n, p in model.named_params().items()
                          if n.startswith("enc.")}
            before = param_checksum(enc_params)
            tc = TrainConfig(epochs=3, base_lr=2e-3, batch_size=8, seed=seed,
                             strategy=strategy, single_view=True)
            train(model, train_set, tc)
            results["checksums"].append((before, param_checksum(enc_params)))
            reports = model.generate_reports(test_set, strategy, single_view=True,
                                             max_new=40)
            preds = [findings_to_labels(model.tokenizer.detokenize(ids))
                     for ids in reports]
            micros.append(macro_micro_f1(preds, gt)[1])
        results["micro"][strategy.value] = micros
    results["elapsed"] = time.monotonic() - start
    return results


def test_criterion_4_mechanism_signal(mechanism_runs):
    with criterion(4, "median mask-relevant micro-F1: SS strictly above NS", 1800):
        ns = float(np.median(mechanism_runs["micro"]["NS"]))
        ss = float(np.median(mechanism_runs["micro"]["SS"]))
        assert mechanism_runs["elapsed"] < 1800
        assert ss > ns, f"SS {ss:.4f} vs NS {ns:.4f}"


def test_criterion_8_encoder_frozen(mechanism_runs):
    with criterion(8, "encoder parameter checksum constant across training", 10):
        assert mechanism_runs["checksums"], "no training runs recorded"
        for before, after in mechanism_runs["checksums"]:
            assert before == after


# -- criterion 5: memorization -----------------------------------------------------


def test_criterion_5_memorization():
    with criterion(5, "8-study SS memorization: loss < 0.05, >=6/8 exact decodes",
                   300):
        spec = SynthSpec(seed=11, n_studies=8, lateral_prob=0.0, prior_prob=0.0)
        studies = [make_study(spec, i) for i in range(8)]
        model = ReportModel(ModelConfig(seed=0), vocabulary(), dtype="float32")
        tc = TrainConfig(epochs=1, base_lr=3e-3, batch_size=8, max_steps=500,
                         weight_decay=0.0, seed=0, strategy=Strategy.SS,
                         single_view=True)
        result = train(model, studies, tc)
        assert tc.max_steps <= 2000
        assert result.final_loss < 0.05, result.final_loss
        reports = model.generate_reports(studies, Strategy.SS, single_view=True,
                                         max_new=60)
        exact = sum(ids == model.tokenizer.encode(s.target_findings)
                    for s, ids in zip(studies, reports))
        assert exact >= 6, f"only {exact}/8 reproduced exactly"


# -- criterion 6: set-of-marks render suite ----------------------------------------


def test_criterion_6_som_render_suite():
    with criterion(6, "overlay diff equals contour+glyph footprint; sanity modes",
                   60):
        spec = SynthSpec(seed=31, n_studies=100, image_size=64, lateral_prob=0.0,
                         prior_prob=0.0)
        style = MarkStyle()
        for i in range(spec.n_studies):
            study = make_study(spec, i)
            overlay = render_overlay(study.frontal_image, study.frontal_masks, style)
            footprint = overlay_footprint(study.frontal_masks, style,
                                          study.frontal_image.shape)
            assert np.array_equal(overlay.image != study.frontal_image, footprint)
            assert len(overlay.legend) == sum(m.any()
                                              for m in study.frontal_masks.values())

        empty = SynthSpec(seed=32, n_studies=3, image_size=64,
                          structure_probs={s.value: 0.0 for s in StructureId},
                          lateral_prob=0.0, prior_prob=0.0)
        for i in range(empty.n_studies):
            study = make_study(empty, i)
            overlay = render_overlay(study.frontal_image, study.frontal_masks, style)
            assert np.array_equal(overlay.image, study.frontal_image)

        uniform = MarkStyle(policy="uniform", uniform_value=128)
        study = make_study(spec, 0)
        overlay = render_overlay(study.frontal_image, study.frontal_masks, uniform)
        assert {value for _, _, value in overlay.legend} == {128}


# -- criterion 7: metrics oracles --------------------------------------------------


def all_3x3_masks():
    masks = []
    for bits in range(512):
        masks.append(np.array([(bits >> k) & 1 for k in range(9)],
                              dtype=bool).reshape(3, 3))
    return masks


def test_criterion_7_metrics_oracles():
    with criterion(7, "dice/F1 exhaustive brute force, clDice identity, "
                      "lexical identities, degenerate bootstrap", 120):
        # dice vs brute force over all 3x3 mask pairs (popcount oracle)
        masks = all_3x3_masks()
        flat = np.array([m.reshape(-1) for m in masks])
        pop = flat.sum(axis=1)
        inter = flat.astype(np.int32) @ flat.T.astype(np.int32)
        for a in range(512):
            masks_a = masks[a]
            for b in range(512):
                got = dice(masks_a, masks[b])
                denom = pop[a] + pop[b]
                if denom == 0:
                    assert got is None
                else:
                    assert got == 2 * inter[a, b] / denom

        # macro/micro F1 vs brute force on all 2-finding 4-sample tables
        tables = [np.array([(bits >> k) & 1 for k in range(8)],
                           dtype=bool).reshape(4, 2) for bits in range(256)]
        for p in tables:
            p_list = list(p)
            for g in tables:
                macro, micro = macro_micro_f1(p_list, list(g))
                f1s = []
                tp_all = fp_all = fn_all = 0
                for j in range(2):
                    tp = int((p[:, j] & g[:, j]).sum())
                    fp = int((p[:, j] & ~g[:, j]).sum())
                    fn = int((~p[:, j] & g[:, j]).sum())
                    tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
                    f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
                assert macro == pytest.approx(sum(f1s) / 2)
                pooled = 2 * tp_all / (2 * tp_all + fp_all + fn_all) \
                    if 2 * tp_all + fp_all + fn_all else 0.0
                assert micro == pytest.approx(pooled)

        # clDice(m, m) = 1 on random tubular masks
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = np.zeros((24, 24), dtype=bool)
            r = int(rng.integers(3, 21))
            c0, c1 = sorted(rng.integers(1, 23, size=2))
            m[r, c0:c1 + 1] = True
            m[r, (c0 + c1) // 2] = True
            cc = int(rng.integers(2, 22))
            m[min(r + 1, 23):min(r + int(rng.integers(2, 6)), 24), cc] = True
            assert cl_dice(m, m) == 1.0

        # lexical identities and degenerate bootstrap
        tokens = "the lungs are clear today".split()
        assert bleu(tokens, tokens) == pytest.approx(100.0)
        assert bleu("a b c d".split(), "w x y z".split()) == 0.0
        assert rouge_l(tokens, tokens) == pytest.approx(100.0)
        assert rouge_l("a b".split(), "c d".split()) == 0.0
        assert bootstrap_ci([0.42] * 10, seed=0) == (0.42, 0.42, 0.42)
