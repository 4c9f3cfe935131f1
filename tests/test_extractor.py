"""Segmentation token extraction: pooling, fusion, spatial branch, gating,
ordering, and gradient checks against finite differences plus an independent
straight-line oracle. The vectorized mask resample is checked bit for bit
against the Python double loop it replaced, and the one-pass-per-view stacked
extraction against the per-structure composition it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprompt.errors import ContractError
from segprompt.encoder import FeatureGrid, VitConfig
from segprompt.extractor import (
    ExtractorConfig,
    SegTokenExtractor,
    SegTokenPair,
    extract_tokens,
    mask_pool,
    mask_token,
    resample_mask,
    spatial_token,
)
from segprompt.masks import StructureId, positive_structures, to_grid
from segprompt import mllm
from segprompt.mllm import ModelConfig, ReportModel
from segprompt.nn import Tensor, finite_diff_grad, grad_rel_error
from segprompt.prompting import Strategy
from segprompt.synth import SynthSpec, make_study, vocabulary


def grid(features: np.ndarray, side: int) -> FeatureGrid:
    return FeatureGrid(side, side, Tensor(np.asarray(features, dtype=float)))


def tiny_extractor(dim=4, taps=(1, 2), side=4, seed=0):
    cfg = ExtractorConfig(dim=dim, tap_layers=taps, spatial_side=side, mlp_depth=2)
    return SegTokenExtractor(cfg, seed=seed)


def identity_extractor(dim, taps):
    """Every tap projection and the fusion are identities: with ``mlp_depth=1``
    the fusion is one linear layer and no GELU."""
    ext = SegTokenExtractor(ExtractorConfig(dim=dim, tap_layers=taps, spatial_side=4,
                                            mlp_depth=1))
    for layer in [*ext.tap_linears.values(), *ext.fusion.layers]:
        layer.weight.data[:] = np.eye(dim)
        layer.bias.data[:] = 0.0
    return ext


class TestMaskPool:
    def test_single_cell_is_that_vector(self):
        fg = grid(np.arange(8).reshape(4, 2), 2)
        gm = np.array([[False, True], [False, False]])
        assert np.array_equal(mask_pool(fg, gm).data, [2.0, 3.0])

    def test_all_cells_global_mean(self):
        fg = grid(np.arange(8).reshape(4, 2), 2)
        gm = np.ones((2, 2), dtype=bool)
        assert np.array_equal(mask_pool(fg, gm).data, [3.0, 4.0])

    def test_two_cells_brute_force_mean(self):
        fg = grid([[1.0], [2.0], [3.0], [4.0]], 2)
        gm = np.array([[False, True], [True, False]])  # cells 1 and 2, row-major
        assert mask_pool(fg, gm).data[0] == pytest.approx((2.0 + 3.0) / 2)

    def test_empty_grid_mask_rejected(self):
        fg = grid(np.zeros((4, 1)), 2)
        with pytest.raises(ContractError):
            mask_pool(fg, np.zeros((2, 2), dtype=bool))

    def test_extent_mismatch(self):
        fg = grid(np.zeros((4, 1)), 2)
        with pytest.raises(ContractError):
            mask_pool(fg, np.ones((3, 3), dtype=bool))

    def test_permutation_invariance_and_linearity(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((9, 5))
        gm = rng.random((3, 3)) < 0.5
        gm[0, 0] = True
        base = mask_pool(grid(feats, 3), gm).data
        # permuting the set cells (by permuting matching rows) leaves the mean
        idx = np.nonzero(gm.reshape(-1))[0]
        perm = feats.copy()
        perm[idx] = perm[idx[::-1]]
        assert np.allclose(mask_pool(grid(perm, 3), gm).data, base)
        # pooling is linear in the features
        assert np.allclose(mask_pool(grid(3.0 * feats, 3), gm).data, 3.0 * base)


class TestMaskToken:
    def test_degenerate_identity_single_tap(self):
        ext = identity_extractor(3, taps=(1,))
        feats = {1: grid(np.arange(12).reshape(4, 3), 2)}
        gm = np.array([[True, False], [False, False]])
        assert np.allclose(mask_token(feats, gm, ext).data, [0.0, 1.0, 2.0])

    def test_two_taps_addition_semantics(self):
        ext = identity_extractor(3, taps=(1, 2))
        f = np.tile(np.array([1.0, -2.0, 0.5]), (4, 1))
        feats = {1: grid(f, 2), 2: grid(f, 2)}
        gm = np.ones((2, 2), dtype=bool)
        assert np.allclose(mask_token(feats, gm, ext).data, 2 * f[0])

    def test_matches_independent_straight_line_oracle(self):
        ext = tiny_extractor(dim=4, taps=(1, 2), seed=3)
        rng = np.random.default_rng(12)
        feats = {k: grid(rng.standard_normal((4, 4)), 2) for k in (1, 2)}
        gm = np.array([[True, False], [True, True]])
        got = mask_token(feats, gm, ext).data

        # independent recomputation with plain numpy: pool, project, sum, MLP
        def np_gelu(x):
            c = np.sqrt(2.0 / np.pi)
            return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

        fused = np.zeros(4)
        sel = gm.reshape(-1)
        for k in (1, 2):
            pooled = feats[k].features.data[sel].mean(axis=0)
            layer = ext.tap_linears[k]
            fused += layer.weight.data @ pooled + layer.bias.data
        h = fused
        for i, layer in enumerate(ext.fusion.layers):
            if i > 0:
                h = np_gelu(h)
            h = layer.weight.data @ h + layer.bias.data
        assert np.allclose(got, h, atol=1e-12)

    def test_missing_tap_rejected(self):
        ext = tiny_extractor(dim=4, taps=(1, 2))
        feats = {1: grid(np.zeros((4, 4)), 2)}
        with pytest.raises(ContractError):
            mask_token(feats, np.ones((2, 2), dtype=bool), ext)


class TestSpatialToken:
    def test_one_hot_pickout(self):
        ext = tiny_extractor(dim=3, side=4)
        m = np.zeros((4, 4), dtype=bool)
        m[1, 2] = True
        flat_index = 1 * 4 + 2
        ext.spatial.weight.data[:] = 0.0
        ext.spatial.bias.data[:] = 0.0
        ext.spatial.weight.data[0, flat_index] = 1.0
        assert np.array_equal(spatial_token(m, ext).data, [1.0, 0.0, 0.0])

    def test_translation_changes_token(self):
        ext = tiny_extractor(dim=4, side=4, seed=9)
        a = np.zeros((8, 8), dtype=bool)
        a[2:4, 2:4] = True
        b = np.roll(a, 2, axis=1)
        assert not np.allclose(spatial_token(a, ext).data, spatial_token(b, ext).data)

    def test_full_mask_all_ones_row(self):
        ext = tiny_extractor(dim=2, side=4)
        ext.spatial.weight.data[:] = 1.0
        ext.spatial.bias.data[:] = 0.0
        token = spatial_token(np.ones((8, 8), dtype=bool), ext)
        assert np.array_equal(token.data, [16.0, 16.0])

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            spatial_token(np.zeros((4, 4), dtype=bool), tiny_extractor())

    def test_resample_any_foreground_rule(self):
        m = np.zeros((8, 8), dtype=bool)
        m[0, 0] = True
        small = resample_mask(m, 4)
        assert small.sum() == 1 and small[0, 0]
        # upsampling keeps the footprint
        up = resample_mask(m, 16)
        assert up.sum() >= 1 and up[:2, :2].any()


def _resample_mask_loop(m, side):
    """Reference resample: one Python loop iteration per output cell."""
    h, w = m.shape
    out = np.zeros((side, side), dtype=bool)
    row_edges = [(i * h) // side for i in range(side + 1)]
    col_edges = [(j * w) // side for j in range(side + 1)]
    for i in range(side):
        r0, r1 = row_edges[i], max(row_edges[i + 1], row_edges[i] + 1)
        for j in range(side):
            c0, c1 = col_edges[j], max(col_edges[j + 1], col_edges[j] + 1)
            out[i, j] = m[r0:r1, c0:c1].any()
    return out


def _assert_matches_loop(m, side):
    got = resample_mask(m, side)
    want = _resample_mask_loop(m, side)
    assert got.shape == (side, side) and got.dtype == np.bool_
    assert np.array_equal(got, want), (m.shape, side)


@st.composite
def masks_and_sides(draw, max_extent=70, max_side=48):
    h = draw(st.integers(1, max_extent))
    w = draw(st.integers(1, max_extent))
    side = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from([0.0, 0.005, 0.05, 0.5, 1.0]))
    return np.random.default_rng(seed).random((h, w)) < density, side


class TestResampleMaskOracle:
    @settings(max_examples=300, deadline=None)
    @given(masks_and_sides())
    def test_matches_loop(self, case):
        _assert_matches_loop(*case)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 30),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_loop_both_axes_smaller(self, h, w, extra, seed):
        m = np.random.default_rng(seed).random((h, w)) < 0.1
        _assert_matches_loop(m, max(h, w) + extra)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_matches_loop_one_axis_smaller(self, small, extra, seed, tall):
        side = small + 1
        shape = (side + extra, small) if tall else (small, side + extra)
        m = np.random.default_rng(seed).random(shape) < 0.1
        _assert_matches_loop(m, side)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_matches_loop_side_one(self, h, w, seed):
        m = np.random.default_rng(seed).random((h, w)) < 0.02
        _assert_matches_loop(m, 1)
        assert resample_mask(m, 1)[0, 0] == m.any()

    @pytest.mark.parametrize("density", [0.0, 0.002, 0.02, 0.3])
    def test_traffic_shape_64_to_32(self, density):
        m = np.random.default_rng(7).random((64, 64)) < density
        _assert_matches_loop(m, 32)

    @pytest.mark.parametrize("extent", [1, 5, 32])
    def test_side_equal_to_extent_is_identity(self, extent):
        m = np.random.default_rng(extent).random((extent, extent)) < 0.3
        _assert_matches_loop(m, extent)
        assert np.array_equal(resample_mask(m, extent), m)

    @pytest.mark.parametrize("shape,side", [((0, 4), 4), ((4, 0), 4), ((4, 4), 0),
                                            ((4, 4), -2)])
    def test_degenerate_input_rejected(self, shape, side):
        with pytest.raises(ContractError, match=rf"\({shape[0]}, {shape[1]}\).*side {side}"):
            resample_mask(np.zeros(shape, dtype=bool), side)


class TestExtractTokens:
    def _mask_set(self, positives):
        ms = {}
        for i, s in enumerate(positives):
            m = np.zeros((8, 8), dtype=bool)
            m[2 * (i % 4), 2 * (i % 4)] = True
            ms[s] = m
        return ms

    def test_no_positive_masks(self):
        ext = tiny_extractor()
        feats = {k: grid(np.zeros((16, 4)), 4) for k in (1, 2)}
        empty = {StructureId.HEART: np.zeros((8, 8), dtype=bool)}
        assert extract_tokens(feats, empty, 2, ext) == []

    def test_two_tokens_per_positive(self):
        ext = tiny_extractor()
        rng = np.random.default_rng(1)
        feats = {k: grid(rng.standard_normal((16, 4)), 4) for k in (1, 2)}
        ms = self._mask_set([StructureId.LEFT_LUNG, StructureId.HEART,
                             StructureId.ETT, StructureId.CVC])
        pairs = extract_tokens(feats, ms, 2, ext)
        assert len(pairs) == 4
        assert all(p.mask_token.shape == (4,) and p.spatial_token.shape == (4,)
                   for p in pairs)

    def test_canonical_order_with_empty_masks(self):
        ext = tiny_extractor()
        rng = np.random.default_rng(2)
        feats = {k: grid(rng.standard_normal((16, 4)), 4) for k in (1, 2)}
        ms = self._mask_set([StructureId.HEART, StructureId.LEFT_LUNG])
        ms[StructureId.CVC] = np.zeros((8, 8), dtype=bool)
        pairs = extract_tokens(feats, ms, 2, ext)
        assert [p.structure for p in pairs] == [StructureId.LEFT_LUNG, StructureId.HEART]


def per_structure_tokens(features, ms, patch, ext):
    """The per-structure composition that the stacked extractor replaced, kept as
    its oracle: features[idx].mean -> tap linear -> sum -> fusion for the mask
    token, resample -> spatial linear for the spatial token."""
    pairs = []
    for s in positive_structures(ms):
        idx = np.nonzero(to_grid(ms[s], patch).reshape(-1))[0]
        fused = None
        for tap in ext.cfg.tap_layers:
            projected = ext.tap_linears[tap](features[tap].features[idx].mean(axis=0))
            fused = projected if fused is None else fused + projected
        flat = resample_mask(ms[s], ext.cfg.spatial_side).reshape(-1).astype(np.float64)
        pairs.append(SegTokenPair(s, ext.fusion(fused), ext.spatial(Tensor(flat))))
    return pairs


def random_view(rng, structures, extent=16):
    """A mask set with random blobs for ``structures``, plus one empty mask."""
    ms = {StructureId.PNEUMOTHORAX: np.zeros((extent, extent), dtype=bool)}
    for s in structures:
        m = rng.random((extent, extent)) < 0.15
        m[rng.integers(extent), rng.integers(extent)] = True
        ms[s] = m
    return ms


VIEW_STRUCTURES = [
    [StructureId.HEART],
    [StructureId.LEFT_LUNG, StructureId.RIGHT_LUNG, StructureId.HEART, StructureId.ETT,
     StructureId.CVC, StructureId.NGT],
]


class TestStackedOracle:
    """Stacked extraction (one pass per view) against per_structure_tokens, in
    float64: tokens within 1e-12, gradients within 1e-10."""

    def _case(self, structures, seed):
        rng = np.random.default_rng(seed)
        ext = tiny_extractor(dim=4, taps=(1, 2), side=8, seed=seed)
        feats = {k: FeatureGrid(4, 4, Tensor(rng.standard_normal((16, 4)), requires_grad=True))
                 for k in (1, 2)}
        return ext, feats, random_view(rng, structures), rng

    def _loss_and_grads(self, fn, ext, feats, ms, weights):
        tensors = {**ext.named_params(), **{f"features{k}": fg.features
                                             for k, fg in feats.items()}}
        for t in tensors.values():
            t.zero_grad()
        pairs = fn(feats, ms, 4, ext)
        loss = None
        for p, (wm, ws) in zip(pairs, weights):
            term = (p.mask_token * wm).sum() + (p.spatial_token * ws).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        return pairs, {name: t.grad for name, t in tensors.items()}

    @pytest.mark.parametrize("structures", VIEW_STRUCTURES, ids=["one", "many"])
    @pytest.mark.parametrize("seed", range(3))
    def test_tokens_and_grads_match_per_structure(self, structures, seed):
        ext, feats, ms, rng = self._case(structures, seed)
        weights = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in structures]
        got, got_grads = self._loss_and_grads(extract_tokens, ext, feats, ms, weights)
        want, want_grads = self._loss_and_grads(per_structure_tokens, ext, feats, ms, weights)
        assert [p.structure for p in got] == [p.structure for p in want]
        for g, w in zip(got, want):
            assert g.mask_token.shape == g.spatial_token.shape == (4,)
            assert np.max(np.abs(g.mask_token.data - w.mask_token.data)) < 1e-12
            assert np.max(np.abs(g.spatial_token.data - w.spatial_token.data)) < 1e-12
        for name, grad in want_grads.items():
            assert grad_rel_error(got_grads[name], grad) < 1e-10, name

    def test_stacked_branches_equal_their_rows(self):
        ext, feats, ms, _ = self._case(VIEW_STRUCTURES[1], 4)
        masks = [ms[s] for s in positive_structures(ms)]
        grids = np.stack([to_grid(m, 4) for m in masks])
        stacked_mask = mask_token(feats, grids, ext).data
        stacked_spatial = spatial_token(np.stack(masks), ext).data
        assert stacked_mask.shape == stacked_spatial.shape == (len(masks), 4)
        for i, m in enumerate(masks):
            assert np.max(np.abs(stacked_mask[i] - mask_token(feats, grids[i], ext).data)) < 1e-12
            assert np.max(np.abs(stacked_spatial[i] - spatial_token(m, ext).data)) < 1e-12

    def test_stack_with_an_empty_mask_rejected(self):
        ext, feats, ms, _ = self._case(VIEW_STRUCTURES[0], 5)
        masks = np.stack([ms[StructureId.HEART], ms[StructureId.PNEUMOTHORAX]])
        with pytest.raises(ContractError):
            spatial_token(masks, ext)
        with pytest.raises(ContractError):
            mask_pool(feats[1], np.stack([to_grid(m, 4) for m in masks]))

    @pytest.mark.parametrize("strategy", [Strategy.SS, Strategy.CS, Strategy.DC])
    def test_realize_with_bridge_matches_per_structure(self, strategy, monkeypatch):
        """The whole realized prompt and every trainable gradient, with a bridge
        because the extractor (12) is narrower than the LM (16)."""
        cfg = ModelConfig(
            encoder=VitConfig(image_size=32, patch_size=8, depth=2, dim=12, heads=2,
                              tap_layers=(1, 2)),
            extractor=ExtractorConfig(dim=12, tap_layers=(1, 2), spatial_side=8),
            lm_dim=16, lm_depth=1, lm_heads=2, max_seq_len=200)
        model = ReportModel(cfg, vocabulary())
        assert model.bridge is not None
        params = {n: p for n, p in model.named_params().items() if not n.startswith("enc")}
        spec = SynthSpec(seed=11, n_studies=2, image_size=32, lateral_prob=1.0,
                         prior_prob=1.0)
        studies = [make_study(spec, i) for i in range(2)]

        def run(extract):
            monkeypatch.setattr(mllm, "extract_tokens", extract)
            out = []
            for study in studies:
                for p in params.values():
                    p.zero_grad()
                emb = model.realize(study, strategy)
                weight = np.random.default_rng(emb.shape[0]).standard_normal(emb.shape)
                (emb * weight).sum().backward()
                out.append((emb.data, {n: p.grad for n, p in params.items()}))
            return out

        got, want = run(extract_tokens), run(per_structure_tokens)
        for (g_emb, g_grads), (w_emb, w_grads) in zip(got, want):
            assert g_emb.shape == w_emb.shape
            assert np.max(np.abs(g_emb - w_emb)) < 1e-12
            for name, grad in w_grads.items():
                if grad is None:
                    assert g_grads[name] is None, name
                else:
                    assert grad_rel_error(g_grads[name], grad) < 1e-10, name


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_mask_token_grads_match_finite_diff(self, seed):
        ext = tiny_extractor(dim=3, taps=(1, 2), seed=seed)
        rng = np.random.default_rng(seed + 100)
        feats = {k: grid(rng.standard_normal((4, 3)), 2) for k in (1, 2)}
        gm = np.array([[True, False], [True, True]])
        w = rng.standard_normal(3)
        (mask_token(feats, gm, ext) * w).sum().backward()
        for name, p in ext.named_params().items():
            if "spatial" in name:
                continue
            def f(t, p=p):
                old = p.data
                p.data = t.data.reshape(old.shape)
                try:
                    return float((mask_token(feats, gm, ext) * w).sum().data)
                finally:
                    p.data = old
            num = finite_diff_grad(f, Tensor(p.data))
            assert grad_rel_error(p.grad, num) < 1e-4, name

    @pytest.mark.parametrize("seed", range(5))
    def test_spatial_token_grads_match_finite_diff(self, seed):
        ext = tiny_extractor(dim=3, side=4, seed=seed)
        m = np.zeros((8, 8), dtype=bool)
        m[1:4, 2:5] = True
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(3)
        (spatial_token(m, ext) * w).sum().backward()
        for name in ("seg.spatial.linear.weight", "seg.spatial.linear.bias"):
            p = ext.named_params()[name]
            def f(t, p=p):
                old = p.data
                p.data = t.data.reshape(old.shape)
                try:
                    return float((spatial_token(m, ext) * w).sum().data)
                finally:
                    p.data = old
            num = finite_diff_grad(f, Tensor(p.data))
            assert grad_rel_error(p.grad, num) < 1e-4, name


class TestSerialization:
    def test_parameter_names(self):
        ext = tiny_extractor(dim=4, taps=(2, 4))
        names = set(ext.named_params())
        assert "seg.tap2.linear.weight" in names
        assert "seg.tap4.linear.bias" in names
        assert "seg.fusion.mlp.0.weight" in names
        assert "seg.fusion.mlp.1.weight" in names
        assert "seg.spatial.linear.weight" in names

    def test_config_validation(self):
        with pytest.raises(ContractError):
            ExtractorConfig(tap_layers=())
        with pytest.raises(ContractError):
            ExtractorConfig(dim=0)
