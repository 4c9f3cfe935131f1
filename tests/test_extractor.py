"""Segmentation token extraction: pooling, fusion, spatial branch, gating,
ordering, and gradient checks against finite differences plus an independent
straight-line oracle. The vectorized mask resample is checked bit for bit
against the Python double loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprompt.errors import ContractError
from segprompt.encoder import FeatureGrid
from segprompt.extractor import (
    ExtractorConfig,
    SegTokenExtractor,
    extract_tokens,
    mask_pool,
    mask_token,
    resample_mask,
    spatial_token,
)
from segprompt.masks import StructureId
from segprompt.nn import Tensor, finite_diff_grad, grad_rel_error


def grid(features: np.ndarray, side: int) -> FeatureGrid:
    return FeatureGrid(side, side, Tensor(np.asarray(features, dtype=float)))


def tiny_extractor(dim=4, taps=(1, 2), side=4, identity=False, seed=0):
    cfg = ExtractorConfig(dim=dim, tap_layers=taps, spatial_side=side, mlp_depth=2)
    return SegTokenExtractor(cfg, seed=seed, identity=identity)


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
        ext = tiny_extractor(dim=3, taps=(1,), identity=True)
        feats = {1: grid(np.arange(12).reshape(4, 3), 2)}
        gm = np.array([[True, False], [False, False]])
        assert np.allclose(mask_token(feats, gm, ext).data, [0.0, 1.0, 2.0])

    def test_two_taps_addition_semantics(self):
        ext = tiny_extractor(dim=3, taps=(1, 2), identity=True)
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
