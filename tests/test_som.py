"""Set-of-marks rendering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from segprompt.errors import ContractError
from segprompt.masks import StructureId, contour
from segprompt.som import (
    DIGIT_FONT,
    GLYPH_GAP,
    GLYPH_H,
    GLYPH_W,
    MarkStyle,
    assign_intensities,
    glyph_mask,
    overlay_footprint,
    render_overlay,
)
from segprompt.synth import SynthSpec, make_study


def blob_mask(shape=(16, 16), at=(6, 6), size=3):
    m = np.zeros(shape, dtype=bool)
    m[at[0]:at[0] + size, at[1]:at[1] + size] = True
    return m


def flat_image(shape=(16, 16), value=0.5):
    return np.full(shape, value)


def blob_ring(**kwargs):
    return contour(blob_mask(**kwargs))


class TestAssignIntensities:
    def test_alternating(self):
        rings = [blob_ring()] * 3
        assert assign_intensities(flat_image(), rings, "alternating") == [255, 0, 255]

    def test_contrast_max_black_image(self):
        assert assign_intensities(flat_image(value=0.0), [blob_ring()],
                                  "contrast_max") == [255]

    def test_contrast_max_bright_region(self):
        img = flat_image(value=200 / 255)
        assert assign_intensities(img, [blob_ring()], "contrast_max") == [0]

    def test_contrast_max_reads_only_the_ring(self):
        img = flat_image(value=0.0)
        img[7, 7] = 1.0  # the blob's one interior pixel
        assert assign_intensities(img, [blob_ring()], "contrast_max") == [255]
        img[6, 6] = img[6, 7] = img[6, 8] = img[7, 6] = img[7, 8] = 1.0  # 5 of 8 ring pixels
        assert assign_intensities(img, [blob_ring()], "contrast_max") == [0]

    def test_uniform_constant(self):
        got = assign_intensities(flat_image(), [blob_ring()] * 4, "uniform",
                                 uniform_value=77)
        assert got == [77, 77, 77, 77]

    def test_needs_masks(self):
        with pytest.raises(ContractError):
            assign_intensities(flat_image(), [], "alternating")


class TestRenderOverlay:
    def test_empty_mask_set_is_identity(self):
        img = flat_image()
        overlay = render_overlay(img, {}, MarkStyle())
        assert np.array_equal(overlay.image, img)
        assert overlay.legend == []

    def test_contours_only_touch_exactly_the_ring(self):
        img = flat_image()
        ms = {StructureId.HEART: blob_mask()}
        overlay = render_overlay(img, ms, MarkStyle(contours=True, alphanumerics=False))
        diff = overlay.image != img
        assert np.array_equal(diff, contour(ms[StructureId.HEART]))
        assert diff.sum() == 8

    def test_legend_in_canonical_order(self):
        ms = {StructureId.HEART: blob_mask(at=(2, 2)),
              StructureId.LEFT_LUNG: blob_mask(at=(9, 9))}
        overlay = render_overlay(flat_image(), ms, MarkStyle())
        labels = [(label, s) for label, s, _ in overlay.legend]
        assert labels == [("1", StructureId.LEFT_LUNG), ("2", StructureId.HEART)]

    def test_extent_mismatch(self):
        with pytest.raises(ContractError):
            render_overlay(flat_image((8, 8)), {StructureId.HEART: blob_mask((16, 16))},
                           MarkStyle())

    def test_style_requires_some_marks(self):
        with pytest.raises(ContractError):
            MarkStyle(contours=False, alphanumerics=False)

    def test_deterministic(self):
        ms = {StructureId.HEART: blob_mask()}
        a = render_overlay(flat_image(), ms, MarkStyle())
        b = render_overlay(flat_image(), ms, MarkStyle())
        assert np.array_equal(a.image, b.image)
        assert a.legend == b.legend

    @pytest.mark.parametrize("policy, value", [
        ("alternating", 128), ("contrast_max", 128), ("uniform", 77)])
    @pytest.mark.parametrize("contours, alphanumerics", [
        (True, True), (True, False), (False, True)])
    def test_pixels_outside_footprint_untouched_on_random_studies(
            self, contours, alphanumerics, policy, value):
        """Every view of studies with all three views and noisy masks, whose
        eroded masks split into several components. The images are moved off
        the 8-bit grid that mark intensities lie on, so every drawn pixel
        changes."""
        spec = SynthSpec(seed=5, n_studies=6, lateral_prob=1, prior_prob=1, mask_noise=1.0)
        style = MarkStyle(contours=contours, alphanumerics=alphanumerics, policy=policy,
                          uniform_value=value)
        for i in range(6):
            for _, image, ms in make_study(spec, i).views():
                image = image * (254 / 255) + 0.5 / 255
                overlay = render_overlay(image, ms, style)
                diff = overlay.image != image
                assert np.array_equal(diff, overlay_footprint(ms, style, image.shape))

    def test_uniform_mode_single_intensity(self):
        spec = SynthSpec(seed=6, n_studies=1, lateral_prob=0, prior_prob=0)
        study = make_study(spec, 0)
        style = MarkStyle(policy="uniform", uniform_value=200)
        overlay = render_overlay(study.frontal_image, study.frontal_masks, style)
        assert {value for _, _, value in overlay.legend} == {200}

    def test_glyph_clamped_inside_bounds(self):
        m = np.zeros((16, 16), dtype=bool)
        m[0, 0] = True  # centroid at the corner
        g = glyph_mask("1", (16, 16), (0.0, 0.0))
        assert g.any()
        overlay = render_overlay(flat_image(), {StructureId.HEART: m},
                                 MarkStyle(contours=False, alphanumerics=True))
        assert (overlay.image != flat_image()).sum() == g.sum()

    def test_multi_digit_glyphs(self):
        g = glyph_mask("10", (32, 32), (16.0, 16.0))
        one = sum(row.count("1") for row in DIGIT_FONT["1"])
        zero = sum(row.count("1") for row in DIGIT_FONT["0"])
        assert g.sum() == one + zero


def glyph_loop(label, shape, center):
    """The bit-by-bit loop over DIGIT_FONT's strings that glyph_mask's
    stamps replaced: the oracle for its footprint."""
    h, w = shape
    total_w = len(label) * GLYPH_W + (len(label) - 1) * GLYPH_GAP
    r0 = int(round(center[0])) - GLYPH_H // 2
    c0 = int(round(center[1])) - total_w // 2
    r0 = min(max(r0, 0), max(h - GLYPH_H, 0))
    c0 = min(max(c0, 0), max(w - total_w, 0))
    out = np.zeros(shape, dtype=bool)
    for k, ch in enumerate(label):
        cc = c0 + k * (GLYPH_W + GLYPH_GAP)
        for dr, row in enumerate(DIGIT_FONT[ch]):
            for dc, bit in enumerate(row):
                if bit == "1" and r0 + dr < h and cc + dc < w:
                    out[r0 + dr, cc + dc] = True
    return out


class TestGlyphMaskOracle:
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 150),
           st.floats(-20, 60), st.floats(-20, 60))
    def test_matches_loop(self, h, w, label, row, col):
        """Random extents (narrower and shorter than a glyph among them),
        labels 1-150 and centers outside the image exercise the clamping and
        the clipping."""
        args = (str(label), (h, w), (row, col))
        assert np.array_equal(glyph_mask(*args), glyph_loop(*args))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (7, 5), (7, 17), (16, 16)])
    @pytest.mark.parametrize("label", ["1", "8", "10", "88", "150"])
    def test_corners_match_loop(self, shape, label):
        h, w = shape
        for center in [(0.0, 0.0), (h - 1.0, w - 1.0), (-5.0, w + 5.0), (h / 2, w / 2)]:
            assert np.array_equal(glyph_mask(label, shape, center),
                                  glyph_loop(label, shape, center))
