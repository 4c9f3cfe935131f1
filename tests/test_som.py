"""Set-of-marks rendering."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.masks import StructureId, contour
from segprompt.som import (
    DIGIT_FONT,
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


class TestAssignIntensities:
    def test_alternating(self):
        masks = [blob_mask()] * 3
        assert assign_intensities(flat_image(), masks, "alternating") == [255, 0, 255]

    def test_contrast_max_black_image(self):
        assert assign_intensities(flat_image(value=0.0), [blob_mask()],
                                  "contrast_max") == [255]

    def test_contrast_max_bright_region(self):
        img = flat_image(value=200 / 255)
        assert assign_intensities(img, [blob_mask()], "contrast_max") == [0]

    def test_uniform_constant(self):
        got = assign_intensities(flat_image(), [blob_mask()] * 4, "uniform",
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

    def test_pixels_outside_footprint_untouched_on_random_studies(self):
        spec = SynthSpec(seed=5, n_studies=6, lateral_prob=0, prior_prob=0)
        style = MarkStyle()
        for i in range(6):
            study = make_study(spec, i)
            overlay = render_overlay(study.frontal_image, study.frontal_masks, style)
            fp = overlay_footprint(study.frontal_masks, style, study.frontal_image.shape)
            diff = overlay.image != study.frontal_image
            assert np.array_equal(diff, fp)

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
