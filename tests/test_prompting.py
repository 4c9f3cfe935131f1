"""Prompt layout per strategy, token accounting, and realization."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.encoder import EncoderOutput, FeatureGrid
from segprompt.extractor import SegTokenPair
from segprompt.masks import StructureId
from segprompt.nn import Tensor
from segprompt.prompting import (
    ANNOTATION_ROLES,
    INSTRUCTION,
    INSTRUCTION_WITH_PRIOR,
    SYSTEM_MESSAGE,
    CombinedSegSlot,
    ImageSlot,
    Prompt,
    SegSlot,
    Strategy,
    StudyInput,
    TextSpan,
    View,
    build_prompt,
    count_tokens,
    prompt_dumps,
    realize_embeddings,
)

DIM = 6


def mask_with(pixels, shape=(8, 8)):
    m = np.zeros(shape, dtype=bool)
    for r, c in pixels:
        m[r, c] = True
    return m


def study(front_positives=(), lateral=None, prior=None, context=False) -> StudyInput:
    def mask_set(positives):
        return {s: mask_with([(i, i)]) for i, s in enumerate(positives)}

    img = np.zeros((8, 8))
    kwargs = {}
    if lateral is not None:
        kwargs.update(lateral_image=img, lateral_masks=mask_set(lateral))
    if prior is not None:
        kwargs.update(prior_image=img, prior_masks=mask_set(prior))
    if context:
        kwargs.update(indication="Fever.", technique="Portable view.",
                      comparison="None available.", prior_report="Clear.")
    return StudyInput(frontal_image=img, frontal_masks=mask_set(front_positives),
                      target_findings="The lungs are clear.", **kwargs)


def text_len(text: str) -> int:
    return len(text.split())


def stub_embedder(text: str):
    words = text.split()
    if not words:
        return None
    rows = [np.full(DIM, (hash(w) % 97) / 97.0) for w in words]
    return Tensor(np.stack(rows))


def stub_adapter(fg: FeatureGrid):
    return fg.features


def stub_pairs(views_structures: dict) -> dict:
    out = {}
    for view, structures in views_structures.items():
        pairs = []
        for i, s in enumerate(structures):
            base = float(hash((view.value, s.value)) % 89)
            pairs.append(SegTokenPair(
                structure=s,
                mask_token=Tensor(np.full(DIM, base + 0.25)),
                spatial_token=Tensor(np.full(DIM, base + 0.75))))
        out[view] = pairs
    return out


def feature_grids(views):
    rng = np.random.default_rng(0)
    return {v: EncoderOutput(taps={},
                             final=FeatureGrid(2, 2, Tensor(rng.standard_normal((4, DIM)))))
            for v in views}


def realize(prompt, views_structures):
    views = [seg.view for seg in prompt.segments if isinstance(seg, ImageSlot)]
    return realize_embeddings(prompt, feature_grids(views), stub_pairs(views_structures),
                              stub_embedder, stub_adapter)


class TestBuildPrompt:
    def test_ns_frontal_only_layout(self):
        p = build_prompt(study(), Strategy.NS, single_view=True)
        assert [type(s) for s in p.segments] == [TextSpan, ImageSlot, TextSpan]
        assert p.segments[0].text == SYSTEM_MESSAGE
        assert p.segments[1].view is View.CURRENT_FRONTAL
        assert p.segments[2].text == INSTRUCTION
        assert not p.degraded_to_ns

    def test_ss_label_then_two_slots(self):
        p = build_prompt(study((StructureId.LEFT_LUNG, StructureId.HEART)), Strategy.SS)
        texts = [s for s in p.segments if isinstance(s, TextSpan) and s.role == "mask_label"]
        assert [t.text for t in texts] == ["left lung mask", "heart mask"]
        idx = p.segments.index(texts[0])
        assert isinstance(p.segments[idx + 1], SegSlot)
        assert isinstance(p.segments[idx + 2], SegSlot)
        assert (p.segments[idx + 1].token, p.segments[idx + 2].token) == ("mask", "spatial")
        image_at = next(i for i, s in enumerate(p.segments) if isinstance(s, ImageSlot))
        assert idx > image_at

    def test_ss_multiview_slot_partition(self):
        p = build_prompt(
            study((StructureId.LEFT_LUNG, StructureId.RIGHT_LUNG, StructureId.HEART),
                  prior=(StructureId.LEFT_LUNG, StructureId.HEART)),
            Strategy.SS)
        slots = [s for s in p.segments if isinstance(s, SegSlot)]
        assert len(slots) == 2 * 3 + 2 * 2
        frontal = [s for s in slots if s.view is View.CURRENT_FRONTAL]
        prior = [s for s in slots if s.view is View.PRIOR_FRONTAL]
        assert len(frontal) == 6 and len(prior) == 4
        # per-view slots sit between that view's image slot and the next one
        image_positions = [i for i, s in enumerate(p.segments) if isinstance(s, ImageSlot)]
        for s in frontal:
            pos = p.segments.index(s)
            assert image_positions[0] < pos < image_positions[1]

    def test_prior_labels_prefixed(self):
        p = build_prompt(study((), prior=(StructureId.HEART,)), Strategy.SS)
        labels = [s.text for s in p.segments
                  if isinstance(s, TextSpan) and s.role == "mask_label"]
        assert labels == ["prior heart mask"]
        assert p.segments[-1].text == INSTRUCTION_WITH_PRIOR

    def test_dc_unlabeled_block_after_image(self):
        p = build_prompt(study((StructureId.LEFT_LUNG, StructureId.HEART)), Strategy.DC)
        assert not any(isinstance(s, TextSpan) and s.role == "mask_label"
                       for s in p.segments)
        image_at = next(i for i, s in enumerate(p.segments) if isinstance(s, ImageSlot))
        block = p.segments[image_at + 1:image_at + 5]
        assert all(isinstance(s, SegSlot) for s in block)
        assert [(s.structure, s.token) for s in block] == [
            (StructureId.LEFT_LUNG, "mask"), (StructureId.LEFT_LUNG, "spatial"),
            (StructureId.HEART, "mask"), (StructureId.HEART, "spatial")]

    def test_cs_name_list_then_combined_slot(self):
        p = build_prompt(study((StructureId.LEFT_LUNG, StructureId.HEART)), Strategy.CS)
        lists = [s for s in p.segments if isinstance(s, TextSpan) and s.role == "mask_list"]
        assert [t.text for t in lists] == ["left lung, heart masks"]
        combined = [s for s in p.segments if isinstance(s, CombinedSegSlot)]
        assert len(combined) == 1
        assert combined[0].structures == (StructureId.LEFT_LUNG, StructureId.HEART)

    def test_degrades_to_ns_without_masks(self):
        for strategy in (Strategy.SS, Strategy.DC, Strategy.CS):
            p = build_prompt(study(()), strategy, single_view=True)
            assert p.degraded_to_ns
            assert [type(s) for s in p.segments] == [TextSpan, ImageSlot, TextSpan]

    def test_single_view_drops_everything_extra(self):
        s = study((StructureId.HEART,), prior=(StructureId.HEART,), context=True)
        p = build_prompt(s, Strategy.SS, single_view=True)
        assert all(seg.view is View.CURRENT_FRONTAL for seg in p.segments
                   if isinstance(seg, (ImageSlot, SegSlot)))
        assert not any(isinstance(seg, TextSpan) and seg.role == "context"
                       for seg in p.segments)
        assert p.segments[-1].text == INSTRUCTION

    def test_context_sections_in_order_and_omitted_when_missing(self):
        s = study((), context=True)
        s.technique = None
        p = build_prompt(s, Strategy.NS)
        ctx = [seg.text for seg in p.segments
               if isinstance(seg, TextSpan) and seg.role == "context"]
        assert ctx == ["Prior report: Clear.", "Indication: Fever.",
                       "Comparison: None available."]

    def test_deterministic(self):
        s = study((StructureId.HEART,), context=True)
        assert prompt_dumps(build_prompt(s, Strategy.SS)) == \
            prompt_dumps(build_prompt(s, Strategy.SS))

    def test_every_seg_slot_has_positive_mask(self):
        s = study((StructureId.HEART,))
        s.frontal_masks[StructureId.CVC] = np.zeros((8, 8), dtype=bool)
        p = build_prompt(s, Strategy.SS)
        slots = [seg for seg in p.segments if isinstance(seg, SegSlot)]
        assert {seg.structure for seg in slots} == {StructureId.HEART}


class TestMarkList:
    """A set-of-marks legend becomes one "mark <k>: <structure>" span per view,
    after the instruction and before the context."""

    @staticmethod
    def legend_spans(prompt):
        return [seg.text for seg in prompt.segments
                if isinstance(seg, TextSpan) and seg.role == "som_legend"]

    @pytest.mark.parametrize("legends", [None, {}, {View.CURRENT_FRONTAL: []}],
                             ids=["none", "no-view", "empty"])
    def test_no_legend_adds_no_span(self, legends):
        s = study((StructureId.HEART,), context=True)
        plain = prompt_dumps(build_prompt(s, Strategy.SS))
        s.som_legends = legends
        assert prompt_dumps(build_prompt(s, Strategy.SS)) == plain

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_mark_lines_after_instruction_before_context(self, strategy):
        s = study((StructureId.LEFT_LUNG,), context=True)
        plain = build_prompt(s, strategy).segments
        s.som_legends = {View.CURRENT_FRONTAL: [("1", StructureId.LEFT_LUNG, 255),
                                                ("2", StructureId.ETT, 0)]}
        p = build_prompt(s, strategy)
        roles = [seg.role for seg in p.segments if isinstance(seg, TextSpan)]
        assert roles.index("som_legend") == roles.index("instruction") + 1
        assert roles.index("som_legend") < roles.index("context")
        assert self.legend_spans(p) == ["mark 1: left lung\nmark 2: endotracheal tube"]
        # the marks travel in pixels: no other segment changes
        assert [seg for seg in p.segments
                if not (isinstance(seg, TextSpan) and seg.role == "som_legend")] == plain

    def test_views_listed_in_order_with_prior_prefix(self):
        s = study((StructureId.HEART,), lateral=(StructureId.HEART,),
                  prior=(StructureId.HEART,), context=True)
        s.som_legends = {View.PRIOR_FRONTAL: [("1", StructureId.HEART, 0),
                                              ("2", StructureId.CVC, 255)],
                         View.CURRENT_LATERAL: [("1", StructureId.HEART, 255)]}
        p = build_prompt(s, Strategy.SS)
        assert self.legend_spans(p) == [
            "mark 1: heart", "mark 1: prior heart\nmark 2: prior central venous catheter"]
        roles = [seg.role for seg in p.segments if isinstance(seg, TextSpan)]
        first = roles.index("som_legend")
        assert roles[first - 1:first + 3] == ["instruction", "som_legend", "som_legend",
                                              "context"]

    def test_single_view_lists_only_frontal(self):
        s = study((StructureId.HEART,), lateral=(StructureId.HEART,),
                  prior=(StructureId.HEART,))
        s.som_legends = {view: [("1", StructureId.HEART, 255)] for view in View}
        assert self.legend_spans(build_prompt(s, Strategy.SS, single_view=True)) == \
            ["mark 1: heart"]
        assert len(self.legend_spans(build_prompt(s, Strategy.SS))) == 3


class TestCountTokens:
    def test_ns_is_text_plus_grid(self):
        p = build_prompt(study(), Strategy.NS, single_view=True)
        expected_text = text_len(SYSTEM_MESSAGE) + text_len(INSTRUCTION)
        assert count_tokens(p, 16, text_len) == expected_text + 16

    def test_ss_adds_two_per_positive(self):
        s = study((StructureId.LEFT_LUNG, StructureId.RIGHT_LUNG, StructureId.HEART),
                  prior=(StructureId.HEART,))
        ns = count_tokens(build_prompt(s, Strategy.NS), 16, text_len)
        ss = count_tokens(build_prompt(s, Strategy.SS), 16, text_len)
        assert ss == ns + 2 * 4

    def test_dc_and_cs_equal_ss(self):
        s = study((StructureId.LEFT_LUNG, StructureId.HEART),
                  prior=(StructureId.HEART, StructureId.ETT))
        counts = {strat: count_tokens(build_prompt(s, strat), 16, text_len)
                  for strat in (Strategy.SS, Strategy.DC, Strategy.CS)}
        assert counts[Strategy.DC] == counts[Strategy.SS] == counts[Strategy.CS]


class TestRealize:
    def test_ns_length_is_text_plus_cells(self):
        p = build_prompt(study(), Strategy.NS, single_view=True)
        emb = realize(p, {})
        expected_text = text_len(SYSTEM_MESSAGE) + text_len(INSTRUCTION)
        assert emb.shape == (expected_text + 4, DIM)

    def test_ss_adds_exactly_two_embeddings_per_positive(self):
        s = study((StructureId.LEFT_LUNG, StructureId.HEART))
        ns = realize(build_prompt(s, Strategy.NS), {})
        pairs = {View.CURRENT_FRONTAL: (StructureId.LEFT_LUNG, StructureId.HEART)}
        ss = realize(build_prompt(s, Strategy.SS), pairs)
        assert ss.shape[0] == ns.shape[0] + 4

    def test_strategies_realize_same_token_multiset(self):
        s = study((StructureId.LEFT_LUNG, StructureId.HEART))
        pairs = {View.CURRENT_FRONTAL: (StructureId.LEFT_LUNG, StructureId.HEART)}
        rows = {}
        for strat in (Strategy.SS, Strategy.DC, Strategy.CS):
            emb = realize(build_prompt(s, strat), pairs).data
            rows[strat] = {tuple(np.round(r, 9)) for r in emb}
        assert rows[Strategy.SS] == rows[Strategy.DC] == rows[Strategy.CS]

    def test_ns_equals_maskless_realization(self):
        masked = study((StructureId.LEFT_LUNG, StructureId.HEART))
        bare = study(())
        a = realize(build_prompt(masked, Strategy.NS), {}).data
        b = realize(build_prompt(bare, Strategy.NS), {}).data
        assert np.array_equal(a, b)

    def test_block_swap_confined_to_seg_rows(self):
        s = study((StructureId.LEFT_LUNG, StructureId.HEART))
        p = build_prompt(s, Strategy.SS)
        pairs_a = stub_pairs({View.CURRENT_FRONTAL: (StructureId.LEFT_LUNG,
                                                     StructureId.HEART)})
        pairs_b = stub_pairs({View.CURRENT_FRONTAL: (StructureId.LEFT_LUNG,
                                                     StructureId.HEART)})
        lst = pairs_b[View.CURRENT_FRONTAL]
        lst[0], lst[1] = (SegTokenPair(lst[0].structure, lst[1].mask_token,
                                       lst[1].spatial_token),
                          SegTokenPair(lst[1].structure, lst[0].mask_token,
                                       lst[0].spatial_token))
        grids = feature_grids([View.CURRENT_FRONTAL])
        a = realize_embeddings(p, grids, pairs_a, stub_embedder, stub_adapter).data
        b = realize_embeddings(p, grids, pairs_b, stub_embedder, stub_adapter).data
        diff_rows = np.nonzero(np.any(a != b, axis=1))[0]
        seg_rows = []
        row = 0
        for seg in p.segments:
            if isinstance(seg, TextSpan):
                if seg.role not in ANNOTATION_ROLES:
                    row += text_len(seg.text)
            elif isinstance(seg, ImageSlot):
                row += 4
            elif isinstance(seg, SegSlot):
                seg_rows.append(row)
                row += 1
        assert set(diff_rows) <= set(seg_rows)
        assert len(diff_rows) == 4

    def test_unresolvable_slot_named_in_error(self):
        s = study((StructureId.HEART,))
        p = build_prompt(s, Strategy.SS)
        with pytest.raises(ContractError, match="heart"):
            realize_embeddings(p, feature_grids([View.CURRENT_FRONTAL]), {},
                               stub_embedder, stub_adapter)

    def test_bridge_applied_to_seg_vectors(self):
        s = study((StructureId.HEART,))
        p = build_prompt(s, Strategy.SS)
        pairs = stub_pairs({View.CURRENT_FRONTAL: (StructureId.HEART,)})
        doubled = realize_embeddings(p, feature_grids([View.CURRENT_FRONTAL]), pairs,
                                     stub_embedder, stub_adapter,
                                     bridge=lambda v: v * 2.0).data
        plain = realize_embeddings(p, feature_grids([View.CURRENT_FRONTAL]), pairs,
                                   stub_embedder, stub_adapter).data
        seg_rows = np.nonzero(np.any(doubled != plain, axis=1))[0]
        assert len(seg_rows) == 2
        assert np.allclose(doubled[seg_rows], 2 * plain[seg_rows])


class TestDump:
    def test_segment_tags(self):
        s = study((StructureId.HEART,))
        dump = prompt_dumps(build_prompt(s, Strategy.SS))
        assert '"type": "seg"' in dump
        assert '"structure": "heart"' in dump
        assert dump.endswith("\n")
