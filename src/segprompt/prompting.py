"""Prompt assembly and realization.

A prompt is an ordered list of segments: text spans, image-token slots, and
segmentation-token slots, laid out per the interleaving strategy. Structure
name spans, list spans and separators are structural annotations: they appear
in dumps and goldens but realize to zero embeddings, so a realized prompt is
longer than its no-segmentation counterpart by exactly two embeddings per
positive mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from segprompt.errors import ContractError
from segprompt.encoder import EncoderOutput, FeatureGrid
from segprompt.extractor import SegTokenPair
from segprompt.masks import (
    STRUCTURE_NAMES,
    MaskSet,
    StructureId,
    positive_structures,
)
from segprompt.nn import Tensor, concat


class View(str, Enum):
    CURRENT_FRONTAL = "current_frontal"
    CURRENT_LATERAL = "current_lateral"
    PRIOR_FRONTAL = "prior_frontal"


class Strategy(str, Enum):
    NS = "NS"  # no segmentation tokens
    DC = "DC"  # direct concatenation after the image tokens
    CS = "CS"  # one combined block per view
    SS = "SS"  # per-structure labeled token pairs


SYSTEM_MESSAGE = ("You are an expert radiology assistant tasked with "
                  "interpreting a chest X-ray study.")
INSTRUCTION = "Provide a description of the findings in the radiology study."
INSTRUCTION_WITH_PRIOR = (INSTRUCTION[:-1]
                          + " in comparison to the prior frontal image.")

# Spans with these roles annotate adjacent slots; they are never embedded.
ANNOTATION_ROLES = frozenset({"mask_label", "mask_list", "separator"})

CONTEXT_SECTIONS = (("prior_report", "Prior report:"), ("indication", "Indication:"),
                    ("technique", "Technique:"), ("comparison", "Comparison:"))


@dataclass
class TextSpan:
    text: str
    role: str = "text"


@dataclass
class ImageSlot:
    view: View


@dataclass
class SegSlot:
    view: View
    structure: StructureId
    token: str  # "mask" | "spatial"


@dataclass
class CombinedSegSlot:
    view: View
    structures: tuple[StructureId, ...]


PromptSegment = Union[TextSpan, ImageSlot, SegSlot, CombinedSegSlot]


@dataclass
class StudyInput:
    """One study's inputs: the frontal view is mandatory, the rest optional."""

    frontal_image: np.ndarray
    frontal_masks: MaskSet
    lateral_image: np.ndarray | None = None
    lateral_masks: MaskSet | None = None
    prior_image: np.ndarray | None = None
    prior_masks: MaskSet | None = None
    indication: str | None = None
    technique: str | None = None
    comparison: str | None = None
    prior_report: str | None = None
    target_findings: str | None = None
    study_id: str = ""
    # per-view (label, structure, intensity) marks when the images are overlays
    som_legends: dict[View, list[tuple[str, StructureId, int]]] | None = None

    def views(self, single_view: bool = False) -> list[tuple[View, np.ndarray, MaskSet]]:
        out = [(View.CURRENT_FRONTAL, self.frontal_image, self.frontal_masks)]
        if single_view:
            return out
        if self.lateral_image is not None:
            out.append((View.CURRENT_LATERAL, self.lateral_image, self.lateral_masks or {}))
        if self.prior_image is not None:
            out.append((View.PRIOR_FRONTAL, self.prior_image, self.prior_masks or {}))
        return out


@dataclass
class Prompt:
    segments: list[PromptSegment]
    degraded_to_ns: bool = False


def _structure_label(structure: StructureId, view: View) -> str:
    name = STRUCTURE_NAMES[structure]
    return f"prior {name}" if view is View.PRIOR_FRONTAL else name


def _view_seg_segments(view: View, positives: list[StructureId],
                       strategy: Strategy) -> list[PromptSegment]:
    segs: list[PromptSegment] = []
    if strategy is Strategy.SS:
        for s in positives:
            segs.append(TextSpan(f"{_structure_label(s, view)} mask", role="mask_label"))
            segs.append(SegSlot(view, s, "mask"))
            segs.append(SegSlot(view, s, "spatial"))
    elif strategy is Strategy.DC:
        for s in positives:
            segs.append(SegSlot(view, s, "mask"))
            segs.append(SegSlot(view, s, "spatial"))
    elif strategy is Strategy.CS:
        names = ", ".join(_structure_label(s, view) for s in positives)
        plural = "masks" if len(positives) > 1 else "mask"
        segs.append(TextSpan(f"{names} {plural}", role="mask_list"))
        segs.append(CombinedSegSlot(view, tuple(positives)))
    return segs


def build_prompt(study: StudyInput, strategy: Strategy, single_view: bool = False) -> Prompt:
    """Assemble the segment sequence: system message, then per view its image
    slot followed by that view's segmentation segments, then the instruction,
    one "mark <k>: <structure>" list per view with a set-of-marks legend, and
    any textual context. A seg-token strategy on a study without any positive
    mask degrades to the NS layout with a warning flag. The marks travel in
    pixels, so a mark list adds no segmentation slot."""
    views = study.views(single_view)
    positives_by_view = {view: positive_structures(ms) for view, _, ms in views}
    degraded = False
    if strategy is not Strategy.NS and not any(positives_by_view.values()):
        strategy = Strategy.NS
        degraded = True

    segments: list[PromptSegment] = [TextSpan(SYSTEM_MESSAGE, role="system")]
    for i, (view, _, _) in enumerate(views):
        segments.append(ImageSlot(view))
        if strategy is not Strategy.NS and positives_by_view[view]:
            seg_segments = _view_seg_segments(view, positives_by_view[view], strategy)
            segments.extend(seg_segments)
            if seg_segments and i + 1 < len(views):
                segments.append(TextSpan("\n", role="separator"))

    has_prior = any(view is View.PRIOR_FRONTAL for view, _, _ in views)
    segments.append(TextSpan(INSTRUCTION_WITH_PRIOR if has_prior else INSTRUCTION,
                             role="instruction"))
    legends = study.som_legends or {}
    for view, _, _ in views:
        if legends.get(view):
            lines = [f"mark {label}: {_structure_label(s, view)}"
                     for label, s, _ in legends[view]]
            segments.append(TextSpan("\n".join(lines), role="som_legend"))
    if not single_view:
        for attr, header in CONTEXT_SECTIONS:
            value = getattr(study, attr)
            if value is not None:
                segments.append(TextSpan(f"{header} {value}", role="context"))
    return Prompt(segments=segments, degraded_to_ns=degraded)


def count_tokens(prompt: Prompt, grid_cells: int,
                 text_len_fn: Callable[[str], int]) -> int:
    """Token budget: embedded text + image cells per slot + one per seg slot
    (a combined slot counts two per structure pair)."""
    total = 0
    for seg in prompt.segments:
        if isinstance(seg, TextSpan):
            if seg.role not in ANNOTATION_ROLES:
                total += text_len_fn(seg.text)
        elif isinstance(seg, ImageSlot):
            total += grid_cells
        elif isinstance(seg, SegSlot):
            total += 1
        elif isinstance(seg, CombinedSegSlot):
            total += 2 * len(seg.structures)
    return total


def _resolve_pair(tokens_by_view: dict[View, list[SegTokenPair]], view: View,
                  structure: StructureId) -> SegTokenPair:
    for pair in tokens_by_view.get(view, []):
        if pair.structure is structure:
            return pair
    raise ContractError(f"no segmentation tokens for {structure.value} in view {view.value}")


def realize_embeddings(prompt: Prompt,
                       enc_out: dict[View, EncoderOutput],
                       tokens_by_view: dict[View, list[SegTokenPair]],
                       text_embedder: Callable[[str], Tensor | None],
                       adapter: Callable[[FeatureGrid], Tensor],
                       bridge: Callable[[Tensor], Tensor] | None = None) -> Tensor:
    """Realize a prompt as one (length, lm_dim) embedding sequence, in segment
    order: text spans via the embedder, image slots via the adapter, seg slots
    from the extractor output (width-bridged when needed)."""
    blocks: list[Tensor] = []

    def seg_vector(pair: SegTokenPair, which: str) -> Tensor:
        vec = pair.mask_token if which == "mask" else pair.spatial_token
        if bridge is not None:
            vec = bridge(vec)
        return vec.reshape(1, vec.shape[-1])

    for seg in prompt.segments:
        if isinstance(seg, TextSpan):
            if seg.role in ANNOTATION_ROLES:
                continue
            emb = text_embedder(seg.text)
            if emb is not None and emb.shape[0] > 0:
                blocks.append(emb)
        elif isinstance(seg, ImageSlot):
            if seg.view not in enc_out:
                raise ContractError(f"no encoder output for image slot {seg.view.value}")
            blocks.append(adapter(enc_out[seg.view].final))
        elif isinstance(seg, SegSlot):
            pair = _resolve_pair(tokens_by_view, seg.view, seg.structure)
            blocks.append(seg_vector(pair, seg.token))
        elif isinstance(seg, CombinedSegSlot):
            for structure in seg.structures:
                pair = _resolve_pair(tokens_by_view, seg.view, structure)
                blocks.append(seg_vector(pair, "mask"))
                blocks.append(seg_vector(pair, "spatial"))
    if not blocks:
        raise ContractError("prompt realized to an empty sequence")
    return concat(blocks, axis=0)


# -- debug dump -----------------------------------------------------------------


def segment_to_json(seg: PromptSegment) -> dict:
    if isinstance(seg, TextSpan):
        return {"type": "text", "role": seg.role, "text": seg.text}
    if isinstance(seg, ImageSlot):
        return {"type": "image", "view": seg.view.value}
    if isinstance(seg, SegSlot):
        return {"type": "seg", "view": seg.view.value,
                "structure": seg.structure.value, "token": seg.token}
    return {"type": "combined_seg", "view": seg.view.value,
            "structures": [s.value for s in seg.structures]}


def prompt_dumps(prompt: Prompt) -> str:
    """JSON array of segments with variant tags, used by golden tests."""
    return json.dumps([segment_to_json(s) for s in prompt.segments], indent=2) + "\n"
