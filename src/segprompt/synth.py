"""Synthetic study generator and dataset manifest.

Procedurally drawn grayscale chest images (lung/heart ellipses over noise,
polyline tubes, an optional apex crescent) with exact ground-truth masks and
templated findings text. The findings are a pure function of the drawn
structure set, so mask-conditioned mechanisms have learnable signal; the
crescent's pixel contrast is configurable and defaults to zero, which makes
its finding sentence depend on the mask alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, asdict
from enum import Enum
from pathlib import Path
from typing import TypedDict

import numpy as np

from segprompt.errors import ContractError, check_at_least, checked_fields, read_json, write_json
from segprompt.masks import (
    STRUCTURE_NAMES,
    STRUCTURE_ORDER,
    Mask,
    MaskSet,
    StructureId,
    read_image,
    read_mask,
    write_image,
    write_mask,
)
from segprompt.metrics import MR_FINDINGS
from segprompt.prompting import StudyInput, View

DEFAULT_STRUCTURE_PROBS: dict[str, float] = {
    StructureId.LEFT_LUNG.value: 1.0,
    StructureId.RIGHT_LUNG.value: 1.0,
    StructureId.HEART.value: 1.0,
    StructureId.CVC.value: 0.30,
    StructureId.ETT.value: 0.30,
    StructureId.NGT.value: 0.25,
    StructureId.SGC.value: 0.12,
    StructureId.CHEST_TUBE.value: 0.18,
    StructureId.PNEUMOTHORAX.value: 0.30,
}

INDICATION_POOL = ("Evaluation of line placement.", "Shortness of breath.",
                   "Fever and cough.")
TECHNIQUE_TEXT = "Portable AP view of the chest."
COMPARISON_TEXT = "Prior radiograph from the previous day."

SENTENCES = {
    "clear": "The lungs are clear.",
    "opacity_left": "There is a focal opacity in the left lung.",
    "opacity_right": "There is a focal opacity in the right lung.",
    "heart_normal": "The heart size is normal.",
    "heart_enlarged": "The heart is enlarged.",
    "effusion": "A small pleural effusion is seen.",
    "pneumothorax": "A pneumothorax is present.",
    StructureId.CVC.value: "A central venous catheter is in place.",
    StructureId.ETT.value: "An endotracheal tube is in place.",
    StructureId.NGT.value: "A nasogastric tube is in place.",
    StructureId.SGC.value: "A swan-ganz catheter is in place.",
    StructureId.CHEST_TUBE.value: "A chest tube is in place.",
    "none": "No findings.",
}

DEVICES = (StructureId.CVC, StructureId.ETT, StructureId.NGT,
           StructureId.SGC, StructureId.CHEST_TUBE)


@dataclass
class SynthSpec:
    seed: int = 0
    n_studies: int = 32
    image_size: int = 64
    structure_probs: dict[StructureId, float] = field(
        default_factory=lambda: dict(DEFAULT_STRUCTURE_PROBS))
    enlarged_heart_prob: float = 0.4
    heart_area_threshold: int = 200  # pixels; tuned for image_size 64
    opacity_prob: float = 0.4
    effusion_prob: float = 0.35
    lateral_prob: float = 0.25
    prior_prob: float = 0.35
    indication_prob: float = 0.6
    technique_prob: float = 0.5
    comparison_prob: float = 0.4
    ptx_intensity_delta: float = 0.0
    mask_noise: float = 0.0

    def __post_init__(self):
        check_at_least(self, 0, "seed", "n_studies")
        check_at_least(self, 1, "image_size")
        # each test is negated so that a NaN fails it too
        for key, p in self.structure_probs.items():
            name = StructureId(key).value
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"key 'structure_probs' must hold probabilities in [0, 1], "
                                    f"got {p} for {name!r}")
        for key in ("enlarged_heart_prob", "opacity_prob", "effusion_prob", "lateral_prob",
                    "prior_prob", "indication_prob", "technique_prob", "comparison_prob",
                    "mask_noise"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ContractError(f"key {key!r} must lie in [0, 1], got {getattr(self, key)}")
        if not math.isfinite(self.ptx_intensity_delta):
            raise ContractError(f"key 'ptx_intensity_delta' must be finite, "
                                f"got {self.ptx_intensity_delta}")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return cls(**checked_fields(d, cls))


@dataclass
class StudyState:
    """What was drawn in one view; findings text derives from this alone."""

    present: dict[StructureId, bool]
    cardiomegaly: bool = False
    opacity_side: str | None = None
    effusion: bool = False


# -- drawing -------------------------------------------------------------------


def _ellipse_norm(size: int, cr: float, cc: float, ry: float, rx: float) -> np.ndarray:
    rows = np.arange(size)[:, None]
    cols = np.arange(size)[None, :]
    return ((rows - cr) / ry) ** 2 + ((cols - cc) / rx) ** 2


def _ellipse(size: int, cr: float, cc: float, ry: float, rx: float) -> Mask:
    return _ellipse_norm(size, cr, cc, ry, rx) <= 1.0


def _polyline(size: int, points: list[tuple[float, float]], radius: int) -> Mask:
    """The pixels within ``radius`` of a sample point of the segments joining
    ``points``, two samples per pixel of each segment's longer extent.

    Each point is tested on the ``(2 * radius + 2)``-square window from
    ``floor(r) - radius``, which holds every pixel within ``radius`` of it,
    clipped to the image; the points and the test are the same float
    operations as a test over the whole image, so the mask is bit-identical
    to that."""
    rs, cs = [], []
    for (r0, c0), (r1, c1) in zip(points[:-1], points[1:]):
        steps = max(int(2 * max(abs(r1 - r0), abs(c1 - c0))), 1)
        t = np.linspace(0.0, 1.0, steps + 1)
        rs.append(r0 + t * (r1 - r0))
        cs.append(c0 + t * (c1 - c0))
    r = np.concatenate(rs)[:, None, None]
    c = np.concatenate(cs)[:, None, None]
    window = np.arange(2 * radius + 2)
    # a clipped index is an edge pixel, tested at its own distance
    rows = np.clip(np.floor(r).astype(np.intp) - radius + window[:, None], 0, size - 1)
    cols = np.clip(np.floor(c).astype(np.intp) - radius + window, 0, size - 1)
    hit = (rows - r) ** 2 + (cols - c) ** 2 <= radius ** 2  # (points, window, window)
    m = np.zeros((size, size), dtype=bool)
    m[np.broadcast_to(rows, hit.shape)[hit], np.broadcast_to(cols, hit.shape)[hit]] = True
    return m


def _shift(m: Mask, dr: int, dc: int) -> Mask:
    out = np.zeros_like(m)
    h, w = m.shape
    rs = slice(max(dr, 0), h + min(dr, 0))
    rd = slice(max(-dr, 0), h + min(-dr, 0))
    cs = slice(max(dc, 0), w + min(dc, 0))
    cd = slice(max(-dc, 0), w + min(-dc, 0))
    out[rs, cs] = m[rd, cd]
    return out


def _apply_mask_noise(rng: np.random.Generator, m: Mask) -> Mask:
    op = rng.integers(0, 3)
    if op == 0:  # dilate by one pixel (4-neighborhood)
        return m | _shift(m, 1, 0) | _shift(m, -1, 0) | _shift(m, 0, 1) | _shift(m, 0, -1)
    if op == 1:  # erode by one pixel
        return m & _shift(m, 1, 0) & _shift(m, -1, 0) & _shift(m, 0, 1) & _shift(m, 0, -1)
    return np.zeros_like(m)


def _draw_view(rng: np.random.Generator, spec: SynthSpec, present: dict[StructureId, bool],
               enlarged: bool, opacity_side: str | None, effusion_side: str | None
               ) -> tuple[np.ndarray, MaskSet, StudyState]:
    s = spec.image_size
    img = 0.30 + 0.04 * rng.standard_normal((s, s))
    masks: MaskSet = {}

    lung_params: dict[str, tuple[float, float, float, float]] = {}
    for structure, frac_cc in ((StructureId.RIGHT_LUNG, 0.28), (StructureId.LEFT_LUNG, 0.72)):
        cr = (0.47 + 0.03 * rng.uniform(-1, 1)) * s
        cc = (frac_cc + 0.02 * rng.uniform(-1, 1)) * s
        ry = (0.22 + 0.02 * rng.uniform(-1, 1)) * s
        rx = (0.13 + 0.015 * rng.uniform(-1, 1)) * s
        side = "right" if structure is StructureId.RIGHT_LUNG else "left"
        lung_params[side] = (cr, cc, ry, rx)
        if present[structure]:
            mask = _ellipse(s, cr, cc, ry, rx)
            img[mask] -= 0.12
            masks[structure] = mask

    cardiomegaly = False
    if present[StructureId.HEART]:
        cr = (0.63 + 0.02 * rng.uniform(-1, 1)) * s
        cc = (0.55 + 0.02 * rng.uniform(-1, 1)) * s
        if enlarged:
            ry = rng.uniform(0.125, 0.14) * s
            rx = rng.uniform(0.17, 0.19) * s
        else:
            ry = rng.uniform(0.090, 0.105) * s
            rx = rng.uniform(0.105, 0.120) * s
        mask = _ellipse(s, cr, cc, ry, rx)
        img[mask] += 0.22
        masks[StructureId.HEART] = mask
        cardiomegaly = int(mask.sum()) >= spec.heart_area_threshold

    radius = max(1, s // 64)
    tube_paths: dict[StructureId, list[tuple[float, float]]] = {
        StructureId.ETT: [(0.03 * s, 0.50 * s), (0.20 * s, (0.50 + 0.01 * rng.uniform(-1, 1)) * s),
                          (0.38 * s, 0.50 * s)],
        StructureId.NGT: [(0.03 * s, 0.53 * s), (0.30 * s, (0.54 + 0.02 * rng.uniform(-1, 1)) * s),
                          (0.62 * s, 0.56 * s)],
        StructureId.CVC: [(0.08 * s, 0.20 * s), (0.22 * s, (0.34 + 0.03 * rng.uniform(-1, 1)) * s),
                          (0.42 * s, 0.52 * s)],
        StructureId.SGC: [(0.08 * s, 0.80 * s), (0.30 * s, (0.68 + 0.03 * rng.uniform(-1, 1)) * s),
                          (0.55 * s, 0.55 * s)],
        StructureId.CHEST_TUBE: [(0.55 * s, 0.05 * s),
                                 ((0.48 + 0.03 * rng.uniform(-1, 1)) * s, 0.18 * s),
                                 (0.42 * s, 0.30 * s)],
    }
    for structure in DEVICES:
        if present[structure]:
            mask = _polyline(s, tube_paths[structure], radius)
            img[mask] += 0.35
            masks[structure] = mask

    if present[StructureId.PNEUMOTHORAX]:
        side = "left" if rng.random() < 0.5 else "right"
        cr, cc, ry, rx = lung_params[side]
        norm = _ellipse_norm(s, cr, cc, ry, rx)
        rows = np.arange(s)[:, None]
        crescent = (norm >= 1.0) & (norm <= 1.55) & (rows < cr)
        img[crescent] += spec.ptx_intensity_delta
        masks[StructureId.PNEUMOTHORAX] = crescent

    if opacity_side is not None:
        cr, cc, ry, rx = lung_params[opacity_side]
        disc = _ellipse(s, cr + rng.uniform(-0.3, 0.3) * ry, cc + rng.uniform(-0.3, 0.3) * rx,
                        rng.uniform(0.05, 0.08) * s, rng.uniform(0.05, 0.08) * s)
        img[disc] += 0.18

    if effusion_side is not None:
        cr, cc, ry, rx = lung_params[effusion_side]
        band = _ellipse(s, cr, cc, ry, rx) & (np.arange(s)[:, None] > cr + 0.45 * ry)
        img[band] += 0.15

    if spec.mask_noise > 0.0:
        for structure in list(masks):
            if rng.random() < spec.mask_noise:
                masks[structure] = _apply_mask_noise(rng, masks[structure])

    img = np.round(np.clip(img, 0.01, 0.99) * 255.0) / 255.0
    state = StudyState(present=dict(present), cardiomegaly=cardiomegaly,
                       opacity_side=opacity_side, effusion=effusion_side is not None)
    return img, masks, state


# -- findings grammar -----------------------------------------------------------


def findings_text(state: StudyState) -> str:
    sentences: list[str] = []
    lungs_drawn = state.present.get(StructureId.LEFT_LUNG) or state.present.get(
        StructureId.RIGHT_LUNG)
    if state.opacity_side is not None:
        sentences.append(SENTENCES[f"opacity_{state.opacity_side}"])
    elif lungs_drawn:
        sentences.append(SENTENCES["clear"])
    if state.present.get(StructureId.HEART):
        sentences.append(SENTENCES["heart_enlarged" if state.cardiomegaly
                                   else "heart_normal"])
    if state.effusion:
        sentences.append(SENTENCES["effusion"])
    if state.present.get(StructureId.PNEUMOTHORAX):
        sentences.append(SENTENCES["pneumothorax"])
    for device in DEVICES:
        if state.present.get(device):
            sentences.append(SENTENCES[device.value])
    return " ".join(sentences) if sentences else SENTENCES["none"]


def findings_to_labels(text: str) -> np.ndarray:
    """Keyword extraction of the five mask-relevant findings from report text.
    The grammar only mentions a finding when it is present, so presence of its
    keyword is the label."""
    import re

    tokens = set(re.findall(r"[a-z0-9]+", text.lower()))
    values = {
        "lung_opacity": "opacity" in tokens,
        "cardiomegaly": "enlarged" in tokens,
        "pneumothorax": "pneumothorax" in tokens,
        "support_devices": "tube" in tokens or "catheter" in tokens,
        "pleural_effusion": "effusion" in tokens,
    }
    return np.array([values[f] for f in MR_FINDINGS], dtype=bool)


def vocabulary() -> list[str]:
    """Closed vocabulary covering the grammar, prompt templates, context
    sections and mark-list lines."""
    from segprompt.mllm import Tokenizer
    from segprompt.prompting import INSTRUCTION_WITH_PRIOR, SYSTEM_MESSAGE

    texts = [SYSTEM_MESSAGE, INSTRUCTION_WITH_PRIOR, TECHNIQUE_TEXT, COMPARISON_TEXT]
    texts += list(INDICATION_POOL)
    texts += list(SENTENCES.values())
    texts += list(STRUCTURE_NAMES.values())
    texts += ["Prior report: Indication: Technique: Comparison:", "mark mask masks"]
    texts += [str(k) for k in range(1, 10)]
    words: set[str] = set()
    for text in texts:
        words.update(Tokenizer.tokenize(text))
    return sorted(words)


# -- study assembly ---------------------------------------------------------------


def _sample_state(rng: np.random.Generator, spec: SynthSpec):
    present = {s: rng.random() < spec.structure_probs.get(s.value, 0.0)
               for s in STRUCTURE_ORDER}
    enlarged = rng.random() < spec.enlarged_heart_prob
    opacity_side = None
    if rng.random() < spec.opacity_prob:
        opacity_side = "left" if rng.random() < 0.5 else "right"
    effusion_side = None
    if rng.random() < spec.effusion_prob:
        effusion_side = "left" if rng.random() < 0.5 else "right"
    return present, enlarged, opacity_side, effusion_side


def make_study(spec: SynthSpec, index: int) -> StudyInput:
    """Deterministically build one study from (spec.seed, index)."""
    rng = np.random.default_rng([spec.seed, index])
    present, enlarged, opacity_side, effusion_side = _sample_state(rng, spec)
    has_lateral = rng.random() < spec.lateral_prob
    has_prior = rng.random() < spec.prior_prob
    indication = INDICATION_POOL[rng.integers(len(INDICATION_POOL))] \
        if rng.random() < spec.indication_prob else None
    technique = TECHNIQUE_TEXT if rng.random() < spec.technique_prob else None
    comparison = COMPARISON_TEXT if rng.random() < spec.comparison_prob else None

    frontal_img, frontal_masks, state = _draw_view(
        rng, spec, present, enlarged, opacity_side, effusion_side)
    lateral_img = lateral_masks = None
    if has_lateral:
        lateral_img, lateral_masks, _ = _draw_view(
            rng, spec, present, enlarged, opacity_side, effusion_side)
    prior_img = prior_masks = None
    prior_report = None
    if has_prior:
        p_present, p_enlarged, p_opacity, p_effusion = _sample_state(rng, spec)
        prior_img, prior_masks, prior_state = _draw_view(
            rng, spec, p_present, p_enlarged, p_opacity, p_effusion)
        prior_report = findings_text(prior_state)

    return StudyInput(
        frontal_image=frontal_img, frontal_masks=frontal_masks,
        lateral_image=lateral_img, lateral_masks=lateral_masks,
        prior_image=prior_img, prior_masks=prior_masks,
        indication=indication, technique=technique, comparison=comparison,
        prior_report=prior_report,
        target_findings=findings_text(state),
        study_id=f"study_{index:05d}",
    )


class Split(str, Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


def split_of(index: int) -> Split:
    r = index % 10
    return Split.TRAIN if r < 8 else (Split.VAL if r == 8 else Split.TEST)


# -- manifest: the generator's spec and a list of StudyRecord entries ----------


class _ViewFiles(TypedDict):
    image: str
    masks: dict[StructureId, str]


class ViewEntry(_ViewFiles, total=False):
    """One view's image and mask paths, relative to the dataset root, and
    after ``render-som`` its ``(label, structure, value)`` marks; a plain
    dict, read and written as the JSON object it is."""

    legend: tuple[tuple[str, StructureId, int], ...]


@dataclass
class StudyContext:
    """The text sections a prompt may carry besides the images."""

    indication: str | None = None
    technique: str | None = None
    comparison: str | None = None
    prior_report: str | None = None


@dataclass
class StudyRecord:
    study_id: str
    split: Split
    views: dict[View, ViewEntry]  # current_frontal among them
    context: StudyContext
    target_findings: str


def generate_dataset(spec: SynthSpec, out_dir: str | Path) -> list[StudyRecord]:
    """Write images/masks as PGM plus manifest.json; byte-identical reruns.
    An existing manifest.json is removed before the first file is written,
    and the new one is written last, so an interrupted rerun leaves none."""
    root = Path(out_dir)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").unlink(missing_ok=True)

    records = []
    for index in range(spec.n_studies):
        study = make_study(spec, index)
        sid = study.study_id
        views: dict[View, ViewEntry] = {}
        for view, image, masks in study.views():
            img_rel = f"images/{sid}_{view.value}.pgm"
            write_image(root / img_rel, image)
            mask_rels = {}
            for structure, m in masks.items():
                rel = f"masks/{sid}_{view.value}_{structure.value}.pgm"
                write_mask(root / rel, m)
                mask_rels[structure] = rel
            views[view] = ViewEntry(image=img_rel, masks=mask_rels)
        records.append(StudyRecord(
            study_id=sid, split=split_of(index), views=views,
            context=StudyContext(study.indication, study.technique, study.comparison,
                                 study.prior_report),
            target_findings=study.target_findings))

    write_json(root / "manifest.json",
               {"spec": asdict(spec), "studies": [asdict(r) for r in records]})
    return records


def load_manifest(data_dir: str | Path) -> tuple[dict, list[StudyRecord]]:
    """The manifest and its study records. A missing or malformed manifest, a
    ``spec`` that does not fit SynthSpec, an entry that does not fit
    StudyRecord or lacks a ``current_frontal`` view, or two entries with one
    ``study_id`` raise a ContractError naming the file, the entry and the
    field."""
    path = Path(data_dir) / "manifest.json"
    manifest = read_json(path)
    studies = manifest.get("studies") if isinstance(manifest, dict) else None
    if not isinstance(studies, list):
        raise ContractError(f"{path}: 'studies' must be a list of study entries")
    if "spec" in manifest:
        try:
            SynthSpec.from_dict(manifest["spec"])
        except ContractError as exc:
            raise ContractError(f"{path}: key 'spec': {exc}") from exc
    records, index_of = [], {}
    for index, entry in enumerate(studies):
        try:
            record = StudyRecord(**checked_fields(entry, StudyRecord))
            if View.CURRENT_FRONTAL not in record.views:
                raise ContractError(f"key 'views' lacks {View.CURRENT_FRONTAL.value!r}")
        except ContractError as exc:
            raise ContractError(f"{path}: studies[{index}]: {exc}") from exc
        first = index_of.setdefault(record.study_id, index)
        if first != index:
            raise ContractError(f"{path}: studies[{first}] and studies[{index}] share "
                                f"study_id {record.study_id!r}")
        records.append(record)
    return manifest, records


def _read_named(path: str, read):
    try:
        return read(path)
    except FileNotFoundError:
        raise ContractError(f"{path}: file named in the manifest is missing") from None


def read_view(root: str | Path, entry: ViewEntry) -> tuple[np.ndarray, MaskSet, list | None]:
    """One manifest view's image, masks and legend (``None`` without one).
    A missing file, or a mask whose extent differs from the image's, raises
    a ContractError naming the file."""
    image_path = os.path.join(root, entry["image"])
    image = _read_named(image_path, read_image)
    masks = {}
    for structure, rel in entry["masks"].items():
        path = os.path.join(root, rel)
        mask = masks[structure] = _read_named(path, read_mask)
        if mask.shape != image.shape:
            raise ContractError(f"{path}: mask extent {mask.shape} != image extent "
                                f"{image.shape} of {image_path}")
    return image, masks, list(entry.get("legend", ())) or None


def load_study(record: StudyRecord, root: str | Path) -> StudyInput:
    root = str(Path(root))  # normalized once; read_view joins it to each file
    parts = {view: read_view(root, entry) for view, entry in record.views.items()}
    absent = (None, None, None)
    f_img, f_masks, _ = parts[View.CURRENT_FRONTAL]
    l_img, l_masks, _ = parts.get(View.CURRENT_LATERAL, absent)
    p_img, p_masks, _ = parts.get(View.PRIOR_FRONTAL, absent)
    legends = {view: legend for view, (_, _, legend) in parts.items() if legend}
    context = record.context
    return StudyInput(
        frontal_image=f_img, frontal_masks=f_masks,
        lateral_image=l_img, lateral_masks=l_masks,
        prior_image=p_img, prior_masks=p_masks,
        indication=context.indication, technique=context.technique,
        comparison=context.comparison, prior_report=context.prior_report,
        target_findings=record.target_findings,
        study_id=record.study_id,
        som_legends=legends or None,
    )
