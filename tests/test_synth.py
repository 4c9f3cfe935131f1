"""Generator self-consistency: determinism, grammar/label agreement, splits,
and manifest round trips."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.masks import StructureId, read_image, write_mask
from segprompt.metrics import MR_FINDINGS
from segprompt.mllm import Tokenizer
from segprompt.prompting import View
from segprompt.synth import (
    DEVICES,
    SynthSpec,
    StudyState,
    findings_text,
    findings_to_labels,
    generate_dataset,
    load_manifest,
    load_study,
    make_study,
    read_view,
    split_of,
    vocabulary,
)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def make_studies(spec: SynthSpec) -> list:
    return [make_study(spec, i) for i in range(spec.n_studies)]


def labels_for_state(state: StudyState) -> np.ndarray:
    """Ground-truth vector over the five mask-relevant findings: the oracle
    for ``findings_to_labels``."""
    values = {
        "lung_opacity": state.opacity_side is not None,
        "cardiomegaly": bool(state.present.get(StructureId.HEART)) and state.cardiomegaly,
        "pneumothorax": bool(state.present.get(StructureId.PNEUMOTHORAX)),
        "support_devices": any(state.present.get(d) for d in DEVICES),
        "pleural_effusion": state.effusion,
    }
    return np.array([values[f] for f in MR_FINDINGS], dtype=bool)


class TestGeneratorBasics:
    def test_all_probabilities_zero(self):
        spec = SynthSpec(seed=1, n_studies=2, image_size=32,
                         structure_probs={s.value: 0.0 for s in StructureId},
                         opacity_prob=0.0, effusion_prob=0.0,
                         lateral_prob=0.0, prior_prob=0.0)
        for study in make_studies(spec):
            assert study.frontal_masks == {}
            assert study.target_findings == "No findings."
            assert study.frontal_image.shape == (32, 32)

    def test_deterministic_tree(self, tmp_path):
        spec = SynthSpec(seed=7, n_studies=4, image_size=32)
        generate_dataset(spec, tmp_path / "a")
        generate_dataset(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_tube_probability_one_self_consistency(self):
        probs = {s.value: 0.0 for s in StructureId}
        probs[StructureId.ETT.value] = 1.0
        spec = SynthSpec(seed=2, n_studies=8, image_size=32, structure_probs=probs,
                         lateral_prob=0.0, prior_prob=0.0)
        for study in make_studies(spec):
            assert "endotracheal tube" in study.target_findings.lower()
            assert study.frontal_masks[StructureId.ETT].any()

    def test_images_quantized_away_from_extremes(self):
        spec = SynthSpec(seed=3, n_studies=3, image_size=32)
        for study in make_studies(spec):
            as_bytes = np.round(study.frontal_image * 255).astype(int)
            assert as_bytes.min() >= 1 and as_bytes.max() <= 254
            assert np.allclose(as_bytes / 255.0, study.frontal_image)

    def test_prior_report_iff_prior_view(self):
        spec = SynthSpec(seed=4, n_studies=20, image_size=32, prior_prob=0.5)
        for study in make_studies(spec):
            assert (study.prior_image is not None) == (study.prior_report is not None)

    def test_masks_share_view_extents(self):
        spec = SynthSpec(seed=5, n_studies=5, image_size=32)
        for study in make_studies(spec):
            for m in study.frontal_masks.values():
                assert m.shape == study.frontal_image.shape


class TestGrammar:
    def test_text_is_pure_function_of_state(self):
        state = StudyState(present={s: False for s in StructureId})
        state.present[StructureId.HEART] = True
        state.present[StructureId.ETT] = True
        state.cardiomegaly = True
        assert findings_text(state) == \
            "The heart is enlarged. An endotracheal tube is in place."

    def test_fixed_sentence_order(self):
        state = StudyState(present={s: True for s in StructureId},
                           cardiomegaly=False, opacity_side="left", effusion=True)
        text = findings_text(state)
        order = ["opacity", "heart size is normal", "pleural effusion",
                 "pneumothorax", "central venous catheter", "endotracheal tube",
                 "nasogastric tube", "swan-ganz", "chest tube"]
        positions = [text.lower().index(k) for k in order]
        assert positions == sorted(positions)

    def test_labels_roundtrip_through_text(self):
        spec = SynthSpec(seed=6, n_studies=40, image_size=32, heart_area_threshold=50)
        for i in range(spec.n_studies):
            study = make_study(spec, i)
            parsed = findings_to_labels(study.target_findings)
            # reconstruct state labels from the study itself
            present = {s: (s in study.frontal_masks) for s in StructureId}
            heart = study.frontal_masks.get(StructureId.HEART)
            state = StudyState(
                present=present,
                cardiomegaly=heart is not None and heart.sum() >= 50,
                opacity_side="left" if "opacity" in study.target_findings.lower() else None,
                effusion="effusion" in study.target_findings.lower())
            assert np.array_equal(parsed, labels_for_state(state)), study.target_findings

    def test_cardiomegaly_follows_area_threshold(self):
        spec = SynthSpec(seed=8, n_studies=30, image_size=32, heart_area_threshold=50,
                         lateral_prob=0.0, prior_prob=0.0)
        seen = {True: 0, False: 0}
        for i in range(spec.n_studies):
            study = make_study(spec, i)
            heart = study.frontal_masks.get(StructureId.HEART)
            if heart is None:
                continue
            enlarged = "enlarged" in study.target_findings
            assert enlarged == (heart.sum() >= 50)
            seen[enlarged] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_label_vector_order_matches_findings(self):
        assert MR_FINDINGS == ("lung_opacity", "cardiomegaly", "pneumothorax",
                               "support_devices", "pleural_effusion")

    def test_vocabulary_closed_over_generated_text(self):
        tok = Tokenizer(vocabulary())
        spec = SynthSpec(seed=9, n_studies=25, image_size=32)
        for study in make_studies(spec):
            assert tok.UNK not in tok.encode(study.target_findings)
            for section in (study.indication, study.technique, study.comparison,
                            study.prior_report):
                if section:
                    assert tok.UNK not in tok.encode(section)


class TestSplits:
    def test_disjoint_and_stable(self):
        assignments = [split_of(i) for i in range(30)]
        assert assignments.count("train") == 24
        assert assignments.count("val") == 3
        assert assignments.count("test") == 3
        assert assignments == [split_of(i) for i in range(30)]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        spec = SynthSpec(seed=10, n_studies=10, image_size=32)
        records = generate_dataset(spec, tmp_path)
        manifest, loaded = load_manifest(tmp_path)
        assert manifest["spec"]["seed"] == 10
        assert [r.study_id for r in loaded] == [r.study_id for r in records]
        assert {r.split for r in loaded} == {"train", "val", "test"}
        for record in loaded:
            study = load_study(record, tmp_path)
            original = make_study(spec, int(record.study_id.split("_")[1]))
            assert np.allclose(study.frontal_image, original.frontal_image)
            for s, m in original.frontal_masks.items():
                assert np.array_equal(study.frontal_masks[s], m)
            assert study.target_findings == original.target_findings

    def test_referenced_files_exist(self, tmp_path):
        spec = SynthSpec(seed=11, n_studies=4, image_size=32)
        generate_dataset(spec, tmp_path)
        _, records = load_manifest(tmp_path)
        for record in records:
            for entry in record.views.values():
                assert (tmp_path / entry["image"]).exists()
                for rel in entry["masks"].values():
                    assert (tmp_path / rel).exists()
        img = read_image(tmp_path / records[0].views["current_frontal"]["image"])
        assert img.shape == (32, 32)

    @pytest.mark.parametrize("edit,names", [
        (lambda m: m["studies"][1].pop("split"), ["studies[1]", "missing", "'split'"]),
        (lambda m: [m["studies"][2].pop(k) for k in ("views", "context")],
         ["studies[2]", "missing", "'views'", "'context'"]),
        (lambda m: m["studies"][0].update(splt="train"), ["studies[0]", "unknown", "'splt'"]),
        (lambda m: m["studies"].__setitem__(3, ["study_00003"]), ["studies[3]", "list"]),
        (lambda m: m.pop("studies"), ["'studies'", "list"]),
        (lambda m: m.update(studies={"study_00000": {}}), ["'studies'", "list"]),
        (lambda m: m["studies"][1]["views"].pop("current_frontal"),
         ["studies[1]", "'views'", "lacks 'current_frontal'"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"].pop("image"),
         ["studies[0]", "'views'['current_frontal']", "missing key 'image'"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"].update(image=3),
         ["'views'['current_frontal']", "'image'", "string"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"].update(images="x.pgm"),
         ["'views'['current_frontal']", "unknown", "'images'"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"]["masks"].update(spleen="x.pgm"),
         ["'views'['current_frontal']", "'spleen'"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"]["masks"].update(heart=None),
         ["'views'['current_frontal']", "'heart'", "string"]),
        (lambda m: m["studies"][0]["views"]["current_frontal"].update(legend=[["1", "heart"]]),
         ["'views'['current_frontal']", "'legend'", "[label, structure, value]"]),
        (lambda m: m["studies"][2]["context"].update(indication=7),
         ["studies[2]", "'context'", "string or null"]),
        (lambda m: m["studies"][2]["context"].update(history="x"),
         ["studies[2]", "'context'", "'history'"]),
        (lambda m: m["studies"][3].update(study_id=3), ["studies[3]", "'study_id'", "string"]),
    ])
    def test_malformed_manifest_names_file_and_entry(self, tmp_path, edit, names):
        generate_dataset(SynthSpec(seed=11, n_studies=4, image_size=32), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=re.escape(str(path))) as info:
            load_manifest(tmp_path)
        for name in names:
            assert name in str(info.value)

    def test_legend_and_missing_context_keys_load(self, tmp_path):
        """A ``legend`` of ``[label, structure, value]`` is accepted, and a
        context key left out reads as null."""
        generate_dataset(SynthSpec(seed=11, n_studies=2, image_size=32), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["studies"][0]["views"]["current_frontal"]["legend"] = [["1", "heart", 200]]
        manifest["studies"][0]["context"] = {"indication": "Fever and cough."}
        path.write_text(json.dumps(manifest))
        _, records = load_manifest(tmp_path)
        study = load_study(records[0], tmp_path)
        assert study.som_legends == {View.CURRENT_FRONTAL: [("1", StructureId.HEART, 200)]}
        assert study.indication == "Fever and cough." and study.technique is None

    @pytest.mark.parametrize("fault", ["missing", "extent"])
    def test_view_files_checked(self, tmp_path, fault):
        """``read_view``, which ``load_study`` and ``render-som`` share, names
        a missing file and a mask whose extent differs from its image's."""
        generate_dataset(SynthSpec(seed=11, n_studies=2, image_size=32), tmp_path)
        _, records = load_manifest(tmp_path)
        entry = records[0].views["current_frontal"]
        rel = entry["masks"]["heart"]
        if fault == "missing":
            (tmp_path / rel).unlink()
        else:
            write_mask(tmp_path / rel, np.zeros((32, 16), dtype=bool))
        for read in (lambda: read_view(tmp_path, entry), lambda: load_study(records[0], tmp_path)):
            with pytest.raises(ContractError, match=re.escape(str(tmp_path / rel))):
                read()

    def test_manifest_not_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"studies": [')
        with pytest.raises(ContractError, match="manifest.json: not valid JSON"):
            load_manifest(tmp_path)

    def test_mask_noise_flag(self):
        probs = {s.value: 0.0 for s in StructureId}
        probs[StructureId.HEART.value] = 1.0
        clean = SynthSpec(seed=12, n_studies=6, image_size=32, structure_probs=probs,
                          lateral_prob=0.0, prior_prob=0.0)
        noisy = SynthSpec(seed=12, n_studies=6, image_size=32, structure_probs=probs,
                          lateral_prob=0.0, prior_prob=0.0, mask_noise=1.0)
        changed = 0
        for i in range(6):
            a = make_study(clean, i).frontal_masks[StructureId.HEART]
            b = make_study(noisy, i).frontal_masks[StructureId.HEART]
            changed += not np.array_equal(a, b)
        assert changed > 0
