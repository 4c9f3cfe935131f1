"""Command-line pipeline: gen-data, render-som, extract-tokens, build-prompt,
train, generate, eval.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from segprompt import metrics, synth
from segprompt.encoder import VitConfig
from segprompt.errors import ContractError, json_field
from segprompt.masks import write_image
from segprompt.mllm import ModelConfig, ReportModel, TrainConfig, train
from segprompt.nn import load_into, no_grad, precision
from segprompt.prompting import Strategy, build_prompt, prompt_dumps
from segprompt.som import MarkStyle, render_overlay
from segprompt.synth import (
    SynthSpec,
    findings_to_labels,
    generate_dataset,
    load_manifest,
    load_study,
    read_view,
    vocabulary,
)


def log(message: str) -> None:
    print(f"[segprompt] {message}", file=sys.stderr)


def _read_config(path: str | Path | None, parse):
    """``parse`` the JSON object in ``path`` (``{}`` without a path); a
    ContractError it raises names the file, and so does a TypeError, which
    a value of the wrong type gives deeper down."""
    data = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    try:
        return parse(data)
    except (ContractError, TypeError) as exc:
        raise ContractError(f"{path}: {exc}") from exc


def _load_synth_spec(path: str | None, seed: int | None, count: int | None) -> SynthSpec:
    spec = _read_config(path, SynthSpec.from_dict)
    if seed is not None:
        spec.seed = seed
    if count is not None:
        spec.n_studies = count
    return spec


def _parse_train_config(d: dict) -> tuple[TrainConfig, ModelConfig]:
    train, model = (json_field(d, key, dict, required=False) for key in ("train", "model"))
    unknown = sorted(set(d) - {"train", "model"})
    if unknown:
        raise ContractError(f"unknown top-level key(s): {', '.join(map(repr, unknown))}; "
                            "expected 'train' and 'model'")
    return TrainConfig.from_dict(train), ModelConfig.from_dict(model)


def _load_train_config(path: str | None) -> tuple[TrainConfig, ModelConfig]:
    return _read_config(path, _parse_train_config)


def _parse_echo(d: dict) -> tuple[TrainConfig, ModelConfig, list[str]]:
    """The ``train_config.json`` that ``train`` writes: both configs and the vocabulary."""
    train, model, vocab = (json_field(d, key, kind) for key, kind in
                           (("train", dict), ("model", dict), ("vocab", list)))
    if not all(isinstance(word, str) for word in vocab):
        raise ContractError("key 'vocab' must be a list of strings")
    return TrainConfig.from_dict(train), ModelConfig.from_dict(model), vocab


def _load_model(ckpt_dir: str | Path) -> tuple[ReportModel, TrainConfig]:
    ckpt_dir = Path(ckpt_dir)
    tc, model_cfg, vocab = _read_config(ckpt_dir / "train_config.json", _parse_echo)
    with precision(tc.precision):
        model = ReportModel(model_cfg, vocab, init=False)
        load_into(ckpt_dir / "model.ckpt", model.named_params())
    return model, tc


def _studies_for_split(data_dir: str | Path, split: str | None):
    _, records = load_manifest(data_dir)
    if split:
        records = [r for r in records if r.split == split]
    return [(r, load_study(r, data_dir)) for r in records]


def _find_record(data_dir: str | Path, study_id: str):
    _, records = load_manifest(data_dir)
    for record in records:
        if record.study_id == study_id:
            return record
    raise KeyError(f"study {study_id!r} not found in {data_dir}")


# -- subcommands -----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed, args.count)
    records = generate_dataset(spec, args.out)
    log(f"wrote {len(records)} studies to {args.out}")
    return 0


def _style_from_args(args) -> MarkStyle:
    contours = "contours" in args.som_style
    marks = "marks" in args.som_style
    return MarkStyle(contours=contours, alphanumerics=marks,
                     policy=args.intensity_policy, uniform_value=args.uniform_value)


def cmd_render_som(args) -> int:
    style = _style_from_args(args)
    manifest, records = load_manifest(args.data)
    src = Path(args.data)
    dst = Path(args.out)
    (dst / "images").mkdir(parents=True, exist_ok=True)
    (dst / "masks").mkdir(parents=True, exist_ok=True)
    out_records = []
    for record in records:
        new_views = {}
        for view_name, entry in record.views.items():
            image, masks, _ = read_view(src, entry)
            overlay = render_overlay(image, masks, style)
            write_image(dst / entry["image"], overlay.image)
            legend = [[label, s.value, value] for label, s, value in overlay.legend]
            legend_rel = entry["image"].replace(".pgm", ".legend.json")
            with open(dst / legend_rel, "w", encoding="utf-8") as fh:
                json.dump(legend, fh, indent=2)
                fh.write("\n")
            for rel in entry["masks"].values():
                shutil.copyfile(src / rel, dst / rel)
            new_views[view_name] = {"image": entry["image"], "masks": entry["masks"],
                                    "legend": legend}
        rec = asdict(record)
        rec["views"] = new_views
        out_records.append(rec)
    out_manifest = dict(manifest)
    out_manifest["studies"] = out_records
    out_manifest["som_style"] = {"contours": style.contours,
                                 "alphanumerics": style.alphanumerics,
                                 "policy": style.policy,
                                 "uniform_value": style.uniform_value}
    with open(dst / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(out_manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"rendered {len(out_records)} studies to {dst}")
    return 0


def cmd_build_prompt(args) -> int:
    record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    prompt = build_prompt(study, Strategy(args.strategy), single_view=args.single_view)
    dump = prompt_dumps(prompt)
    if args.out:
        Path(args.out).write_text(dump, encoding="utf-8")
    else:
        sys.stdout.write(dump)
    return 0


def cmd_extract_tokens(args) -> int:
    record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    if args.ckpt:
        model, _ = _load_model(args.ckpt)
    else:
        manifest, _ = load_manifest(args.data)
        size = manifest.get("spec", {}).get("image_size", 64)
        cfg = ModelConfig(encoder=VitConfig(image_size=size), seed=args.seed)
        model = ReportModel(cfg, vocabulary())
    with no_grad():
        [enc] = model.encode_views([study], single_view=args.single_view)
        pairs = model.seg_pairs(study, enc, Strategy.SS, single_view=args.single_view)
    payload = {
        view.value: [
            {"structure": p.structure.value,
             "mask_token": [float(v) for v in p.mask_token.data],
             "spatial_token": [float(v) for v in p.spatial_token.data]}
            for p in view_pairs
        ]
        for view, view_pairs in pairs.items()
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_train(args) -> int:
    tc, model_cfg = _load_train_config(args.config)
    if args.strategy:
        tc.strategy = Strategy(args.strategy)
    if args.seed is not None:
        tc.seed = args.seed
        model_cfg.seed = args.seed
    if args.single_view:
        tc.single_view = True
    if args.epochs is not None:
        tc.epochs = args.epochs
    if args.max_steps is not None:
        tc.max_steps = args.max_steps
    studies = [study for _, study in _studies_for_split(args.data, "train")]
    if not studies:
        log("no train-split studies found")
        return 1
    with precision(tc.precision):
        model = ReportModel(model_cfg, vocabulary())
        result = train(model, studies, tc, out_dir=args.out)
    log(f"trained {result.total_steps} steps; final mean loss {result.final_loss:.4f}")
    return 0


def cmd_generate(args) -> int:
    model, tc = _load_model(args.ckpt)
    record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    with precision(tc.precision):
        [ids] = model.generate_reports([study], tc.strategy, tc.single_view,
                                       max_new=args.max_new)
    print(model.tokenizer.detokenize(ids))
    return 0


def cmd_eval(args) -> int:
    model, tc = _load_model(args.ckpt)
    pairs = _studies_for_split(args.data, args.split)
    if not pairs:
        log(f"no studies in split {args.split!r}")
        return 1
    tok = model.tokenizer
    bleu_scores, rouge_scores = [], []
    pred_labels, gt_labels = [], []
    studies = []
    with precision(tc.precision):
        reports = model.generate_reports([study for _, study in pairs], tc.strategy,
                                         tc.single_view, max_new=args.max_new)
        for (record, _), ids in zip(pairs, reports):
            hyp = tok.decode(ids)
            ref_ids = tok.encode(record.target_findings)
            ref = tok.decode(ref_ids)
            bleu_scores.append(metrics.bleu(hyp, ref, n=4))
            rouge_scores.append(metrics.rouge_l(hyp, ref))
            pred_labels.append(findings_to_labels(" ".join(hyp)))
            gt_labels.append(findings_to_labels(record.target_findings))
            studies.append({"id": record.study_id, "hypothesis": tok.detokenize(ids),
                            "reference": tok.detokenize(ref_ids)})
    spec = metrics.BootstrapSpec()
    label_pairs = np.stack([np.stack(pred_labels), np.stack(gt_labels)], axis=1)

    def f1_stat(which: int):
        # rows: a (samples, n, 2, findings) stack of predicted and true labels
        return lambda rows: metrics.macro_micro_f1(rows[..., 0, :], rows[..., 1, :])[which]

    report = {
        "n": len(pairs),
        "split": args.split,
        "strategy": tc.strategy.value,
        "metrics": {},
        "conventions": metrics.metric_conventions(),
        "studies": studies,
    }
    for name, values in (("bleu4", bleu_scores), ("rouge_l", rouge_scores)):
        center, low, high = metrics.bootstrap_ci(values, spec, seed=args.seed)
        report["metrics"][name] = {"median": center, "ci_low": low, "ci_high": high}
    for name, which in (("macro_f1_mr", 0), ("micro_f1_mr", 1)):
        center, low, high = metrics.bootstrap_ci_fn(label_pairs, f1_stat(which), spec,
                                                    seed=args.seed)
        report["metrics"][name] = {"median": center, "ci_low": low, "ci_high": high}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(args.report).write_text(text, encoding="utf-8")
    log(f"wrote metrics report to {args.report}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segprompt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", help="SynthSpec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("render-som", help="overlay set-of-marks on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--som-style", default="contours+marks",
                   choices=["contours+marks", "contours", "marks"])
    p.add_argument("--intensity-policy", default="contrast_max",
                   choices=["alternating", "contrast_max", "uniform"])
    p.add_argument("--uniform-value", type=int, default=128)
    p.set_defaults(fn=cmd_render_som)

    p = sub.add_parser("build-prompt", help="dump a study prompt as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--study", required=True)
    p.add_argument("--strategy", default="SS", choices=[s.value for s in Strategy])
    p.add_argument("--single-view", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build_prompt)

    p = sub.add_parser("extract-tokens", help="dump segmentation token pairs as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--study", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-view", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extract_tokens)

    p = sub.add_parser("train", help="train on the train split")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="train/model config JSON")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--single-view", action="store_true")
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="greedy-decode one study's report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--study", required=True)
    p.add_argument("--max-new", type=int, default=48)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--max-new", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)
    return parser


# Built on the first command, then reused: parse_args keeps no state between
# calls, and each call fills a fresh namespace.
_parser = functools.cache(build_parser)


def run_command(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        log(f"error: {exc}")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
