"""Command-line pipeline: gen-data, render-som, extract-tokens, build-prompt,
train, generate, eval.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from segprompt import metrics
from segprompt.encoder import VitConfig
from segprompt.errors import ContractError, checked_fields, read_json, write_file, write_json
from segprompt.masks import write_image, write_mask
from segprompt.mllm import (
    ModelConfig,
    ReportModel,
    TrainConfig,
    TrainConfigError,
    TrainEcho,
    TrainFile,
    train,
)
from segprompt.nn import load_into, no_grad
from segprompt.prompting import Strategy, build_prompt, prompt_dumps
from segprompt.som import MarkStyle, render_overlay
from segprompt.synth import (
    Split,
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


def _read_config(path: str | Path | None, cls):
    """The JSON object in ``path`` (``{}`` without a path), read by read_json,
    checked and read as a ``cls`` by checked_fields; a ContractError or a
    TypeError that checked_fields or ``cls`` raises becomes one naming the
    file."""
    data = read_json(path) if path else {}
    try:
        return cls(**checked_fields(data, cls))
    except (ContractError, TypeError) as exc:
        raise ContractError(f"{path}: {exc}") from exc


def _load_synth_spec(path: str | None, seed: int | None, count: int | None) -> SynthSpec:
    spec = _read_config(path, SynthSpec)
    if seed is not None:
        spec.seed = seed
    if count is not None:
        spec.n_studies = count
    return spec


def _load_model(ckpt_dir: str | Path) -> tuple[ReportModel, TrainConfig]:
    ckpt_dir = Path(ckpt_dir)
    echo = _read_config(ckpt_dir / "train_config.json", TrainEcho)
    model = ReportModel(echo.model, echo.vocab, init=False, dtype=echo.train.precision)
    load_into(ckpt_dir / "model.ckpt", model.named_params())
    return model, echo.train


def _studies_for_split(data_dir: str | Path, split: str | None):
    manifest, records = load_manifest(data_dir)
    if split:
        records = [r for r in records if r.split == split]
    return manifest, [(r, load_study(r, data_dir)) for r in records]


def _find_record(data_dir: str | Path, study_id: str):
    manifest, records = load_manifest(data_dir)
    for record in records:
        if record.study_id == study_id:
            return manifest, record
    raise ContractError(f"{Path(data_dir) / 'manifest.json'}: no study {study_id!r}")


def _check_image_size(data_dir: str | Path, manifest: dict, pairs, size: int,
                      single_view: bool, model_file: str | Path | None) -> None:
    """Every image the model encodes must be ``size`` square: the key
    ``model.encoder.image_size`` of ``model_file``, or without a model file
    the manifest's ``spec.image_size`` (the default without a ``spec``). A
    ContractError names the first image that is not, where ``size`` came
    from, and the size the manifest's ``spec`` records."""
    for record, study in pairs:
        for view, image, _ in study.views(single_view):
            if image.shape != (size, size):
                spec = manifest.get("spec")
                recorded = ("the manifest has no key 'spec'" if spec is None else
                            f"the manifest's key 'spec.image_size' is "
                            f"{spec.get('image_size', SynthSpec.image_size)}")
                wanted = (f"key 'model.encoder.image_size' ({size}) of {model_file}"
                          if model_file else f"the image size ({size}) of the manifest's "
                          f"'spec', or the default without one")
                raise ContractError(
                    f"{Path(data_dir) / record.views[view]['image']}: image extent "
                    f"{image.shape} != {wanted}; {recorded}")


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


def _check_under_out(data_dir: str | Path, records) -> None:
    """render-som writes each file the manifest names at the same path under
    ``--out``; an absolute path, or one with a ``..`` part, would land outside
    it (an absolute one on the source file itself). A ContractError names the
    manifest, the study and the path."""
    for record in records:
        for entry in record.views.values():
            for rel in (entry["image"], *entry["masks"].values()):
                if os.path.isabs(rel) or ".." in rel.split("/"):
                    raise ContractError(
                        f"{Path(data_dir) / 'manifest.json'}: study {record.study_id!r}: "
                        f"path {rel!r} is absolute or has a '..' part, so render-som "
                        f"cannot write it under --out")


def cmd_render_som(args) -> int:
    style = _style_from_args(args)
    manifest, records = load_manifest(args.data)
    _check_under_out(args.data, records)
    src = Path(args.data)
    dst = Path(args.out)
    (dst / "images").mkdir(parents=True, exist_ok=True)
    (dst / "masks").mkdir(parents=True, exist_ok=True)
    # written last, so an interrupted rerun leaves no manifest
    (dst / "manifest.json").unlink(missing_ok=True)
    for record in records:
        for entry in record.views.values():
            image, masks, _ = read_view(src, entry)
            overlay = render_overlay(image, masks, style)
            write_image(dst / entry["image"], overlay.image)
            for structure, rel in entry["masks"].items():
                write_mask(dst / rel, masks[structure])
            entry["legend"] = tuple(overlay.legend)
    write_json(dst / "manifest.json", dict(manifest, studies=[asdict(r) for r in records],
                                           som_style=asdict(style)))
    log(f"rendered {len(records)} studies to {dst}")
    return 0


def cmd_build_prompt(args) -> int:
    _, record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    prompt = build_prompt(study, Strategy(args.strategy), single_view=args.single_view)
    dump = prompt_dumps(prompt)
    if args.out:
        write_file(args.out, dump.encode("utf-8"))
    else:
        sys.stdout.write(dump)
    return 0


def cmd_extract_tokens(args) -> int:
    manifest, record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    if args.ckpt:
        model, _ = _load_model(args.ckpt)
        model_file = Path(args.ckpt) / "train_config.json"
    else:
        size = manifest.get("spec", {}).get("image_size", SynthSpec.image_size)
        cfg = ModelConfig(encoder=VitConfig(image_size=size), seed=args.seed)
        model, model_file = ReportModel(cfg, vocabulary()), None
    _check_image_size(args.data, manifest, [(record, study)], model.cfg.encoder.image_size,
                      args.single_view, model_file)
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
        write_file(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def cmd_train(args) -> int:
    config = _read_config(args.config, TrainFile)
    tc, model_cfg = config.train, config.model
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
    manifest, pairs = _studies_for_split(args.data, "train")
    if not pairs:
        log("no train-split studies found")
        return 1
    _check_image_size(args.data, manifest, pairs, model_cfg.encoder.image_size,
                      tc.single_view, args.config or "the default config (no --config)")
    studies = [study for _, study in pairs]
    model = ReportModel(model_cfg, vocabulary(), dtype=tc.precision)
    try:
        result = train(model, studies, tc, out_dir=args.out)
    except TrainConfigError as exc:
        raise ContractError(f"{args.config or 'default config (no --config)'}: "
                            f"{exc}") from exc
    log(f"trained {result.total_steps} steps; final mean loss {result.final_loss:.4f}")
    return 0


def cmd_generate(args) -> int:
    model, tc = _load_model(args.ckpt)
    manifest, record = _find_record(args.data, args.study)
    study = load_study(record, args.data)
    _check_image_size(args.data, manifest, [(record, study)], model.cfg.encoder.image_size,
                      tc.single_view, Path(args.ckpt) / "train_config.json")
    [ids] = model.generate_reports([study], tc.strategy, tc.single_view, max_new=args.max_new)
    print(model.tokenizer.detokenize(ids))
    return 0


def cmd_eval(args) -> int:
    model, tc = _load_model(args.ckpt)
    manifest, pairs = _studies_for_split(args.data, args.split)
    if not pairs:
        log(f"no studies in split {args.split!r}")
        return 1
    _check_image_size(args.data, manifest, pairs, model.cfg.encoder.image_size,
                      tc.single_view, Path(args.ckpt) / "train_config.json")
    tok = model.tokenizer
    bleu_scores, rouge_scores = [], []
    pred_labels, gt_labels = [], []
    studies = []
    reports = model.generate_reports([study for _, study in pairs], tc.strategy,
                                     tc.single_view, max_new=args.max_new)
    for (record, _), ids in zip(pairs, reports):
        hyp = tok.decode(ids)
        ref_ids = tok.encode(record.target_findings)
        ref = tok.decode(ref_ids)
        bleu_scores.append(metrics.bleu(hyp, ref))
        rouge_scores.append(metrics.rouge_l(hyp, ref))
        pred_labels.append(findings_to_labels(" ".join(hyp)))
        gt_labels.append(findings_to_labels(record.target_findings))
        studies.append({"id": record.study_id, "hypothesis": tok.detokenize(ids),
                        "reference": tok.detokenize(ref_ids)})
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
        center, low, high = metrics.bootstrap_ci(values, seed=args.seed)
        report["metrics"][name] = {"median": center, "ci_low": low, "ci_high": high}
    for name, which in (("macro_f1_mr", 0), ("micro_f1_mr", 1)):
        center, low, high = metrics.bootstrap_ci_fn(label_pairs, f1_stat(which),
                                                    seed=args.seed)
        report["metrics"][name] = {"median": center, "ci_low": low, "ci_high": high}
    write_json(args.report, report)
    log(f"wrote metrics report to {args.report}")
    return 0


# -- parser ----------------------------------------------------------------------


def _int_in(low: int, high: int | None = None):
    """An argparse ``type``: an int in [low, high] (no upper bound without
    ``high``). A value outside is argparse's usage error, naming the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"lie in [{low}, {high}]" if high is not None else f"be at least {low}"
            raise argparse.ArgumentTypeError(f"must {bound}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="segprompt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", help="SynthSpec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_in(0))
    p.add_argument("--count", type=_int_in(0))
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("render-som", help="overlay set-of-marks on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--som-style", default="contours+marks",
                   choices=["contours+marks", "contours", "marks"])
    p.add_argument("--intensity-policy", default="contrast_max",
                   choices=["alternating", "contrast_max", "uniform"])
    p.add_argument("--uniform-value", type=_int_in(0, 255), default=128)
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
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--single-view", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extract_tokens)

    p = sub.add_parser("train", help="train on the train split")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="train/model config JSON")
    p.add_argument("--strategy", choices=[s.value for s in Strategy])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_in(0))
    p.add_argument("--single-view", action="store_true")
    p.add_argument("--epochs", type=_int_in(1))
    p.add_argument("--max-steps", type=_int_in(1))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="greedy-decode one study's report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--study", required=True)
    p.add_argument("--max-new", type=_int_in(1), default=48)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--split", default="test", choices=[s.value for s in Split])
    p.add_argument("--max-new", type=_int_in(1), default=48)
    p.add_argument("--seed", type=_int_in(0), default=0)
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
