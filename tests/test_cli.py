"""CLI wiring: every subcommand end to end on a tiny dataset."""

import copy
import dataclasses
import json
import os
import re
import shutil
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from segprompt import cli
from segprompt import masks as M
from segprompt.cli import run_command
from segprompt.encoder import VitConfig
from segprompt.errors import ContractError, checked_fields
from segprompt.mllm import ModelConfig, ReportModel, TrainFile
from segprompt.nn import load_checkpoint, no_grad
from segprompt.prompting import Strategy
from segprompt.synth import SynthSpec, load_manifest, load_study, vocabulary

TINY_CONFIG = {
    "train": {"epochs": 1, "base_lr": 1e-3, "batch_size": 2, "max_steps": 2,
              "strategy": "SS", "single_view": True, "precision": "float64"},
    "model": {"encoder": {"image_size": 32, "patch_size": 16, "depth": 2, "dim": 12,
                          "heads": 2, "tap_layers": [1, 2]},
              "extractor": {"spatial_side": 8, "mlp_depth": 2},
              "lm_dim": 12, "lm_depth": 1, "lm_heads": 2, "max_seq_len": 160,
              "seed": 0},
}

SYNTH_SPEC = {"seed": 5, "n_studies": 10, "image_size": 32,
              "heart_area_threshold": 50, "lateral_prob": 0.2, "prior_prob": 0.3}


# one value of each JSON kind
JSON_KINDS = {"null": None, "bool": True, "number": 3, "string": "x", "list": [], "object": {}}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    data = root / "data"
    assert run_command(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg = root / "train.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = root / "run"
    code = run_command(["train", "--data", str(dataset), "--config", str(cfg),
                        "--out", str(out)])
    assert code == 0
    return out


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        assert run_command(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert run_command(["gen-data", "--bogus", "x"]) == 2

    def test_bad_som_style_exits_2(self, dataset, tmp_path):
        assert run_command(["render-som", "--data", str(dataset), "--out",
                            str(tmp_path / "o"), "--som-style", "none"]) == 2

    def test_missing_data_is_runtime_error(self, checkpoint, tmp_path, capsys):
        """A ``--data`` directory without ``manifest.json`` is a ContractError
        naming that path, from every command that reads a dataset; it used to
        exit with a bare "[Errno 2] No such file or directory"."""
        data = tmp_path / "nope"
        manifest = data / "manifest.json"
        with pytest.raises(ContractError, match=re.escape(f"{manifest}: file not found")):
            load_manifest(data)
        study = ["--data", str(data), "--study", "study_00000"]
        for argv in (["build-prompt"] + study, ["extract-tokens"] + study,
                     ["generate", "--ckpt", str(checkpoint)] + study,
                     ["eval", "--data", str(data), "--ckpt", str(checkpoint),
                      "--report", str(tmp_path / "report.json")],
                     ["train", "--data", str(data), "--out", str(tmp_path / "run")],
                     ["render-som", "--data", str(data), "--out", str(tmp_path / "som")]):
            assert run_command(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"{manifest}: file not found" in err, (argv, err)
            assert "Errno" not in err, (argv, err)
        assert not (tmp_path / "run").exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["build-prompt", "extract-tokens", "generate"])
    def test_unknown_study_names_manifest_and_id(self, dataset, checkpoint, capsys, command):
        """A ``--study`` id the manifest lacks is a ContractError naming the
        manifest and the id, with no traceback."""
        argv = [command, "--data", str(dataset), "--study", "study_nope"]
        if command == "generate":
            argv += ["--ckpt", str(checkpoint)]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {dataset / 'manifest.json'}: no study 'study_nope'\n" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--max-steps", "0"),
        ("train", "--max-steps", "-3"),
        ("train", "--epochs", "0"),
        ("generate", "--max-new", "-1"),
        ("generate", "--max-new", "0"),
        ("eval", "--max-new", "0"),
        ("render-som", "--uniform-value", "999"),
        ("render-som", "--uniform-value", "-1"),
        ("gen-data", "--count", "-1"),
        ("gen-data", "--seed", "-1"),
        ("train", "--seed", "-1"),
        ("eval", "--seed", "-1"),
    ])
    def test_number_out_of_range_names_flag(self, dataset, checkpoint, tmp_path, capsys,
                                            command, flag, value):
        """A numeric flag out of range is a usage error naming the flag, and
        the command writes nothing."""
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--out", str(out)],
            "train": ["train", "--data", str(dataset), "--out", str(out)],
            "generate": ["generate", "--data", str(dataset), "--ckpt", str(checkpoint),
                         "--study", "study_00000"],
            "eval": ["eval", "--data", str(dataset), "--ckpt", str(checkpoint),
                     "--report", str(out)],
            "render-som": ["render-som", "--data", str(dataset), "--out", str(out),
                           "--intensity-policy", "uniform"],
        }[command]
        assert run_command(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: must" in captured.err and value in captured.err, captured.err
        assert captured.out == "" and not out.exists()

    def test_number_in_range_accepted(self, dataset, tmp_path):
        """The bounds themselves are accepted."""
        for value in ("0", "255"):
            assert run_command(["render-som", "--data", str(dataset), "--out",
                                str(tmp_path / value), "--intensity-policy", "uniform",
                                "--uniform-value", value]) == 0


class TestConfigErrors:
    """A config with a key no dataclass field matches exits 1, and the message
    names the file and the key instead of a TypeError or a silent default."""

    @pytest.mark.parametrize("command,content,key", [
        ("gen-data", {"seedz": 1}, "seedz"),
        ("train", {"train": {"epochz": 1}}, "epochz"),
        ("train", {"model": {"lm_dimm": 8}}, "lm_dimm"),
        ("train", {"model": {"encoder": {"dimm": 8}}}, "dimm"),
        ("train", {"model": {"extractor": {"spatial": 8}}}, "spatial"),
        ("train", {"train": {"frozen": ["encoderr"]}}, "encoderr"),
        ("train", {"train": {"frozen": ["encoder"], "trainable": ["lm"]}}, "trainable"),
        ("train", {"train": {"trainable": 5}}, "trainable"),
        # optimizer values that break training: a ZeroDivisionError, a
        # checkpoint with non-finite entries, or an error naming no key
        ("train", {"train": {"batch_size": 0}}, "'batch_size'"),
        ("train", {"train": {"betas": [1.0, 0.999]}}, "'betas'"),
        ("train", {"train": {"betas": [0.9, 1.0]}}, "'betas'"),
        ("train", {"train": {"betas": [-0.1, 0.999]}}, "'betas'"),
        ("train", {"train": {"eps": 0.0}}, "'eps'"),
        ("train", {"train": {"base_lr": -1}}, "'base_lr'"),
        # schedule and decay values: a non-finite checkpoint, or the
        # schedule's error naming no key
        ("train", {"train": {"weight_decay": float("nan")}}, "'weight_decay'"),
        ("train", {"train": {"weight_decay": float("inf")}}, "'weight_decay'"),
        ("train", {"train": {"weight_decay": -0.01}}, "'weight_decay'"),
        ("train", {"train": {"warmup_ratio": 1.0}}, "'warmup_ratio'"),
        ("train", {"train": {"warmup_ratio": -0.1}}, "'warmup_ratio'"),
        ("train", {"train": {"epochs": 0}}, "'epochs'"),
        ("train", {"train": {"max_steps": 0}}, "'max_steps'"),
        ("gen-data", {"structure_probs": {"spleen": 0.5}}, "'spleen'"),
        # values that ran: a checkpoint with non-finite entries, an empty
        # dataset, unreadable 0x0 images, or probabilities outside [0, 1]
        ("train", {"train": {"base_lr": float("inf")}}, "'base_lr'"),
        ("train", {"train": {"eps": float("inf")}}, "'eps'"),
        ("gen-data", {"prior_prob": 3.0}, "'prior_prob'"),
        ("gen-data", {"mask_noise": 2.0}, "'mask_noise'"),
        ("gen-data", {"n_studies": -1}, "'n_studies'"),
        ("gen-data", {"image_size": 0}, "'image_size'"),
        ("gen-data", {"ptx_intensity_delta": float("nan")}, "'ptx_intensity_delta'"),
        ("gen-data", {"structure_probs": {"heart": 1.5}}, "'heart'"),
        # model values that failed while the model was built, naming no file
        ("train", {"model": {"lm_dim": 10, "lm_heads": 4}}, "'lm_heads'"),
        ("train", {"model": {"extractor": {"dim": 32}}}, "'dim'"),
        ("train", {"model": {"extractor": {"tap_layers": [2, 4]}}}, "'tap_layers'"),
        # a repeated tap layer, which trained an extractor with one projection for it
        ("train", {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], "encoder": {
            **TINY_CONFIG["model"]["encoder"], "tap_layers": [1, 1]}}}, "'tap_layers'"),
        # each top-level key set to each JSON kind but an object
        *(pytest.param("train", {key: value}, repr(key), id=f"{kind}-{key}")
          for key in ("train", "model") for kind, value in JSON_KINDS.items()
          if kind != "object"),
    ])
    def test_bad_key_names_file_and_key(self, dataset, tmp_path, capsys, command,
                                        content, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "out"
        if command == "gen-data":
            argv = ["gen-data", "--spec", str(path), "--out", str(out)]
        else:
            argv = ["train", "--data", str(dataset), "--config", str(path), "--out", str(out),
                    "--max-steps", "1"]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "generate"])
    def test_not_json_names_file(self, dataset, checkpoint, tmp_path, capsys, command):
        """A ``--spec``, a ``--config`` or a checkpoint's ``train_config.json``
        that is not JSON exits 1 naming the file."""
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        if command == "gen-data":
            argv = ["gen-data", "--spec", str(path), "--out", str(out)]
        elif command == "train":
            argv = ["train", "--data", str(dataset), "--config", str(path), "--out", str(out)]
        else:
            ckpt = tmp_path / "ckpt"
            shutil.copytree(checkpoint, ckpt)
            path = ckpt / "train_config.json"
            argv = ["generate", "--data", str(dataset), "--ckpt", str(ckpt),
                    "--study", "study_00000"]
        path.write_text("{not json")
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}: not valid JSON" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command,file", [
        ("gen-data", "--spec"), ("train", "--config"), ("generate", "train_config.json"),
        ("build-prompt", "manifest.json"), ("eval", "manifest.json")])
    def test_not_utf8_names_file(self, dataset, checkpoint, tmp_path, capsys, command, file):
        """A JSON file the pipeline reads that is not UTF-8 text exits 1
        naming the file; the decode error used to name none."""
        out = tmp_path / "out"
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        shutil.copytree(dataset, data)
        shutil.copytree(checkpoint, ckpt)
        study = ["--study", "study_00000"]
        path = {"--spec": tmp_path / "config.json", "--config": tmp_path / "config.json",
                "train_config.json": ckpt / "train_config.json",
                "manifest.json": data / "manifest.json"}[file]
        argv = {"gen-data": ["gen-data", "--spec", str(path), "--out", str(out)],
                "train": ["train", "--data", str(data), "--config", str(path),
                          "--out", str(out)],
                "generate": ["generate", "--data", str(data), "--ckpt", str(ckpt)] + study,
                "build-prompt": ["build-prompt", "--data", str(data), "--out", str(out)] + study,
                "eval": ["eval", "--data", str(data), "--ckpt", str(ckpt),
                         "--report", str(out)]}[command]
        path.write_bytes(b'{"studies": \xff}')
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err and "0xff" in err, err
        assert not out.exists()

    def test_unknown_top_level_keys(self, dataset, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"trian": {"epochs": 1}, "modle": {"lm_dim": 8}}))
        assert run_command(["train", "--data", str(dataset), "--config", str(path),
                            "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'trian'" in err and "'modle'" in err, err
        assert not (tmp_path / "out").exists()

    def test_malformed_manifest(self, dataset, checkpoint, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["studies"][0]["split"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert run_command(["eval", "--data", str(data), "--ckpt", str(checkpoint),
                            "--report", str(tmp_path / "report.json")]) == 1
        err = capsys.readouterr().err
        assert str(data / "manifest.json") in err and "studies[0]" in err, err
        assert "'split'" in err

    @pytest.mark.parametrize("mutate,words", [
        (lambda d: d.pop("train"), ["missing TrainEcho key(s): 'train'"]),
        (lambda d: d.pop("model"), ["missing TrainEcho key(s): 'model'"]),
        (lambda d: d.pop("vocab"), ["missing TrainEcho key(s): 'vocab'"]),
        (lambda d: d.update(train=[]), ["key 'train'", "object", "list"]),
        (lambda d: d.update(model="tiny"), ["key 'model'", "object", "str"]),
        (lambda d: d.update(vocab={"a": 1}), ["key 'vocab'", "list", "{'a': 1}"]),
        (lambda d: d.update(vocab=[1, 2]), ["key 'vocab'", "each a string", "[1, 2]"]),
        (lambda d: d["model"].update(encoder=[]), ["'encoder'", "object"]),
        (lambda d: d["train"].update(frozen=5), ["'frozen'", "list"]),
        (lambda d: d["train"].update(strategy="XX"), ["'strategy'", "'XX'"]),
        (lambda d: d["model"]["encoder"].update(image_size="32"), []),
        (lambda d: d.clear() or d.update(echo=[1]), ["unknown TrainEcho key(s): 'echo'"]),
        # each top-level key deleted, and set to each JSON kind that does not fit it
        *(pytest.param(lambda d, key=key: d.pop(key), [repr(key)], id=f"delete-{key}")
          for key in ("train", "model", "vocab")),
        *(pytest.param(lambda d, key=key, value=value: d.update({key: value}), [repr(key)],
                       id=f"{kind}-{key}")
          for key, fits in (("train", "object"), ("model", "object"), ("vocab", "list"))
          for kind, value in JSON_KINDS.items() if kind != fits),
    ])
    def test_malformed_checkpoint_config(self, dataset, checkpoint, tmp_path, capsys,
                                         mutate, words):
        """A bad ``train_config.json`` beside a checkpoint exits 1 from
        ``generate`` and ``eval``, naming the file and the key."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        path = ckpt / "train_config.json"
        echo = json.loads(path.read_text())
        mutate(echo)
        path.write_text(json.dumps(echo))
        for argv in (["generate", "--study", "study_00000"],
                     ["eval", "--report", str(tmp_path / "report.json")]):
            assert run_command(argv + ["--data", str(dataset), "--ckpt", str(ckpt)]) == 1
            err = capsys.readouterr().err
            assert str(path) in err and all(word in err for word in words), err
        assert not (tmp_path / "report.json").exists()

    def test_checkpoint_with_extractor_width_and_taps_refused(self, dataset, checkpoint,
                                                               tmp_path, capsys):
        """The extractor's width and taps are the encoder's, not keys of its
        own: a ``train_config.json`` that still carries them exits 1 naming
        the file and the keys."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        path = ckpt / "train_config.json"
        echo = json.loads(path.read_text())
        echo["model"]["extractor"].update(dim=12, tap_layers=[1, 2])
        path.write_text(json.dumps(echo))
        assert run_command(["generate", "--data", str(dataset), "--ckpt", str(ckpt),
                            "--study", "study_00000"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err, err
        assert "unknown ExtractorConfig key(s): 'dim', 'tap_layers'" in err, err

    def test_checkpoint_config_not_an_object(self, dataset, checkpoint, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        (ckpt / "train_config.json").write_text("[1, 2]")
        assert run_command(["generate", "--data", str(dataset), "--ckpt", str(ckpt),
                            "--study", "study_00000"]) == 1
        err = capsys.readouterr().err
        assert str(ckpt / "train_config.json") in err and "JSON object" in err, err

    @pytest.mark.parametrize("command,content,words", [
        ("train", {"model": {"lm_dim": 8.5}}, ["ModelConfig key 'lm_dim'", "integer", "8.5"]),
        ("train", {"model": {"encoder": {"tap_layers": 3}}},
         ["VitConfig key 'tap_layers'", "list", "got 3"]),
        ("train", {"model": {"encoder": {"image_size": "32"}}}, ["'image_size'", "integer"]),
        ("train", {"train": {"epochs": "2"}}, ["TrainConfig key 'epochs'", "integer", "'2'"]),
        ("train", {"train": {"batch_size": True}}, ["'batch_size'", "integer", "True"]),
        ("train", {"train": {"base_lr": "0.1"}}, ["'base_lr'", "number"]),
        ("train", {"train": {"betas": [0.9]}}, ["'betas'", "2 items", "number"]),
        ("train", {"train": {"frozen": ["encoder", 1]}}, ["'frozen'", "string"]),
        ("train", {"train": {"single_view": 1}}, ["'single_view'", "boolean"]),
        ("train", {"train": {"max_steps": 2.0}}, ["'max_steps'", "integer or null"]),
        ("gen-data", {"n_studies": "4"}, ["SynthSpec key 'n_studies'", "integer"]),
        ("gen-data", {"structure_probs": {"heart": "1"}}, ["'structure_probs'", "number"]),
    ])
    def test_wrong_value_type_names_file_and_key(self, dataset, tmp_path, capsys, command,
                                                 content, words):
        """A config value of the wrong type exits 1 naming the file and the
        key; it used to escape as a TypeError, fail without the key, or run."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "out"
        if command == "gen-data":
            argv = ["gen-data", "--spec", str(path), "--out", str(out)]
        else:
            argv = ["train", "--data", str(dataset), "--config", str(path), "--out", str(out)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and all(word in err for word in words), err
        assert not out.exists()

    @pytest.mark.parametrize("command,index,mutate,words", [
        ("generate", 0, lambda e: e.update(views=[]), ["'views'", "object", "got []"]),
        ("generate", 0, lambda e: e.update(context=["Fever."]), ["'context'", "object"]),
        ("eval", 9, lambda e: e.update(target_findings=None),
         ["'target_findings'", "string", "None"]),
        ("generate", 0, lambda e: e["views"].update(side_view=e["views"]["current_frontal"]),
         ["'views'", "unknown key 'side_view'"]),
    ])
    def test_malformed_manifest_field_types(self, dataset, checkpoint, tmp_path, capsys,
                                            command, index, mutate, words):
        """A manifest entry field of the wrong type exits 1 naming the file,
        the entry and the field. These escaped as an AttributeError, or (an
        unknown view) were dropped silently."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        mutate(manifest["studies"][index])
        path.write_text(json.dumps(manifest))
        argv = {"generate": ["generate", "--study", "study_00000"],
                "eval": ["eval", "--report", str(tmp_path / "report.json")]}[command]
        assert run_command(argv + ["--data", str(data), "--ckpt", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and f"studies[{index}]" in err, err
        assert all(word in err for word in words), err

    def test_unsupported_precision(self, dataset, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train": {"precision": "float16"}}))
        assert run_command(["train", "--data", str(dataset), "--config", str(path),
                            "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "unsupported dtype 'float16'" in err
        assert str(path) in err and "'precision'" in err, err


def number_paths(cls, path=()):
    """The path to each number in a ``cls`` config: every int and float
    field, the first item of a tuple of numbers and the heart's entry of a
    dict of numbers, in nested configs too."""
    for name, tp in get_type_hints(cls).items():
        origin, args = get_origin(tp), get_args(tp)
        if dataclasses.is_dataclass(tp):
            yield from number_paths(tp, path + (name,))
        elif tp in (int, float, int | None):
            yield path + (name,)
        elif origin is tuple and args[0] in (int, float):
            yield path + (name, 0)
        elif origin is dict and args[1] is float:
            yield path + (name, "heart")


def as_json(config) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config)))


# every field of the config files, the tiny model's for training
SWEEP_BASES = {
    "train": as_json(TrainFile(**checked_fields(TINY_CONFIG, TrainFile))),
    "gen-data": as_json(SynthSpec(**checked_fields(SYNTH_SPEC, SynthSpec))),
}
SWEEP_CASES = [
    pytest.param(command, path, value, id=f"{command}-{'.'.join(map(str, path))}={value}")
    for command, cls in (("train", TrainFile), ("gen-data", SynthSpec))
    for path in number_paths(cls)
    for value in (0, -1, float("nan"), float("inf"))
]


class TestNumericConfigSweep:
    @pytest.mark.parametrize("command,path,value", SWEEP_CASES)
    def test_number_is_accepted_or_names_file_and_key(self, dataset, tmp_path, capsys,
                                                      command, path, value):
        """Every number in a ``train --config`` file or a ``gen-data --spec``
        set to 0, -1, NaN or inf runs, or exits 1 naming the file and the
        key and writing nothing; nothing escapes ``run_command``."""
        config = copy.deepcopy(SWEEP_BASES[command])
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        file = tmp_path / "config.json"
        file.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {"train": ["train", "--data", str(dataset), "--config", str(file),
                          "--max-steps", "1"],
                "gen-data": ["gen-data", "--spec", str(file), "--count", "1"]}[command]
        code = run_command(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        if code == 1:
            key = [k for k in path if isinstance(k, str)][-1]
            assert str(file) in err and repr(key) in err, err
            assert not out.exists()
        elif command == "train":
            assert all(np.isfinite(a).all() for a in load_checkpoint(out / "model.ckpt").values())
        else:
            assert [load_study(r, out) for r in load_manifest(out)[1]]


def tiny_config(**model) -> dict:
    return dict(TINY_CONFIG, model=dict(TINY_CONFIG["model"], **model))


class TestSequenceTooLong:
    """``train`` checks every train-split study's prompt + target against
    ``model.max_seq_len`` before its first step, and writes nothing when one
    does not fit."""

    @pytest.fixture(scope="class")
    def longest(self, dataset):
        """The most tokens a train-split study feeds the LM under TINY_CONFIG,
        from the prompt embeddings themselves."""
        config = TrainFile(**checked_fields(TINY_CONFIG, TrainFile))
        tc = config.train
        model = ReportModel(config.model, vocabulary())
        _, records = load_manifest(dataset)
        lengths = {}
        for record in records:
            if record.split == "train":
                study = load_study(record, dataset)
                emb = model.realize(study, tc.strategy, tc.single_view)
                lengths[record.study_id] = emb.shape[0] + len(model.target_ids(study)) + 1
        return max(lengths.values()), lengths

    def train(self, dataset, tmp_path, config):
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = run_command(["train", "--data", str(dataset), "--config", str(path),
                            "--out", str(out), "--max-steps", "1"])
        return code, path, out

    def test_exact_fit_trains(self, dataset, tmp_path, longest):
        code, _, out = self.train(dataset, tmp_path, tiny_config(max_seq_len=longest[0]))
        assert code == 0 and (out / "model.ckpt").exists()

    @pytest.mark.parametrize("short", [1, 8, 40])
    def test_names_file_key_and_study(self, dataset, tmp_path, capsys, longest, short):
        max_len = longest[0] - short
        code, path, out = self.train(dataset, tmp_path, tiny_config(max_seq_len=max_len))
        assert code == 1
        err = capsys.readouterr().err
        match = re.search(r"study '(study_\d+)': prompt \((\d+)\) \+ target \((\d+)\)", err)
        assert match, err
        assert f"{path}: key 'model.max_seq_len' ({max_len}) is too short" in err, err
        study, p_len, t_len = match.group(1), int(match.group(2)), int(match.group(3))
        assert p_len + t_len == longest[1][study] > max_len
        assert "Traceback" not in err and not out.exists()

    def test_default_value_says_so(self, dataset, tmp_path, capsys, monkeypatch):
        def short_default(path, cls):
            assert path is None
            return cls(**checked_fields(tiny_config(max_seq_len=8), cls))

        monkeypatch.setattr(cli, "_read_config", short_default)
        out = tmp_path / "run"
        assert run_command(["train", "--data", str(dataset), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "default config (no --config): key 'model.max_seq_len' (8)" in err, err
        assert not out.exists()


class TestNothingToTrain:
    """A ``train.frozen`` list that leaves no parameter to train exits 1
    naming the config file and the key, and writes no output directory.
    Whether ``bridge`` exists depends on the model config: TINY_CONFIG's
    extractor and LM widths are equal, so its model has none."""

    @pytest.mark.parametrize("frozen", [
        ["encoder", "extractor", "adapter", "bridge", "lm"],
        ["encoder", "extractor", "adapter", "lm"]], ids=["all-five", "no-bridge"])
    def test_names_file_and_key(self, dataset, tmp_path, capsys, frozen):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({**TINY_CONFIG,
                                    "train": {**TINY_CONFIG["train"], "frozen": frozen}}))
        out = tmp_path / "run"
        assert run_command(["train", "--data", str(dataset), "--config", str(path),
                            "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: key 'train.frozen'" in err and "nothing to train" in err, err
        assert "Traceback" not in err and not out.exists()

    def test_bridge_left_to_train_trains(self, dataset, tmp_path):
        config = tiny_config(lm_dim=16)
        config["train"] = {**config["train"], "frozen": ["encoder", "extractor", "adapter", "lm"]}
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert run_command(["train", "--data", str(dataset), "--config", str(path),
                            "--out", str(out), "--max-steps", "1"]) == 0
        assert (out / "model.ckpt").exists()


class TestBadStudyFiles:
    """A mask file the manifest names that is missing, or that has another
    extent than its image, makes every command that reads the study exit 1
    and name the file, whatever the strategy."""

    @pytest.fixture(scope="class")
    def ns_checkpoint(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt-ns")
        cfg = root / "train.json"
        cfg.write_text(json.dumps({**TINY_CONFIG,
                                   "train": {**TINY_CONFIG["train"], "strategy": "NS"}}))
        assert run_command(["train", "--data", str(dataset), "--config", str(cfg),
                            "--out", str(root / "run")]) == 0
        return root / "run"

    @pytest.mark.parametrize("fault", ["missing", "extent"])
    def test_every_reader_names_the_file(self, dataset, checkpoint, ns_checkpoint, tmp_path,
                                         capsys, fault):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        _, records = load_manifest(data)
        record = next(r for r in records if r.split == "test")
        rel = next(iter(record.views["current_frontal"]["masks"].values()))
        if fault == "missing":
            (data / rel).unlink()
        else:
            M.write_mask(data / rel, np.ones((16, 16), dtype=bool))
        study = ["--data", str(data), "--study", record.study_id]
        for argv in (["generate", "--ckpt", str(checkpoint)] + study,
                     ["generate", "--ckpt", str(ns_checkpoint)] + study,
                     ["build-prompt", "--strategy", "NS"] + study,
                     ["eval", "--data", str(data), "--ckpt", str(ns_checkpoint),
                      "--report", str(tmp_path / "report.json")],
                     ["render-som", "--data", str(data), "--out", str(tmp_path / "som")]):
            assert run_command(argv) == 1, argv
            err = capsys.readouterr().err
            assert str(data / rel) in err, (argv, err)
            assert "Errno" not in err and "input arrays" not in err, (argv, err)

    def test_mask_path_is_a_directory(self, dataset, tmp_path, capsys):
        """A directory where the manifest names a mask: build-prompt exits 1
        with the OS error, which names the path, and no traceback. This held
        when PGMs were read through ``open``; it guards the descriptor
        reader, whose ``os.read`` error names no path of its own."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        _, records = load_manifest(data)
        rel = next(iter(records[0].views["current_frontal"]["masks"].values()))
        (data / rel).unlink()
        (data / rel).mkdir()
        assert run_command(["build-prompt", "--data", str(data),
                            "--study", records[0].study_id]) == 1
        err = capsys.readouterr().err
        assert f"[Errno 21] Is a directory: {str(data / rel)!r}" in err, err
        assert "Traceback" not in err, err


class TestMissingCheckpointFile:
    """A checkpoint directory without one of its files is a ContractError
    naming the missing path; it used to exit with a bare "[Errno 2] No such
    file or directory"."""

    @pytest.mark.parametrize("name", ["model.ckpt", "train_config.json", "both"])
    def test_generate_and_eval_name_the_path(self, dataset, checkpoint, tmp_path, capsys,
                                             name):
        ckpt = tmp_path / "ckpt"
        if name != "both":  # "both": a directory that does not exist
            shutil.copytree(checkpoint, ckpt)
            (ckpt / name).unlink()
        missing = ckpt / ("train_config.json" if name == "both" else name)
        report = tmp_path / "report.json"
        for argv in (["generate", "--study", "study_00000"], ["eval", "--report", str(report)]):
            assert run_command(argv + ["--data", str(dataset), "--ckpt", str(ckpt)]) == 1
            err = capsys.readouterr().err
            assert str(missing) in err and "not found" in err, err
            assert "Errno" not in err, err
        assert not report.exists()
        with pytest.raises(ContractError, match=re.escape(str(missing))):
            cli._load_model(ckpt)


class TestImageSizeMismatch:
    """A dataset whose images differ in size from ``model.encoder.image_size``
    is an error naming the image file, the manifest's ``spec.image_size`` and
    the model key, from every command that encodes with a configured model.
    It used to say "image 0: shape (32, 32) != configured (64, 64)", naming
    neither the file nor a key."""

    @pytest.fixture(scope="class")
    def data64(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("data64")
        spec = root / "spec.json"
        spec.write_text(json.dumps({**SYNTH_SPEC, "image_size": 64, "heart_area_threshold": 200}))
        assert run_command(["gen-data", "--spec", str(spec), "--out", str(root / "data")]) == 0
        return root / "data"

    @staticmethod
    def first_image(data, split):
        _, records = load_manifest(data)
        record = next(r for r in records if r.split == split)
        return data / record.views["current_frontal"]["image"]

    def test_train_default_config(self, dataset, tmp_path, capsys):
        assert run_command(["train", "--data", str(dataset), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(self.first_image(dataset, "train")) in err, err
        assert "'model.encoder.image_size' (64)" in err and "default config" in err, err
        assert "'spec.image_size' is 32" in err, err
        assert not (tmp_path / "o").exists()

    def test_train_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        model = copy.deepcopy(TINY_CONFIG["model"])
        model["encoder"]["image_size"] = 64
        cfg.write_text(json.dumps({**TINY_CONFIG, "model": model}))
        assert run_command(["train", "--data", str(dataset), "--config", str(cfg),
                            "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(self.first_image(dataset, "train")) in err and str(cfg) in err, err
        assert "'model.encoder.image_size' (64)" in err and "'spec.image_size' is 32" in err

    @pytest.mark.parametrize("spec", ["kept", "deleted"])
    def test_generate_and_eval(self, checkpoint, data64, tmp_path, capsys, spec):
        data = data64
        if spec == "deleted":
            data = tmp_path / "data"
            shutil.copytree(data64, data)
            manifest = json.loads((data / "manifest.json").read_text())
            del manifest["spec"]
            (data / "manifest.json").write_text(json.dumps(manifest))
        recorded = ("'spec.image_size' is 64" if spec == "kept"
                    else "the manifest has no key 'spec'")
        for argv, split in ((["generate", "--study", "study_00000"], "train"),
                            (["extract-tokens", "--study", "study_00000"], "train"),
                            (["eval", "--report", str(tmp_path / "r.json")], "test")):
            assert run_command(argv + ["--data", str(data), "--ckpt", str(checkpoint)]) == 1
            err = capsys.readouterr().err
            assert str(self.first_image(data, split)) in err, err
            assert str(checkpoint / "train_config.json") in err, err
            assert "'model.encoder.image_size' (32)" in err and recorded in err, err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("spec", ["deleted", "disagrees"])
    def test_extract_tokens_without_checkpoint(self, dataset, tmp_path, capsys, spec):
        """Without ``--ckpt`` the size comes from the manifest's ``spec``, or
        the default without one; 32-pixel images against either name the
        image file and where the size came from. It used to say "image 0:
        shape (32, 32) != configured (64, 64)"."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        if spec == "deleted":
            del manifest["spec"]
        else:
            manifest["spec"]["image_size"] = 64
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "tokens.json"
        assert run_command(["extract-tokens", "--data", str(data), "--study", "study_00000",
                            "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(self.first_image(data, "train")) in err, err
        assert "image extent (32, 32) != the image size (64) of the manifest's 'spec', " \
               "or the default without one" in err, err
        assert ("the manifest has no key 'spec'" if spec == "deleted"
                else "the manifest's key 'spec.image_size' is 64") in err, err
        assert not out.exists()


class TestManifestSpec:
    """The manifest's optional ``spec`` is read as a SynthSpec: one that does
    not fit exits 1 naming the manifest and the key, from every command that
    reads the manifest. ``extract-tokens`` without ``--ckpt`` reads its
    ``image_size``; a ``spec`` that was not an object let an AttributeError
    escape ``run_command`` there, and a string ``image_size`` a TypeError."""

    @pytest.mark.parametrize("spec,words", [
        ([], ["SynthSpec must be a JSON object"]),
        ("64", ["SynthSpec must be a JSON object"]),
        ({"image_size": "32"}, ["'image_size'", "integer", "'32'"]),
        ({"image_size": 0}, ["'image_size'", "at least 1"]),
        ({"bogus": 1}, ["unknown SynthSpec key(s): 'bogus'"]),
    ], ids=["list", "string", "string-size", "zero-size", "unknown-key"])
    def test_names_manifest_and_key(self, dataset, checkpoint, tmp_path, capsys, spec, words):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spec"] = spec
        path.write_text(json.dumps(manifest))
        study = ["--data", str(data), "--study", "study_00000"]
        for argv in (["extract-tokens"] + study,
                     ["build-prompt"] + study,
                     ["generate", "--ckpt", str(checkpoint)] + study,
                     ["eval", "--data", str(data), "--ckpt", str(checkpoint),
                      "--report", str(tmp_path / "r.json")],
                     ["render-som", "--data", str(data), "--out", str(tmp_path / "som")]):
            assert run_command(argv) == 1, argv
            err = capsys.readouterr().err
            assert str(path) in err and "key 'spec'" in err, (argv, err)
            assert all(word in err for word in words), (argv, err)


class TestParserReuse:
    def test_commands_share_no_argument_values(self, dataset, tmp_path, monkeypatch):
        """The argparse tree is built once per process; a flag given to one
        command does not reach the next one."""
        run_command(["build-prompt"])  # exit 2, but the parser now exists
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        seen = []
        build_prompt = cli.build_prompt
        seg_pairs = ReportModel.seg_pairs

        def prompt_spy(study, strategy, single_view):
            seen.append(("build-prompt", strategy, single_view))
            return build_prompt(study, strategy, single_view=single_view)

        def pairs_spy(self, study, enc, strategy, single_view=False):
            seen.append(("extract-tokens", self.cfg.seed, single_view))
            return seg_pairs(self, study, enc, strategy, single_view=single_view)

        monkeypatch.setattr(cli, "build_prompt", prompt_spy)
        monkeypatch.setattr(ReportModel, "seg_pairs", pairs_spy)
        study = ["--data", str(dataset), "--study", "study_00000", "--out",
                 str(tmp_path / "dump.json")]
        for argv in (["extract-tokens", "--single-view", "--seed", "3"],
                     ["build-prompt", "--strategy", "NS"],
                     ["build-prompt", "--single-view"],
                     ["build-prompt"],
                     ["extract-tokens"]):
            assert run_command(argv + study) == 0
        assert seen == [("extract-tokens", 3, True),
                        ("build-prompt", Strategy.NS, False),
                        ("build-prompt", Strategy.SS, True),
                        ("build-prompt", Strategy.SS, False),
                        ("extract-tokens", 0, False)]


class TestGenData:
    def test_manifest_written(self, dataset):
        manifest, records = load_manifest(dataset)
        assert len(records) == 10
        assert manifest["spec"]["seed"] == 5


class TestBuildPrompt:
    def test_dump_structure(self, dataset, tmp_path):
        out = tmp_path / "prompt.json"
        code = run_command(["build-prompt", "--data", str(dataset),
                            "--study", "study_00000", "--strategy", "SS",
                            "--out", str(out)])
        assert code == 0
        segments = json.loads(out.read_text())
        assert segments[0]["role"] == "system"
        assert any(s["type"] == "image" for s in segments)

    def test_unknown_study(self, dataset):
        assert run_command(["build-prompt", "--data", str(dataset),
                            "--study", "study_99999"]) == 1


class TestExtractTokens:
    def test_dump_pairs(self, dataset, tmp_path):
        out = tmp_path / "tokens.json"
        code = run_command(["extract-tokens", "--data", str(dataset),
                            "--study", "study_00000", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "current_frontal" in payload
        first = payload["current_frontal"][0]
        assert set(first) == {"structure", "mask_token", "spatial_token"}
        assert len(first["mask_token"]) == 64  # default extractor width

    def test_dump_builds_no_graph_and_keeps_values(self, dataset, tmp_path, monkeypatch):
        dumped = []
        seg_pairs = ReportModel.seg_pairs

        def spy(self, *args, **kwargs):
            dumped.append(seg_pairs(self, *args, **kwargs))
            return dumped[-1]

        monkeypatch.setattr(ReportModel, "seg_pairs", spy)
        out = tmp_path / "tokens.json"
        assert run_command(["extract-tokens", "--data", str(dataset), "--study",
                            "study_00000", "--seed", "3", "--out", str(out)]) == 0
        monkeypatch.undo()
        tokens = [t for view_pairs in dumped[0].values() for p in view_pairs
                  for t in (p.mask_token, p.spatial_token)]
        assert tokens
        assert all(not t.requires_grad and t._parents == () for t in tokens)

        # the same tokens computed with the graph recorded
        _, records = load_manifest(dataset)
        study = load_study(next(r for r in records if r.study_id == "study_00000"), dataset)
        model = ReportModel(ModelConfig(encoder=VitConfig(image_size=SYNTH_SPEC["image_size"]),
                                        seed=3), vocabulary())
        [enc] = model.encode_views([study])
        pairs = model.seg_pairs(study, enc, Strategy.SS)
        assert all(p.mask_token.requires_grad for view_pairs in pairs.values()
                   for p in view_pairs)
        expected = {
            view.value: [{"structure": p.structure.value,
                          "mask_token": [float(v) for v in p.mask_token.data],
                          "spatial_token": [float(v) for v in p.spatial_token.data]}
                         for p in view_pairs]
            for view, view_pairs in pairs.items()
        }
        assert json.loads(out.read_text()) == expected


    def test_checkpoint_precision_dumped(self, dataset, tmp_path):
        """With ``--ckpt`` on a float32 checkpoint the dump holds exactly the
        float32 tokens of ``seg_pairs`` under the loaded model, the tokens
        ``train`` and ``generate`` feed the LM; they used to be computed in
        float64 and differ from these by up to about 1e-7."""
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({**TINY_CONFIG,
                                   "train": {**TINY_CONFIG["train"], "precision": "float32"}}))
        ckpt, out = tmp_path / "run", tmp_path / "tokens.json"
        assert run_command(["train", "--data", str(dataset), "--config", str(cfg),
                            "--out", str(ckpt), "--max-steps", "1"]) == 0
        assert run_command(["extract-tokens", "--data", str(dataset), "--ckpt", str(ckpt),
                            "--study", "study_00000", "--out", str(out)]) == 0
        model, _ = cli._load_model(ckpt)
        _, records = load_manifest(dataset)
        study = load_study(next(r for r in records if r.study_id == "study_00000"), dataset)
        with no_grad():
            pairs = model.seg_pairs(study, model.encode_views([study])[0], Strategy.SS)
        tokens = [t.data for view_pairs in pairs.values() for p in view_pairs
                  for t in (p.mask_token, p.spatial_token)]
        assert tokens and all(t.dtype == np.float32 for t in tokens)
        expected = {
            view.value: [{"structure": p.structure.value,
                          "mask_token": p.mask_token.data.tolist(),
                          "spatial_token": p.spatial_token.data.tolist()}
                         for p in view_pairs]
            for view, view_pairs in pairs.items()
        }
        assert json.loads(out.read_text()) == expected


class TestRenderSom:
    def test_overlay_dataset(self, dataset, tmp_path):
        out = tmp_path / "som"
        code = run_command(["render-som", "--data", str(dataset), "--out", str(out),
                            "--som-style", "contours+marks"])
        assert code == 0
        manifest, records = load_manifest(out)
        assert manifest["som_style"]["contours"] is True
        entry = records[0].views["current_frontal"]
        assert "legend" in entry
        assert (out / entry["image"]).exists()
        assert not list(out.rglob("*.legend.json"))
        legend = entry["legend"]
        assert len(legend) == len(entry["masks"])

    def test_empty_mask_study_identical(self, tmp_path):
        spec = dict(SYNTH_SPEC, n_studies=2, lateral_prob=0.0, prior_prob=0.0,
                    structure_probs={"heart": 0.0})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        data = tmp_path / "data"
        som = tmp_path / "som"
        assert run_command(["gen-data", "--spec", str(spec_path),
                            "--out", str(data)]) == 0
        assert run_command(["render-som", "--data", str(data), "--out", str(som)]) == 0
        _, records = load_manifest(som)
        rel = records[0].views["current_frontal"]["image"]
        assert (data / rel).read_bytes() == (som / rel).read_bytes()

    @pytest.mark.parametrize("strategy", ["SS", "NS"])
    def test_build_prompt_lists_the_marks(self, dataset, tmp_path, strategy):
        """``build-prompt`` on an overlaid tree dumps the mark lists the model
        sees: one ``som_legend`` span per view with a legend, built from the
        manifest's legend, and otherwise the plain tree's dump."""
        som = tmp_path / "som"
        assert run_command(["render-som", "--data", str(dataset), "--out", str(som)]) == 0
        _, records = load_manifest(som)
        with_prior = [r for r in records if "prior_frontal" in r.views]
        for record in (records[0], with_prior[0]):
            dumps = {}
            for root in (dataset, som):
                out = tmp_path / f"{root.name}_{record.study_id}.json"
                assert run_command(["build-prompt", "--data", str(root), "--study",
                                    record.study_id, "--strategy", strategy,
                                    "--out", str(out)]) == 0
                dumps[root] = json.loads(out.read_text())
            expected = []
            for view in ("current_frontal", "current_lateral", "prior_frontal"):
                prefix = "prior " if view == "prior_frontal" else ""
                legend = record.views.get(view, {}).get("legend")
                if legend:
                    expected.append("\n".join(
                        f"mark {label}: {prefix}{M.STRUCTURE_NAMES[M.StructureId(s)]}"
                        for label, s, _ in legend))
            assert expected
            legend_spans = [seg for seg in dumps[som] if seg.get("role") == "som_legend"]
            assert [seg["text"] for seg in legend_spans] == expected
            assert [seg for seg in dumps[som] if seg not in legend_spans] == dumps[dataset]

    @pytest.mark.parametrize("form,kind", [("absolute", "image"), ("absolute", "mask"),
                                           ("dotdot", "image"), ("dotdot", "mask")])
    def test_path_outside_out_rejected_before_any_write(self, dataset, tmp_path, capsys,
                                                        form, kind):
        """render-som writes each file at its manifest path under --out. An
        absolute path, or one with a '..' part, reads the source file but
        would write outside --out, an absolute one over the source file
        itself; render-som exits 1 naming the manifest, the study and the
        path, and writes nothing."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        study = manifest["studies"][-1]  # the last, so a late check shows
        entry = study["views"]["current_frontal"]
        rel = entry["image"] if kind == "image" else next(iter(entry["masks"].values()))
        bad = str(data / rel) if form == "absolute" else f"../{data.name}/{rel}"
        if kind == "image":
            entry["image"] = bad
        else:
            entry["masks"] = {s: bad if r == rel else r for s, r in entry["masks"].items()}
        (data / "manifest.json").write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in data.rglob("*") if p.is_file()}
        som = tmp_path / "som"
        assert run_command(["render-som", "--data", str(data), "--out", str(som)]) == 1
        err = capsys.readouterr().err
        for name in (str(data / "manifest.json"), repr(study["study_id"]), repr(bad)):
            assert name in err, (name, err)
        assert not som.exists()
        assert {p: p.read_bytes() for p in data.rglob("*") if p.is_file()} == before

    def test_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(["render-som", "--data", str(dataset),
                                "--out", str(out)]) == 0
        rel = load_manifest(a)[1][0].views["current_frontal"]["image"]
        assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_gen_data_masks_byte_identical(self, dataset, tmp_path):
        som = tmp_path / "som"
        assert run_command(["render-som", "--data", str(dataset), "--out", str(som)]) == 0
        paths = sorted(p.relative_to(dataset) for p in (dataset / "masks").iterdir())
        assert paths
        assert sorted(p.relative_to(som) for p in (som / "masks").iterdir()) == paths
        for rel in paths:
            assert (som / rel).read_bytes() == (dataset / rel).read_bytes(), rel

    def test_non_canonical_mask_written_canonically(self, dataset, tmp_path):
        """A hand-made mask with foreground byte 1 and a header comment reads
        as the same mask, and render-som writes it as gen-data would."""
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        _, records = load_manifest(data)
        rel = next(iter(records[0].views["current_frontal"]["masks"].values()))
        m = M.read_mask(data / rel)
        h, w = m.shape
        (data / rel).write_bytes(b"P5\n# hand-made\n%d %d\n255\n" % (w, h)
                                 + m.astype(np.uint8).tobytes())
        assert np.array_equal(M.read_mask(data / rel), m)
        som = tmp_path / "som"
        assert run_command(["render-som", "--data", str(data), "--out", str(som)]) == 0
        assert (som / rel).read_bytes() == (dataset / rel).read_bytes()
        assert (som / rel).read_bytes() == (b"P5\n%d %d\n255\n" % (w, h)
                                            + (m.astype(np.uint8) * 255).tobytes())
        assert np.array_equal(M.read_mask(som / rel), m)


class TestTrainGenerateEval:
    def test_artifacts(self, checkpoint):
        assert (checkpoint / "model.ckpt").exists()
        assert (checkpoint / "train_config.json").exists()
        assert (checkpoint / "loss_curve.csv").exists()

    def test_generate_prints_text(self, dataset, checkpoint, capsys):
        code = run_command(["generate", "--data", str(dataset), "--ckpt",
                            str(checkpoint), "--study", "study_00000",
                            "--max-new", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert isinstance(out, str)

    @pytest.mark.parametrize("key,value", [("trainable", ["extractor", "adapter", "bridge", "lm"]),
                                           ("epochz", 1)], ids=["trainable", "epochz"])
    def test_echo_with_unknown_key_names_file(self, dataset, checkpoint, tmp_path, capsys,
                                              key, value):
        """An echo with a key ``TrainConfig`` lacks exits 1 and names the echo
        file and the key; ``trainable``, which echoes written before ``frozen``
        became the one freezing option carried, is no exception."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        echo_path = ckpt / "train_config.json"
        echo = json.loads(echo_path.read_text())
        echo["train"][key] = value
        echo_path.write_text(json.dumps(echo))
        assert run_command(["generate", "--data", str(dataset), "--study", "study_00000",
                            "--max-new", "6", "--ckpt", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(echo_path) in err and repr(key) in err, err

    def test_eval_report(self, dataset, checkpoint, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_command(["eval", "--data", str(dataset), "--ckpt", str(checkpoint),
                            "--report", str(report_path), "--split", "test",
                            "--max-new", "8"])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 1
        for key in ("bleu4", "rouge_l", "macro_f1_mr", "micro_f1_mr"):
            entry = report["metrics"][key]
            assert set(entry) == {"median", "ci_low", "ci_high"}
        assert report["conventions"]["bleu"]["smoothing"] == "none"

    def test_eval_report_to_dev_null(self, dataset, checkpoint):
        """A report path that is no regular file is written and not cut."""
        assert run_command(["eval", "--data", str(dataset), "--ckpt", str(checkpoint),
                            "--report", os.devnull, "--split", "test",
                            "--max-new", "4"]) == 0


    def test_eval_report_lists_each_study_as_generate_decodes_it(
            self, dataset, checkpoint, tmp_path, capsys):
        """The split decodes in lockstep; each study's hypothesis is what the
        one-study ``generate`` command prints for it."""
        report_path = tmp_path / "report.json"
        assert run_command(["eval", "--data", str(dataset), "--ckpt", str(checkpoint),
                            "--report", str(report_path), "--split", "train",
                            "--max-new", "8"]) == 0
        report = json.loads(report_path.read_text())
        _, records = load_manifest(dataset)
        train = [r for r in records if r.split == "train"]
        assert report["n"] == len(train) > 1
        assert [s["id"] for s in report["studies"]] == [r.study_id for r in train]
        assert set(report["metrics"]) == {"bleu4", "rouge_l", "macro_f1_mr", "micro_f1_mr"}
        tok = cli._load_model(checkpoint)[0].tokenizer
        capsys.readouterr()
        for record, entry in zip(train, report["studies"]):
            assert set(entry) == {"id", "hypothesis", "reference"}
            assert entry["reference"] == tok.detokenize(tok.encode(record.target_findings))
            assert run_command(["generate", "--data", str(dataset), "--ckpt",
                                str(checkpoint), "--study", record.study_id,
                                "--max-new", "8"]) == 0
            assert capsys.readouterr().out == entry["hypothesis"] + "\n"


PIN_SPEC = dict(SYNTH_SPEC, seed=3, n_studies=6)
PIN_CONFIG = {"train": dict(TINY_CONFIG["train"], base_lr=0.0, max_steps=1),
              "model": TINY_CONFIG["model"]}
# The eval report's metrics block as written before the bootstrap was
# vectorized (seed-3 six-study dataset, one lr-0 step, train split).
PINNED_EVAL_METRICS = {
    "bleu4": {"ci_high": 0.0, "ci_low": 0.0, "median": 0.0},
    "macro_f1_mr": {"ci_high": 0.36190909090909085, "ci_low": 0.16,
                    "median": 0.28181818181818186},
    "micro_f1_mr": {"ci_high": 0.6666666666666666, "ci_low": 0.2857142857142857,
                    "median": 0.4827586206896552},
    "rouge_l": {"ci_high": 8.747348237597912, "ci_low": 3.105906313645621,
                "median": 6.702604426853169},
}


def test_eval_report_metrics_pinned(tmp_path):
    """End to end, decoding through the bootstraps, the metrics block is
    exactly what it was."""
    (tmp_path / "spec.json").write_text(json.dumps(PIN_SPEC))
    (tmp_path / "train.json").write_text(json.dumps(PIN_CONFIG))
    data, run, report = tmp_path / "data", tmp_path / "run", tmp_path / "report.json"
    assert run_command(["gen-data", "--spec", str(tmp_path / "spec.json"),
                        "--out", str(data)]) == 0
    assert run_command(["train", "--data", str(data), "--config",
                        str(tmp_path / "train.json"), "--out", str(run)]) == 0
    assert run_command(["eval", "--data", str(data), "--ckpt", str(run), "--report",
                        str(report), "--split", "train", "--max-new", "8"]) == 0
    payload = json.loads(report.read_text())
    assert payload["n"] == 6
    assert payload["metrics"] == PINNED_EVAL_METRICS
