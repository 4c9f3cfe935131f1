"""CLI wiring: every subcommand end to end on a tiny dataset."""

import json
import shutil

import numpy as np
import pytest

from segprompt import cli
from segprompt import masks as M
from segprompt.cli import run_command
from segprompt.encoder import VitConfig
from segprompt.mllm import ModelConfig, ReportModel
from segprompt.prompting import Strategy
from segprompt.synth import load_manifest, load_study, vocabulary

TINY_CONFIG = {
    "train": {"epochs": 1, "base_lr": 1e-3, "batch_size": 2, "max_steps": 2,
              "strategy": "SS", "single_view": True, "precision": "float64"},
    "model": {"encoder": {"image_size": 32, "patch_size": 16, "depth": 2, "dim": 12,
                          "heads": 2, "tap_layers": [1, 2]},
              "extractor": {"dim": 12, "tap_layers": [1, 2], "spatial_side": 8,
                            "mlp_depth": 2},
              "lm_dim": 12, "lm_depth": 1, "lm_heads": 2, "max_seq_len": 160,
              "seed": 0},
}

SYNTH_SPEC = {"seed": 5, "n_studies": 10, "image_size": 32,
              "heart_area_threshold": 50, "lateral_prob": 0.2, "prior_prob": 0.3}


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

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert run_command(["build-prompt", "--data", str(tmp_path / "nope"),
                            "--study", "study_00000"]) == 1


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
    ])
    def test_bad_key_names_file_and_key(self, dataset, tmp_path, capsys, command,
                                        content, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content))
        out = str(tmp_path / "out")
        if command == "gen-data":
            argv = ["gen-data", "--spec", str(path), "--out", out]
        else:
            argv = ["train", "--data", str(dataset), "--config", str(path), "--out", out]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and key in err, err

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
        (lambda d: d.pop("train"), ["missing key 'train'"]),
        (lambda d: d.pop("model"), ["missing key 'model'"]),
        (lambda d: d.pop("vocab"), ["missing key 'vocab'"]),
        (lambda d: d.update(train=[]), ["key 'train'", "object", "list"]),
        (lambda d: d.update(model="tiny"), ["key 'model'", "object", "str"]),
        (lambda d: d.update(vocab={"a": 1}), ["key 'vocab'", "list", "dict"]),
        (lambda d: d.update(vocab=[1, 2]), ["key 'vocab'", "strings"]),
        (lambda d: d["model"].update(encoder=[]), ["'encoder'", "object"]),
        (lambda d: d["train"].update(frozen=5), ["'frozen'", "list"]),
        (lambda d: d["train"].update(strategy="XX"), ["'strategy'", "'XX'"]),
        (lambda d: d["model"]["encoder"].update(image_size="32"), []),
        (lambda d: d.clear() or d.update(echo=[1]), ["missing key 'train'"]),
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
        ("train", {"model": {"extractor": {"tap_layers": [1, "2"]}}},
         ["ExtractorConfig key 'tap_layers'", "integer"]),
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
         ["'views'['side_view']", "unknown view"]),
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
        assert (out / entry["image"].replace(".pgm", ".legend.json")).exists()
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

    def test_deterministic(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(["render-som", "--data", str(dataset),
                                "--out", str(out)]) == 0
        rel = load_manifest(a)[1][0].views["current_frontal"]["image"]
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


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
