"""Output files: ``errors.write_file``, the one writer, which overwrites in
place and cuts to length, and ``errors.read_file``, the one reader of PGMs,
both on the raw descriptor; reruns into an existing tree that equal fresh
runs byte for byte; and interrupted reruns that readers reject, because the
file they read first is removed before the first write and written last."""

import errno
import json
import os
import stat
import threading

import numpy as np
import pytest

from helpers import open_fds
from segprompt import errors, masks, mllm
from segprompt.cli import run_command
from segprompt.errors import read_file, write_file

TINY_CONFIG = {
    "train": {"epochs": 1, "base_lr": 1e-3, "batch_size": 2, "max_steps": 2,
              "strategy": "SS", "single_view": True, "precision": "float64"},
    "model": {"encoder": {"image_size": 32, "patch_size": 16, "depth": 2, "dim": 12,
                          "heads": 2, "tap_layers": [1, 2]},
              "extractor": {"spatial_side": 8, "mlp_depth": 2},
              "lm_dim": 12, "lm_depth": 1, "lm_heads": 2, "max_seq_len": 160,
              "seed": 0},
}
SPEC = {"n_studies": 8, "image_size": 32, "heart_area_threshold": 50,
        "lateral_prob": 0.3, "prior_prob": 0.4}
CKPT_FILES = ("model.ckpt", "loss_curve.csv", "train_config.json")


def gen_data(root, out, seed: int) -> int:
    spec = root / f"spec{seed}.json"
    spec.write_text(json.dumps(dict(SPEC, seed=seed)))
    return run_command(["gen-data", "--spec", str(spec), "--out", str(out)])


def train(root, data, out, *flags: str) -> int:
    cfg = root / "train.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    return run_command(["train", "--data", str(data), "--config", str(cfg),
                        "--out", str(out), *flags])


def tree_files(root) -> dict[str, bytes]:
    """The manifest and every file it names, by path relative to ``root``."""
    manifest = json.loads((root / "manifest.json").read_text())
    names = ["manifest.json"]
    for study in manifest["studies"]:
        for entry in study["views"].values():
            names += [entry["image"], *entry["masks"].values()]
    return {name: (root / name).read_bytes() for name in names}


class TestWriteFile:
    @pytest.mark.parametrize("old", [b"", b"0123456789" * 100, b"abc"],
                             ids=["empty", "longer", "shorter"])
    def test_overwrite_holds_exactly_the_chunks(self, tmp_path, old):
        path = tmp_path / "f"
        path.write_bytes(old)
        write_file(path, b"hello ", b"", b"world")
        assert path.read_bytes() == b"hello world"

    def test_no_chunks_empties_the_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        write_file(path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_is_that_of_open_wb(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "by_open", "wb"):
                pass
            write_file(tmp_path / "by_write_file", b"x")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE(os.stat(tmp_path / n).st_mode) for n in ("by_open", "by_write_file")]
        assert modes[0] == modes[1] == 0o666 & ~umask

    def test_existing_mode_is_kept(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old contents")
        path.chmod(0o600)
        write_file(path, b"new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == b"new"

    def test_dev_null(self):
        write_file(os.devnull, b"discarded", b"too")

    def test_fifo_with_a_reader(self, tmp_path):
        """A pipe is written in full (more than its buffer holds) and not
        cut, which would fail on it."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        chunks = [bytes([i]) * 70_000 for i in range(1, 4)]
        got = []
        # a daemon, so a writer that fails to open the pipe leaves no thread
        # blocked on it behind
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_file(fifo, *chunks)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"".join(chunks)]

    @pytest.mark.parametrize("old", [None, b"x" * 1000], ids=["new", "longer"])
    def test_a_chunk_that_raises_leaves_the_bytes_before_it(self, tmp_path, old):
        path = tmp_path / "f"
        if old is not None:
            path.write_bytes(old)
        fds = open_fds()
        with pytest.raises(TypeError):
            write_file(path, b"kept ", b"prefix", None, b"never written")
        assert open_fds() == fds
        assert path.read_bytes() == b"kept prefix"

    @pytest.mark.parametrize("old", [None, b"x" * 1000, b"abc"], ids=["new", "longer", "shorter"])
    def test_short_writes_are_continued(self, tmp_path, monkeypatch, old):
        """An ``os.write`` that takes at most 7 bytes a call still leaves
        exactly the chunks."""
        path = tmp_path / "f"
        if old is not None:
            path.write_bytes(old)
        real_write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(real_write(fd, memoryview(data)[:7]))
            return sizes[-1]
        chunks = [b"P5\n300 300\n255\n", b"", bytes(range(256)) * 3]
        with monkeypatch.context() as m:
            m.setattr(errors.os, "write", short_write)
            write_file(path, *chunks)
        assert path.read_bytes() == b"".join(chunks)
        assert max(sizes) == 7 and sum(sizes) == len(b"".join(chunks))

    @pytest.mark.parametrize("old", [None, b"x" * 1000], ids=["new", "longer"])
    def test_enospc_part_way_leaves_the_bytes_written(self, tmp_path, monkeypatch, old):
        """A full disk part-way through a chunk raises ENOSPC; the file ends
        after the bytes written before it, and the descriptor is closed."""
        path = tmp_path / "f"
        if old is not None:
            path.write_bytes(old)
        real_write, calls = os.write, []

        def filling_write(fd, data):
            calls.append(len(data))
            if len(calls) > 3:  # 7 + 3 bytes of the first chunk, 7 of the second
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, memoryview(data)[:7])
        fds = open_fds()
        with monkeypatch.context() as m:
            m.setattr(errors.os, "write", filling_write)
            with pytest.raises(OSError) as info:
                write_file(path, b"0123456789", b"abcdefghij")
        assert info.value.errno == errno.ENOSPC
        assert open_fds() == fds
        assert path.read_bytes() == b"0123456789abcdefg"

    def test_symlink_writes_the_target(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"a longer old target")
        link = tmp_path / "link"
        link.symlink_to(target)
        write_file(link, b"new")
        assert link.is_symlink()
        assert target.read_bytes() == b"new"


class TestReadFile:
    @pytest.mark.parametrize("size", [0, 1, 4096, 65535, 65536, 65537, 200_000])
    def test_every_byte(self, tmp_path, size):
        """Files of one read, of exactly one read's size, and of several."""
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "f"
        path.write_bytes(data)
        assert read_file(path) == data
        assert read_file(str(path)) == data

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("as_str", [False, True], ids=["Path", "str"])
    def test_error_reads_as_open_s(self, tmp_path, kind, as_str):
        """A missing file or a directory raises the exception ``open(path,
        "rb").read()`` raises, with the same message naming the path, and
        closes what it opened."""
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        if as_str:
            path = str(path)
        with pytest.raises(OSError) as by_open:
            with open(path, "rb") as fh:
                fh.read()
        fds = open_fds()
        with pytest.raises(OSError) as by_read:
            read_file(path)
        assert open_fds() == fds
        assert type(by_read.value) is type(by_open.value)
        assert str(by_read.value) == str(by_open.value)
        assert f": {str(path)!r}" in str(by_read.value)


class TestRerunEqualsFresh:
    def test_gen_data_and_render_som(self, tmp_path):
        """A seed-3 tree written over a seed-4 one equals a fresh seed-3 tree
        over the manifest and every file it names, and so does its overlay
        tree rendered over one of another intensity policy."""
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert gen_data(tmp_path, fresh, 3) == 0
        assert gen_data(tmp_path, rerun, 4) == 0
        assert tree_files(rerun) != tree_files(fresh)
        assert gen_data(tmp_path, rerun, 3) == 0
        assert tree_files(rerun) == tree_files(fresh)

        som_fresh, som_rerun = tmp_path / "som_fresh", tmp_path / "som_rerun"
        assert run_command(["render-som", "--data", str(fresh), "--out", str(som_fresh)]) == 0
        assert run_command(["render-som", "--data", str(fresh), "--out", str(som_rerun),
                            "--intensity-policy", "alternating"]) == 0
        assert tree_files(som_rerun) != tree_files(som_fresh)
        assert run_command(["render-som", "--data", str(fresh), "--out", str(som_rerun)]) == 0
        assert tree_files(som_rerun) == tree_files(som_fresh)

    def test_train(self, tmp_path):
        """An NS run written over a longer SS run's checkpoint directory
        equals a fresh NS run, file for file."""
        data = tmp_path / "data"
        assert gen_data(tmp_path, data, 3) == 0
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        assert train(tmp_path, data, fresh, "--strategy", "NS", "--max-steps", "1") == 0
        assert train(tmp_path, data, rerun, "--strategy", "SS", "--max-steps", "2") == 0
        assert train(tmp_path, data, rerun, "--strategy", "NS", "--max-steps", "1") == 0
        for name in CKPT_FILES:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name


def interrupted(monkeypatch, targets, run, which: str) -> str:
    """Run ``run`` once to count its writes through the functions
    ``targets``, then again with the first, middle or last of them raising
    OSError; return the path that write was for."""
    calls: list = []
    fail_at = None

    def wrap(fn):
        def write(path, *args):
            calls.append(path)
            if len(calls) == fail_at:
                raise OSError(f"injected failure writing {path}")
            return fn(path, *args)
        return write
    with monkeypatch.context() as m:
        for module, name in targets:
            m.setattr(module, name, wrap(getattr(module, name)))
        assert run() == 0
        fail_at = {"first": 1, "middle": (len(calls) + 1) // 2, "last": len(calls)}[which]
        calls.clear()
        assert run() == 1
    return str(calls[-1])


WHICH = ["first", "middle", "last"]


class TestInterruptedRerun:
    """A rerun killed part-way leaves files of two runs side by side; every
    reader must then exit 1 naming the missing manifest or config, rather
    than load the mix."""

    def check_data_tree_rejected(self, tmp_path, tree, capsys):
        capsys.readouterr()
        assert run_command(["build-prompt", "--data", str(tree),
                            "--study", "study_00000", "--strategy", "SS"]) == 1
        assert str(tree / "manifest.json") in capsys.readouterr().err
        assert train(tmp_path, tree, tmp_path / "unused") == 1
        assert str(tree / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("which", WHICH)
    def test_gen_data(self, tmp_path, monkeypatch, capsys, which):
        data = tmp_path / "data"
        assert gen_data(tmp_path, data, 3) == 0
        failed = interrupted(monkeypatch, [(masks, "write_pgm")],
                             lambda: gen_data(tmp_path, data, 4), which)
        assert failed.endswith(".pgm")
        assert not (data / "manifest.json").exists()
        self.check_data_tree_rejected(tmp_path, data, capsys)

    @pytest.mark.parametrize("which", WHICH)
    def test_render_som(self, tmp_path, monkeypatch, capsys, which):
        data, som = tmp_path / "data", tmp_path / "som"
        assert gen_data(tmp_path, data, 3) == 0
        assert run_command(["render-som", "--data", str(data), "--out", str(som)]) == 0
        failed = interrupted(
            monkeypatch, [(masks, "write_pgm")],
            lambda: run_command(["render-som", "--data", str(data), "--out", str(som),
                                 "--intensity-policy", "alternating"]), which)
        assert failed.endswith(".pgm")
        assert not (som / "manifest.json").exists()
        self.check_data_tree_rejected(tmp_path, som, capsys)

    @pytest.mark.parametrize("which,failed", zip(WHICH, CKPT_FILES))
    def test_train(self, tmp_path, monkeypatch, capsys, which, failed):
        """The checkpoint, loss curve and config writes fail in turn."""
        data, ckpt = tmp_path / "data", tmp_path / "ckpt"
        assert gen_data(tmp_path, data, 3) == 0
        assert train(tmp_path, data, ckpt) == 0
        targets = [(mllm, "save_checkpoint"), (mllm, "write_file"), (mllm, "write_json")]
        assert interrupted(monkeypatch, targets,
                           lambda: train(tmp_path, data, ckpt, "--strategy", "NS"),
                           which) == str(ckpt / failed)
        assert not (ckpt / "train_config.json").exists()
        capsys.readouterr()
        assert run_command(["generate", "--data", str(data), "--ckpt", str(ckpt),
                            "--study", "study_00000", "--max-new", "4"]) == 1
        assert str(ckpt / "train_config.json") in capsys.readouterr().err
