"""segprompt benchmark: two closed-loop workloads driven through the CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-ss --seed 1 --seconds 50 --trace 0

One client runs in one process: each command starts only after the previous
one returns (``segprompt.cli.run_command`` in-process, plus the public
``load_manifest``/``load_study`` functions for the load phase). The seed
draws the dataset (``SynthSpec.seed``) and the trained model's init and
batch order; the program only receives the generated dataset directory.

Every end-to-end metric exists on every workload, so every workload runs
every phase, but a phase that is not the workload's own runs only its
FLOOR of operations. The rest of the run goes to the workload's cycle, the
activity that defines it, under its own prompt strategy:

* ``train-ss``  - ``train --strategy SS``; the extractor, autodiff backward
  and AdamW do most of the work.
* ``report-ns`` - one ``generate`` per study, then one ``eval`` of the test
  split. NS prompts bypass the extractor.

Making a dataset (``gen-data``, ``render-som``, loading it back) has no
workload of its own: its phases run their FLOOR on both workloads. Within
the benchmark's time budget a third workload would make every run too short
to average out the speed drift of a shared 2-core VM, which reaches 1.5x
within a minute.

Reports are decoded from a checkpoint made in set-up with ``base_lr`` 0, so
its weights equal the init of model seed 0 and every report runs to the
48-token cap whatever the training code does.

``--trace 1`` wraps each layer from outside the package (see ``spans.py``)
and reports per-layer counts and self times instead of the end-to-end
metrics. It runs a fixed number of operations, whatever ``--seconds`` says,
so that two commits are compared on the same work: one untraced and one
traced operation of every phase (the pair gives the tracing overhead), then
TRACED_CYCLES traced cycles of the workload.

The last line of standard output is the result JSON; the line before it
holds the details: environment, traffic profile, token-id digests and the
per-command split of the traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

POOL_STUDIES = 160      # set-up gen-data count; the benchmark dataset is drawn from it
GEN_STUDIES = 40        # gen-data count of a timed operation
TRAIN_STEPS = 8         # two epochs of the 30-study train split at batch 8
MAX_NEW = 48
SETUP_REPEATS = 3
# View layouts of the benchmark dataset, split by split: F frontal only, L a
# lateral, P a prior. Every block of ten train studies, and each five-study
# val and test split, has 1.6 views per study, as the default SynthSpec draws
# on average, and a lateral and a prior in 3 of 10. A seed then changes the
# studies but not the layout mix, which sets most of the cost of a report, a
# train step or an eval. Report latency clusters by view count; frontal-only
# studies are 6 of 10 and three-view ones 2 of 10, so that the p50 and p90
# of a block's reports fall inside a cluster, not on the edge between two,
# where they would jump with noise.
LAYOUT_BLOCK = ("F", "FP", "F", "FLP", "F", "FL", "F", "FLP", "F", "F")
SMALL_BLOCK = ("F", "FP", "F", "FLP", "F")
SPLIT_LAYOUTS = {"train": LAYOUT_BLOCK * 3, "val": SMALL_BLOCK, "test": SMALL_BLOCK}
STUDIES = sum(len(layouts) for layouts in SPLIT_LAYOUTS.values())
PHASES = ("gen", "som", "load", "train", "generate", "eval")
# Operations every phase runs in an untraced run, spread evenly over it, so
# that every end-to-end metric rests on several operations on every
# workload. A phase in the workload's cycle runs more.
FLOOR = {"gen": 10, "som": 16, "load": 40, "train": 5, "generate": 3 * len(LAYOUT_BLOCK),
         "eval": 5}
TRACED_CYCLES = 2


@dataclass(frozen=True)
class Workload:
    strategy: str
    cycle: dict[str, int]    # operations per phase in one pass of the workload's activity


WORKLOADS = {
    "train-ss": Workload("SS", {"train": 1}),
    "report-ns": Workload("NS", {"generate": STUDIES, "eval": 1}),
}


class SetupError(RuntimeError):
    pass


def _import_package():
    """Import segprompt from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "segprompt" / "cli.py").is_file():
        raise SetupError(f"no segprompt sources under {src}")
    sys.path.insert(0, str(src))
    import segprompt
    if Path(segprompt.__file__).resolve().parent != (src / "segprompt").resolve():
        raise SetupError(f"imported segprompt from {segprompt.__file__}, not {src}")


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one in-process command."""
    from segprompt.cli import run_command
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run_command(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


@dataclass
class Op:
    wall: float
    ok: bool
    work: int = 0            # studies, samples or tokens the op processed
    note: str = ""


class Bench:
    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.tracer = None
        self.digests: list[tuple[str, str]] = []
        self.generated: list[int] = []
        self.final_losses: list[float] = []
        self.gen_manifest: bytes | None = None

    # -- set-up ------------------------------------------------------------------

    def setup(self, where: Path) -> float:
        """Make the dataset and the lr-0 checkpoint."""
        gc.collect()
        t0 = time.perf_counter()
        data, ckpt = where / "data", where / "ckpt"
        cfg = where / "lr0.json"
        where.mkdir(parents=True)
        cfg.write_text(json.dumps({"train": {"base_lr": 0.0}}), encoding="utf-8")
        count = POOL_STUDIES
        while True:
            self._setup_cli(["gen-data", "--out", str(data), "--seed", str(self.seed),
                             "--count", str(count)])
            if select_studies(data):
                break
            count *= 2  # the pool lacked a layout; rare for 160 studies
        # No --seed: the report checkpoint keeps the init of model seed 0, whose
        # reports run to the token cap; some other inits emit EOS early, which
        # would let the seed, not the program, set the report length.
        self._setup_cli(["train", "--data", str(data), "--strategy", self.wl.strategy,
                         "--out", str(ckpt), "--max-steps", "1", "--config", str(cfg)])
        self.data, self.ckpt = data, ckpt
        return time.perf_counter() - t0

    @staticmethod
    def _setup_cli(argv: list[str]) -> None:
        rc, _, err, _ = run_cli(argv)
        if rc != 0:
            raise SetupError(f"set-up command {argv[0]} failed ({rc}): {err.strip()}")

    def prepare(self) -> None:
        """Untimed facts the output checks compare against."""
        from segprompt import synth
        from segprompt.mllm import ModelConfig, ReportModel, Tokenizer
        manifest, self.records = synth.load_manifest(self.data)
        self.spec = synth.SynthSpec.from_dict(manifest["spec"])
        self.n_test = sum(r.split == "test" for r in self.records)
        self.n_train = sum(r.split == "train" for r in self.records)
        self.tokenizer = Tokenizer(synth.vocabulary())
        model = ReportModel(ModelConfig(), synth.vocabulary())
        self.param_names = sorted(model.named_params())
        # Warm-up, untimed: gen-data, render-som and decoding have run once,
        # and gen_manifest holds the gen-data output later ones must equal.
        for warm in (self.op_gen, self.op_som, self.op_generate):
            op = warm(0)
            if not op.ok:
                raise SetupError(f"warm-up failed: {op.note.strip()}")
        self.digests.clear()
        self.generated.clear()

    # -- phases ------------------------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _checking(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _cli(self, argv: list[str]):
        with self._span(f"cli.{argv[0]}"):
            return run_cli(argv)

    def out_dir(self, phase: str) -> Path:
        """The phase's output directory. Every operation writes into the same
        one, as a user re-running a command would, but first the files already
        there get mtime 0, so that check_written finds any file the operation
        did not write. (A fresh directory per operation would time the file
        system creating inodes, which varies far more than the program.)"""
        path = WORK / "out" / phase
        path.mkdir(parents=True, exist_ok=True)
        for f in path.rglob("*"):
            if f.is_file():
                os.utime(f, ns=(0, 0))
        return path

    def op_gen(self, k: int) -> Op:
        out = self.out_dir("gen")
        rc, _, err, wall = self._cli(["gen-data", "--out", str(out), "--seed",
                                      str(self.seed), "--count", str(GEN_STUDIES)])
        if rc != 0:
            return Op(wall, False, note=err)
        manifest = (out / "manifest.json").read_bytes()
        self.gen_manifest = self.gen_manifest or manifest  # the warm-up's
        if manifest != self.gen_manifest:
            return Op(wall, False, note="manifest differs from the first gen-data's")
        with self._checking():
            from segprompt import synth
            _, records = synth.load_manifest(out)
            bad = check_written(out) or check_studies(
                self.spec, [synth.load_study(r, out) for r in records[k % 4::4]])
        return Op(wall, not bad, GEN_STUDIES, bad)

    def op_som(self, k: int) -> Op:
        out = self.out_dir("som")
        rc, _, err, wall = self._cli(["render-som", "--data", str(self.data),
                                      "--out", str(out)])
        if rc != 0:
            return Op(wall, False, note=err)
        with self._checking():
            bad = check_written(out) or check_overlays(self.data, out, self.records, k)
        return Op(wall, not bad, len(self.records), bad)

    def op_load(self, k: int) -> Op:
        from segprompt import synth
        t0 = time.perf_counter()
        try:
            with self._span("bench.load"):
                _, records = synth.load_manifest(self.data)
                studies = [synth.load_study(r, self.data) for r in records]
        except Exception as exc:
            return Op(time.perf_counter() - t0, False, note=f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        with self._checking():
            bad = check_studies(self.spec, studies[k % 4::4])
        return Op(wall, not bad, len(studies), bad)

    def op_train(self, k: int) -> Op:
        out = self.out_dir("train")
        rc, _, err, wall = self._cli(["train", "--data", str(self.data),
                                      "--strategy", self.wl.strategy, "--out", str(out),
                                      "--seed", str(self.seed),
                                      "--max-steps", str(TRAIN_STEPS)])
        if rc != 0:
            return Op(wall, False, note=err)
        with self._checking():
            bad, final_loss = check_train(out, self.param_names, self.n_train)
            bad = check_written(out) or bad
        if not bad:
            self.final_losses.append(final_loss)
        return Op(wall, not bad, TRAIN_STEPS * min(8, self.n_train), bad)

    def op_generate(self, k: int) -> Op:
        study = self.records[k % len(self.records)].study_id
        rc, out, err, wall = self._cli(["generate", "--data", str(self.data),
                                        "--ckpt", str(self.ckpt), "--study", study,
                                        "--max-new", str(MAX_NEW)])
        if rc != 0:
            return Op(wall, False, note=err)
        words = out.strip().replace(".", " .").split()
        unknown = sorted({w for w in words if w not in self.tokenizer.index})
        if unknown or len(words) > MAX_NEW:
            return Op(wall, False, note=f"{study}: {len(words)} tokens, unknown {unknown[:5]}")
        ids = [self.tokenizer.index[w] for w in words]
        self.digests.append((study, hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:16]))
        self.generated.append(len(ids))
        return Op(wall, True, len(ids))

    def op_eval(self, k: int) -> Op:
        report = self.out_dir("eval") / "report.json"
        rc, _, err, wall = self._cli(["eval", "--data", str(self.data), "--ckpt",
                                      str(self.ckpt), "--report", str(report),
                                      "--split", "test", "--max-new", str(MAX_NEW)])
        if rc != 0:
            return Op(wall, False, note=err)
        bad = check_written(report.parent) or check_eval(
            json.loads(report.read_text(encoding="utf-8")), self.n_test)
        return Op(wall, not bad, self.n_test, bad)

    def run_op(self, phase: str, ops: dict[str, list[Op]]) -> None:
        gc.collect()  # untimed, so no operation pays for an earlier one's garbage
        try:
            op = getattr(self, f"op_{phase}")(len(ops[phase]))
        except Exception as exc:  # e.g. a check finds an output missing
            op = Op(0.0, False, note=f"{type(exc).__name__}: {exc}")
        if not op.ok:
            print(f"[perfbench] {phase} failed: {op.note.strip()[:500]}", file=sys.stderr)
        ops[phase].append(op)

    def run_timed(self, seconds: float) -> dict[str, list[Op]]:
        """Run every phase's FLOOR, spread evenly over ``seconds``, and fill the
        rest of the time with the workload's cycle. A slow spell on the machine
        then hits every phase alike. An operation starts only after the
        previous one returns."""
        ops: dict[str, list[Op]] = {p: [] for p in PHASES}
        cycle = self.wl.cycle
        t0 = time.perf_counter()
        while True:
            elapsed = (time.perf_counter() - t0) / seconds
            due = [p for p in PHASES
                   if len(ops[p]) < min(FLOOR[p], math.ceil(elapsed * FLOOR[p]))]
            if due:
                phase = min(due, key=lambda p: len(ops[p]) / FLOOR[p])
            elif elapsed < 1.0:
                phase = min(cycle, key=lambda p: len(ops[p]) / cycle[p])
            else:
                return ops
            self.run_op(phase, ops)

    def run_traced(self, tracer) -> tuple[dict[str, list[Op]], list[Op], list[Op]]:
        """A fixed amount of work: one untraced and one traced operation of
        every phase, then TRACED_CYCLES traced cycles of the workload.
        Returns (traced ops, untraced calibration ops, traced calibration ops)."""
        ops: dict[str, list[Op]] = {p: [] for p in PHASES}
        untraced: dict[str, list[Op]] = {p: [] for p in PHASES}
        try:
            for phase in PHASES:
                self.run_op(phase, untraced)
                tracer.install()
                self.tracer = tracer
                self.run_op(phase, ops)
                self.tracer = None
                tracer.uninstall()
            paired = [ops[p][0] for p in PHASES]
            tracer.install()
            self.tracer = tracer
            for phase, n in self.wl.cycle.items():
                for _ in range(n * TRACED_CYCLES):
                    self.run_op(phase, ops)
        finally:
            self.tracer = None
            tracer.uninstall()
        return ops, [untraced[p][0] for p in PHASES], paired


def select_studies(data: Path) -> bool:
    """Rewrite the manifest to the SPLIT_LAYOUTS studies, drawn in pool order.
    False when the pool lacks a layout."""
    from dataclasses import asdict
    from segprompt import synth
    manifest, records = synth.load_manifest(data)
    by_layout: dict[str, list] = {}
    for r in records:
        key = "F" + "L" * ("current_lateral" in r.views) + "P" * ("prior_frontal" in r.views)
        by_layout.setdefault(key, []).append(r)
    chosen = []
    for split, layouts in SPLIT_LAYOUTS.items():
        for layout in layouts:
            if not by_layout.get(layout):
                return False
            record = by_layout[layout].pop(0)
            record.split = split
            chosen.append(asdict(record))
    manifest["studies"] = chosen
    with open(data / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return True


# -- output checks ---------------------------------------------------------------


def check_written(out: Path) -> str:
    """Every file in an output directory was written by the last operation
    (see Bench.out_dir)."""
    stale = sorted(f.relative_to(out).as_posix() for f in out.rglob("*")
                   if f.is_file() and f.stat().st_mtime_ns == 0)
    return f"{out.name}: {len(stale)} files not rewritten, e.g. {stale[0]}" if stale else ""


def check_studies(spec, studies) -> str:
    """Studies read back from disk must equal make_study's output: masks bit
    for bit, images as write_image quantizes them. Callers pass a rotating
    quarter of a dataset, so four operations cover all of it."""
    import numpy as np
    from segprompt.synth import make_study

    def pixels(image):
        return None if image is None else np.round(np.clip(image, 0.0, 1.0) * 255.0)

    for got in studies:
        want = make_study(spec, int(got.study_id.rsplit("_", 1)[1]))
        for view in ("frontal", "lateral", "prior"):
            w, g = getattr(want, f"{view}_masks") or {}, getattr(got, f"{view}_masks") or {}
            if w.keys() != g.keys() or any((w[s] != g[s]).any() for s in w):
                return f"{got.study_id}: {view} masks on disk differ from make_study"
            w, g = pixels(getattr(want, f"{view}_image")), pixels(getattr(got, f"{view}_image"))
            if (w is None) != (g is None) or (w is not None and not np.array_equal(w, g)):
                return f"{got.study_id}: {view} image on disk differs from make_study"
    return ""


def check_overlays(src: Path, dst: Path, records, k: int) -> str:
    """Overlay pixels outside som.overlay_footprint must be unchanged, and a
    view with a positive mask must have changed inside it. Each render checks
    a rotating quarter of the studies, so four renders cover all."""
    from segprompt.masks import StructureId, read_mask, read_pgm
    from segprompt.som import MarkStyle, overlay_footprint
    style = MarkStyle()
    for record in records[k % 4::4]:
        for entry in record.views.values():
            before, after = read_pgm(src / entry["image"]), read_pgm(dst / entry["image"])
            ms = {StructureId(s): read_mask(src / rel) for s, rel in entry["masks"].items()}
            inside = overlay_footprint(ms, style, before.shape)
            if (before[~inside] != after[~inside]).any():
                return f"{entry['image']}: pixels outside the overlay footprint changed"
            if inside.any() and (before[inside] == after[inside]).all():
                return f"{entry['image']}: no overlay drawn inside its footprint"
    return ""


def check_train(out: Path, param_names: list[str], n_train: int) -> tuple[str, float]:
    """Finite losses, one per configured step, and checkpoint names equal to
    named_params(). Returns (failure, last-epoch mean loss)."""
    from segprompt.nn import load_checkpoint
    rows = (out / "loss_curve.csv").read_text(encoding="utf-8").split("\n")[1:]
    losses = [float(row.split(",")[2]) for row in rows if row]
    if len(losses) != TRAIN_STEPS:
        return f"loss curve has {len(losses)} steps, expected {TRAIN_STEPS}", 0.0
    if not all(math.isfinite(v) for v in losses):
        return "non-finite loss in loss_curve.csv", 0.0
    if sorted(load_checkpoint(out / "model.ckpt")) != param_names:
        return "checkpoint names differ from named_params()", 0.0
    steps_per_epoch = math.ceil(n_train / 8)
    return "", statistics.fmean(losses[-steps_per_epoch:])


def check_eval(report: dict, n_test: int) -> str:
    if report.get("n") != n_test:
        return f"eval n={report.get('n')}, test split has {n_test}"
    for key in ("bleu4", "rouge_l", "macro_f1_mr", "micro_f1_mr"):
        m = report.get("metrics", {}).get(key)
        if m is None:
            return f"eval report lacks {key}"
        if not m["ci_low"] <= m["median"] <= m["ci_high"]:
            return f"eval {key}: median outside its CI"
    return ""


# -- metrics -----------------------------------------------------------------------


def _ok(ops: list[Op]) -> list[Op]:
    return [op for op in ops if op.ok]


def _rate(ops: list[Op]) -> float:
    """Work over wall time, summed over a phase's operations: unlike a median
    of per-operation rates it does not jump when a slow spell of the machine
    covers about half of them."""
    ok = _ok(ops)
    wall = sum(op.wall for op in ok)
    return sum(op.work for op in ok) / wall if wall else 0.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(bench: Bench, ops: dict[str, list[Op]], setup_s: float) -> dict:
    latencies = [op.wall for op in _ok(ops["generate"])]
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "train_samples_per_s": (_rate(ops["train"]), "1/s"),
        "train_final_loss": (statistics.median(bench.final_losses)
                             if bench.final_losses else 0.0, "nats"),
        "report_latency_p50_s": (_percentile(latencies, 50), "s"),
        "report_latency_p90_s": (_percentile(latencies, 90), "s"),
        "report_tokens_per_s": (_rate(ops["generate"]), "1/s"),
        "eval_studies_per_s": (_rate(ops["eval"]), "1/s"),
        "som_studies_per_s": (_rate(ops["som"]), "1/s"),
        "load_studies_per_s": (_rate(ops["load"]), "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    from spans import TOP_SPANS, boundary_names
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for name in boundary_names():
        calls, self_ns, _, _ = totals.get(name, (0, 0, 0, 0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_ns / 1e9, "s")
    modules = sorted({name.split(".")[0] for name in boundary_names()})
    for module in modules:
        out[f"{module}.errors"] = (sum(st[2] for name, st in totals.items()
                                       if name.split(".")[0] == module), "count")
    c = tracer.counters
    lens = tracer.realized_lens

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out["encoder.encode.calls_per_view"] = (ratio(totals["encoder.encode"][0], c["views"]),
                                            "ratio")
    out["extractor.resample_mask.calls_per_mask"] = (
        ratio(totals["extractor.resample_mask"][0], c["masks"]), "ratio")
    out["prompting.realized_len.p50"] = (statistics.median(lens) if lens else 0.0, "tokens")
    out["prompting.realized_len.max"] = (max(lens, default=0), "tokens")
    out["mllm.lm.rows_per_token"] = (ratio(c["generate_rows"], c["generated_tokens"]),
                                     "ratio")
    out["masks.read_pgm.bytes"] = (c["read_bytes"], "bytes")
    out["masks.write_pgm.bytes"] = (c["write_bytes"], "bytes")
    tops = [totals[t] for t in TOP_SPANS]
    out["bench.unattributed.share"] = (ratio(sum(t[1] for t in tops),
                                             sum(t[3] for t in tops)), "ratio")
    out["bench.trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["bench.trace.overhead_share"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# -- environment and traffic profile -------------------------------------------------


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # A checkout without git metadata has no commit; src_sha256 names the code.
    head, commit = ROOT / ".git" / "HEAD", "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        if not ref.startswith("ref: "):
            commit = ref
        elif ref_file.is_file():
            commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "SEGPROMPT_THREADS": os.environ.get("SEGPROMPT_THREADS"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def traffic_profile(bench: Bench) -> dict:
    """What the workload's inputs look like, so a later change can state the
    share of the workload that has the property it targets."""
    from segprompt import synth
    from segprompt.mllm import ModelConfig
    from segprompt.masks import positive_structures
    from segprompt.prompting import Strategy, build_prompt, count_tokens
    studies = [synth.load_study(r, bench.data) for r in bench.records]
    cells = ModelConfig().encoder.n_patches
    lengths = {}
    for strategy in Strategy:
        lens = [count_tokens(build_prompt(s, strategy), cells,
                             bench.tokenizer.token_count) for s in studies]
        lengths[strategy.value] = {"p50": statistics.median(lens), "max": max(lens),
                                   "mean": statistics.fmean(lens)}
    views = [len(s.views()) for s in studies]
    masks = [sum(len(positive_structures(ms)) for _, _, ms in s.views()) for s in studies]
    return {
        "studies": len(studies),
        "views_per_study": statistics.fmean(views),
        "multi_view_share": sum(v > 1 for v in views) / len(views),
        "positive_masks_per_study": statistics.fmean(masks),
        "realized_len_by_strategy": lengths,
        "generated_tokens_per_report": {
            "mean": statistics.fmean(bench.generated) if bench.generated else 0.0,
            "min": min(bench.generated, default=0), "max": max(bench.generated, default=0)},
    }


# -- main ----------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One client on one thread. gen-data worker threads would also interleave
    # spans on the tracer's single stack. BLAS threads bring no speed-up at
    # these matrix sizes, and one spinning on the second core made the timing
    # of the single-threaded phases (gen-data, render-som) vary far more.
    # Set before numpy is first imported.
    os.environ["SEGPROMPT_THREADS"] = "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    try:
        _import_package()
    except (SetupError, ImportError) as exc:
        print(f"[perfbench] cannot import segprompt: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        return run(args)
    except SetupError as exc:
        print(f"[perfbench] {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def run(args) -> int:
    from spans import Tracer, coverage_failures

    bench = Bench(args.workload, args.seed)
    repeats = SETUP_REPEATS if not args.trace else 1
    setup_times = [bench.setup(WORK / f"setup{i}") for i in range(repeats)]
    bench.prepare()

    if args.trace:
        tracer = Tracer()
        ops, untraced, paired = bench.run_traced(tracer)
        ops["untraced"] = untraced
    else:
        ops = bench.run_timed(args.seconds)

    attempted = sum(len(v) for v in ops.values())
    failed = sum(not op.ok for v in ops.values() for op in v)
    correct = failed == 0
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(),
        "profile": traffic_profile(bench),
        "ops": {p: {"attempted": len(v), "failed": sum(not op.ok for op in v),
                    "wall_s": [round(op.wall, 4) for op in v], "work": [op.work for op in v]}
                for p, v in ops.items()},
        "report_latency_samples": len(_ok(ops["generate"])),
        # Not an end-to-end metric: about a third of a gen-data operation is
        # PGM writes, whose cost drifts 2x within a minute on a shared VM disk,
        # so its spread over runs exceeds any bound the benchmark may set.
        "gen_studies_per_s": _rate(ops["gen"]),
        "setup_s_samples": setup_times,
        "token_digests": bench.digests,
    }
    if args.trace:
        gaps = coverage_failures(tracer.calls_by_top(), bench.wl.strategy)
        for gap in gaps:
            print(f"[perfbench] span coverage: {gap}", file=sys.stderr)
        correct = correct and not gaps
        metrics = per_layer(tracer, sum(op.wall for op in untraced),
                            sum(op.wall for op in paired))
        detail["span_coverage_failures"] = gaps
        detail["errors_by_boundary"] = {n: st[2] for n, st in tracer.totals().items()}
        detail["self_s_by_command"] = tracer.by_top()
    else:
        metrics = end_to_end(bench, ops, statistics.median(setup_times))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
