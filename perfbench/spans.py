"""Span tracing for the benchmark's traced run.

Each layer boundary is wrapped from outside the package, at the name its
caller resolves: a wrapper on the defining module would miss callers that
bound the name at import time (``ACTIVATIONS["gelu"]`` holds ``gelu``;
``mllm`` and ``cli`` import several functions by name).

A span records calls, self time (its duration minus the time covered by
child spans) and exceptions raised across the boundary. Attention and MLP
spans are split by the nearest enclosing owner span (encoder, LM, adapter,
extractor), because the same classes serve all of them.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPLIT = object()  # boundary name gets the enclosing owner as a suffix

# (module, attribute path, boundary name, owner tag set for spans below it)
# An attribute path is "name", "Class.name" or "DICT[key]".
SITES = [
    ("segprompt.encoder", "VitEncoder.encode", "encoder.encode", "encoder"),
    ("segprompt.mllm", "extract_tokens", "extractor.extract_tokens", None),
    ("segprompt.extractor", "mask_token", "extractor.mask_token", "extractor"),
    ("segprompt.extractor", "spatial_token", "extractor.spatial_token", None),
    ("segprompt.extractor", "resample_mask", "extractor.resample_mask", None),
    ("segprompt.mllm", "build_prompt", "prompting.build_prompt", None),
    ("segprompt.mllm", "realize_embeddings", "prompting.realize_embeddings", None),
    ("segprompt.mllm", "adapt", "mllm.adapt", "adapter"),
    ("segprompt.mllm", "DecoderLm.forward", "mllm.lm.forward", "lm"),
    ("segprompt.mllm", "forward_loss", "mllm.forward_loss", None),
    ("segprompt.mllm", "generate", "mllm.generate", None),
    ("segprompt.cli", "train", "mllm.train", None),
    ("segprompt.nn.layers", "AttentionBlock.__call__", "nn.attention", SPLIT),
    ("segprompt.nn.layers", "MlpBlock.__call__", "nn.mlp", SPLIT),
    ("segprompt.nn.layers", "LayerNorm.__call__", "nn.layer_norm", None),
    ("segprompt.nn.layers", "ACTIVATIONS[gelu]", "nn.gelu", None),
    ("segprompt.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("segprompt.nn.optim", "AdamW.step", "nn.adamw_step", None),
    ("segprompt.cli", "load_into", "nn.load_into", None),
    ("segprompt.mllm", "save_checkpoint", "nn.save_checkpoint", None),
    ("segprompt.masks", "read_pgm", "masks.read_pgm", None),
    ("segprompt.masks", "write_pgm", "masks.write_pgm", None),
    ("segprompt.extractor", "to_grid", "masks.to_grid", None),
    ("segprompt.cli", "render_overlay", "som.render_overlay", None),
    ("segprompt.synth", "make_study", "synth.make_study", None),
    ("segprompt.synth", "load_study", "synth.load_study", None),
    ("segprompt.cli", "load_study", "synth.load_study", None),
    ("segprompt.metrics", "bleu", "metrics.bleu", None),
    ("segprompt.metrics", "rouge_l", "metrics.rouge_l", None),
    ("segprompt.metrics", "bootstrap_ci", "metrics.bootstrap_ci", None),
    ("segprompt.metrics", "bootstrap_ci_fn", "metrics.bootstrap_ci_fn", None),
]

SPLIT_OWNERS = {"nn.attention": ("encoder", "lm"),
                "nn.mlp": ("encoder", "lm", "adapter", "extractor")}

# Top spans opened by the benchmark: one per CLI command, plus the in-process
# dataset load phase.
TOP_SPANS = ("cli.gen-data", "cli.render-som", "cli.train", "cli.generate", "cli.eval",
             "bench.load")

# The boundaries that fire below each top span, and no others. This states the
# bypass predictions per command: no backward or AdamW outside train, no
# generate inside it, no extractor under NS prompts, no overlay outside
# render-som.
_MODEL = {"synth.load_study", "masks.read_pgm", "encoder.encode", "nn.attention.encoder",
          "nn.mlp.encoder", "nn.layer_norm", "nn.gelu", "prompting.build_prompt",
          "prompting.realize_embeddings", "mllm.adapt", "nn.mlp.adapter", "mllm.lm.forward",
          "nn.attention.lm", "nn.mlp.lm"}
_DECODE = {"nn.load_into", "mllm.generate"}
EXPECTED = {
    "cli.gen-data": {"synth.make_study", "masks.write_pgm"},
    "cli.render-som": {"masks.read_pgm", "som.render_overlay", "masks.write_pgm"},
    "bench.load": {"synth.load_study", "masks.read_pgm"},
    "cli.train": _MODEL | {"mllm.train", "mllm.forward_loss", "nn.backward", "nn.adamw_step",
                           "nn.save_checkpoint"},
    "cli.generate": _MODEL | _DECODE,
    "cli.eval": _MODEL | _DECODE | {"metrics.bleu", "metrics.rouge_l", "metrics.bootstrap_ci",
                                    "metrics.bootstrap_ci_fn"},
}
# Fire below the model commands under SS prompts; NS prompts bypass them.
EXTRACTOR = {"extractor.extract_tokens", "extractor.mask_token", "extractor.spatial_token",
             "extractor.resample_mask", "masks.to_grid", "nn.mlp.extractor"}


def expected_below(top: str, strategy: str) -> set[str]:
    want = set(EXPECTED.get(top, ()))
    if top in ("cli.train", "cli.generate", "cli.eval") and strategy == "SS":
        want |= EXTRACTOR
    return want


def boundary_names() -> list[str]:
    """Every boundary a traced run can record, split names expanded."""
    names: list[str] = []
    for _, _, name, owner in SITES:
        expanded = ([f"{name}.{o}" for o in SPLIT_OWNERS[name]] if owner is SPLIT
                    else [name])
        names += [n for n in expanded if n not in names]
    return names + list(TOP_SPANS)


def _resolve(module: str, path: str):
    """(container, key, is_mapping) for an attribute path."""
    obj = importlib.import_module(module)
    if "[" in path:
        attr, key = path[:-1].split("[")
        return getattr(obj, attr), key, True
    *owners, key = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, key, False


class Tracer:
    """Accumulates span statistics per (top span, boundary)."""

    def __init__(self):
        self.active = False
        # (top, name) -> [calls, self_ns, errors, total_ns]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.stack: list[list] = []  # frames: [name, owner, child_ns]
        self.counters: dict[str, int] = defaultdict(int)
        self.realized_lens: list[int] = []
        self._views: set[int] = set()
        self._masks: set[int] = set()
        self._installed: list[tuple] = []

    # -- span accounting -------------------------------------------------------

    def _enter(self, name: str, owner) -> list:
        if owner is None and self.stack:
            owner = self.stack[-1][1]
        frame = [name, owner, 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, dt: int, failed: bool) -> None:
        self.stack.pop()
        top = self.stack[0][0] if self.stack else frame[0]
        st = self.stats[(top, frame[0])]
        st[0] += 1
        st[1] += dt - frame[2]
        st[2] += failed
        st[3] += dt
        if self.stack:
            self.stack[-1][2] += dt
        else:
            self.counters["views"] += len(self._views)
            self.counters["masks"] += len(self._masks)
            self._views.clear()
            self._masks.clear()

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.realized_lens.clear()

    @contextmanager
    def span(self, name: str):
        """A top span opened by the benchmark around one command or phase."""
        frame = self._enter(name, None)
        t0 = time.perf_counter_ns()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(frame, time.perf_counter_ns() - t0, failed)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- per-boundary counters ---------------------------------------------------

    def _before(self, name: str, args) -> None:
        if name == "encoder.encode":
            self._views.add(id(args[1]))
        elif name == "extractor.resample_mask":
            self._masks.add(id(args[0]))
        elif (name == "mllm.lm.forward" and len(self.stack) > 1
              and self.stack[-2][0] == "mllm.generate"):
            self.counters["generate_rows"] += args[1].shape[0]
        elif name == "masks.write_pgm":
            self.counters["write_bytes"] += np.asarray(args[1]).size

    def _after(self, name: str, result) -> None:
        if name == "prompting.realize_embeddings":
            self.realized_lens.append(result.shape[0])
        elif name == "mllm.generate":
            self.counters["generated_tokens"] += len(result)
        elif name == "masks.read_pgm":
            self.counters["read_bytes"] += result.nbytes

    # -- installation ------------------------------------------------------------

    def _wrap(self, fn, name: str, owner):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            if owner is SPLIT:
                parent_owner = tracer.stack[-1][1] if tracer.stack else None
                span_name = f"{name}.{parent_owner or 'other'}"
            frame = tracer._enter(span_name, None if owner is SPLIT else owner)
            tracer._before(name, args)
            t0 = time.perf_counter_ns()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(frame, time.perf_counter_ns() - t0, failed)
            tracer._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, path, name, owner in SITES:
            container, key, mapping = _resolve(module, path)
            original = container[key] if mapping else getattr(container, key)
            wrapped = self._wrap(original, name, owner)
            if mapping:
                container[key] = wrapped
            else:
                setattr(container, key, wrapped)
            self._installed.append((container, key, mapping, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for container, key, mapping, original in reversed(self._installed):
            if mapping:
                container[key] = original
            else:
                setattr(container, key, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """boundary -> [calls, self_ns, errors, total_ns] summed over top spans."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for (_, name), st in self.stats.items():
            out[name] = [a + b for a, b in zip(out[name], st)]
        return out

    def by_top(self) -> dict[str, dict[str, float]]:
        """top span -> boundary -> self seconds (the top span itself: wall seconds)."""
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for (top, name), st in sorted(self.stats.items()):
            out[top][name] = (st[3] if name == top else st[1]) / 1e9
        return dict(out)

    def calls_by_top(self) -> dict[str, dict[str, int]]:
        """top span -> boundary below it -> calls."""
        out: dict[str, dict[str, int]] = defaultdict(dict)
        for (top, name), st in self.stats.items():
            if name != top and st[0]:
                out[top][name] = st[0]
        return dict(out)


def coverage_failures(calls_by_top: dict[str, dict[str, int]], strategy: str) -> list[str]:
    """Boundaries that stayed silent below a command where they should fire,
    or fired where they should be bypassed (see EXPECTED)."""
    failures = [f"{top}: never ran" for top in TOP_SPANS if top not in calls_by_top]
    for top, calls in sorted(calls_by_top.items()):
        want = expected_below(top, strategy)
        failures += [f"{name} below {top}: expected to fire, recorded 0 calls"
                     for name in sorted(want - calls.keys())]
        failures += [f"{name} below {top}: expected to be bypassed, recorded "
                     f"{calls[name]} calls" for name in sorted(calls.keys() - want)]
    return failures
