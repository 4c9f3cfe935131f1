"""Tokenizer, MLP adapter, small decoder-only LM, the single-stage training
loop, and greedy generation. ``train`` freezes by one rule: a component in
``TrainConfig.frozen`` gets ``requires_grad=False``, so its outputs are
constants that backward skips, and AdamW receives only the other components.

Greedy decoding is KV-cached and graph-free: each prompt is prefilled once,
then each step feeds only the newest token's embedding of every live sequence
and attends over that sequence's cached keys and values. The cached forward
runs on arrays and makes no ``Tensor``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from segprompt.errors import ContractError, checked_fields
from segprompt.encoder import EncoderOutput, FeatureGrid, VitConfig, VitEncoder
from segprompt.extractor import ExtractorConfig, SegTokenExtractor, SegTokenPair, extract_tokens
from segprompt.nn import (
    AdamW,
    KvCache,
    LinearLayer,
    LrSchedule,
    MlpBlock,
    Tensor,
    TransformerBlock,
    concat,
    cross_entropy,
    init_uniform,
    lr_at,
    no_grad,
    save_checkpoint,
)
from segprompt.nn.layers import LayerNorm
from segprompt.prompting import (
    Prompt,
    Strategy,
    StudyInput,
    View,
    build_prompt,
    realize_embeddings,
)
from segprompt.som import augment_som_prompt

_TOKEN_RE = re.compile(r"[a-z0-9]+|\.")


class Tokenizer:
    """Word-level closed-vocabulary tokenizer with reserved special ids."""

    PAD, BOS, EOS, UNK = 0, 1, 2, 3
    SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

    def __init__(self, words: Iterable[str]):
        seen: dict[str, None] = {}
        for w in words:
            if w not in self.SPECIALS:
                seen.setdefault(w, None)
        self.vocab: list[str] = list(self.SPECIALS) + list(seen)
        self.index = {w: i for i, w in enumerate(self.vocab)}

    def __len__(self) -> int:
        return len(self.vocab)

    @staticmethod
    def tokenize(text: str) -> list[str]:
        return _TOKEN_RE.findall(text.lower())

    def encode(self, text: str) -> list[int]:
        return [self.index.get(tok, self.UNK) for tok in self.tokenize(text)]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.vocab[i] for i in ids]

    def detokenize(self, ids: Sequence[int]) -> str:
        return " ".join(self.decode(ids)).replace(" .", ".")

    def token_count(self, text: str) -> int:
        return len(self.tokenize(text))


@dataclass
class LmConfig:
    vocab_size: int
    dim: int = 64
    depth: int = 2
    heads: int = 4
    max_seq_len: int = 256

    def __post_init__(self):
        if self.depth < 1:
            raise ContractError(f"the decoder LM needs at least one block, got {self.depth}")


class DecoderLm:
    def __init__(self, cfg: LmConfig, seed: int | None = 0):
        """``seed=None`` draws nothing: zero weights for a checkpoint to fill."""
        self.cfg = cfg
        rng = None if seed is None else np.random.default_rng(seed)
        self.tok_emb = Tensor(init_uniform(rng, (cfg.vocab_size, cfg.dim), cfg.dim),
                              requires_grad=True)
        self.pos_emb = Tensor(init_uniform(rng, (cfg.max_seq_len, cfg.dim), cfg.dim),
                              requires_grad=True)
        self.blocks = [TransformerBlock(cfg.dim, cfg.heads, rng, causal=True)
                       for _ in range(cfg.depth)]
        self.ln_f = LayerNorm(cfg.dim)
        self.head = LinearLayer(cfg.dim, cfg.vocab_size, rng)

    def embed(self, ids: Sequence[int]) -> Tensor:
        return self.tok_emb[np.asarray(ids, dtype=np.intp)]

    def forward(self, embeddings: Tensor | np.ndarray, cache: list[KvCache] | None = None,
                rows: Sequence[int] = ()) -> Tensor | np.ndarray:
        """Embeddings (L, dim) -> logits (L, vocab) under causal masking.

        With ``cache`` (one ``KvCache`` per block) the input is a (B, n, dim)
        array: n new rows for each of the B cached sequences ``rows``, each at
        its own next n positions and seeing every cached row of its sequence.
        This path runs on arrays and its logits are a (B, n, vocab) ndarray.
        """
        if cache is None:
            n = embeddings.shape[0]
            pos = slice(0, n)
            pos_emb = self.pos_emb
        else:
            if embeddings.ndim != 3 or len(rows) != embeddings.shape[0]:
                raise ContractError(
                    f"a cached forward takes (B, n, dim) embeddings and B buffer rows; "
                    f"got shape {embeddings.shape} and rows {list(rows)}")
            start = cache[0].lens[rows]
            n = max(start.tolist()) + embeddings.shape[1]
            pos = start[:, None] + np.arange(embeddings.shape[1])
            pos_emb = self.pos_emb.data
        if n > self.cfg.max_seq_len:
            raise ContractError(
                f"sequence length {n} exceeds max_seq_len {self.cfg.max_seq_len}")
        x = embeddings + pos_emb[pos]
        for i, block in enumerate(self.blocks):
            x = block(x, None if cache is None else cache[i], rows)
        return self.head(self.ln_f(x))

    def named_params(self, prefix: str = "lm") -> dict[str, Tensor]:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"{prefix}.block{i}"))
        out.update(self.ln_f.named_params(f"{prefix}.ln_f"))
        out.update(self.head.named_params(f"{prefix}.head"))
        return out


def make_adapter(enc_dim: int, lm_dim: int, rng: np.random.Generator | None) -> MlpBlock:
    """The 4-linear-layer MLP adapter from encoder width to LM width."""
    return MlpBlock([enc_dim, lm_dim, lm_dim, lm_dim, lm_dim], rng=rng)


def adapt(fg: FeatureGrid, adapter: MlpBlock) -> Tensor:
    """One LM-width embedding per patch cell, row-major."""
    if fg.dim != adapter.layers[0].in_dim:
        raise ContractError(
            f"feature width {fg.dim} != adapter input {adapter.layers[0].in_dim}")
    return adapter(fg.features)


def forward_loss(lm: DecoderLm, prompt_embeddings: Tensor, target_ids: Sequence[int],
                 logit_bias: np.ndarray | None = None) -> Tensor:
    """Mean autoregressive cross-entropy over the target positions only.

    The input sequence is the prompt followed by all but the last target
    embedding; the logit at the last prompt position predicts the first
    target token. ``logit_bias`` (input_len, vocab) is a test hook added to
    the logits before the loss.
    """
    p_len = prompt_embeddings.shape[0]
    t_len = len(target_ids)
    if t_len == 0:
        raise ContractError("empty target sequence")
    if p_len + t_len > lm.cfg.max_seq_len:
        raise ContractError(
            f"prompt ({p_len}) + target ({t_len}) exceeds max_seq_len "
            f"{lm.cfg.max_seq_len}")
    targets = np.asarray(target_ids, dtype=np.intp)
    if t_len > 1:
        inputs = concat([prompt_embeddings, lm.embed(targets[:-1])], axis=0)
    else:
        inputs = prompt_embeddings
    logits = lm.forward(inputs)
    if logit_bias is not None:
        logits = logits + np.asarray(logit_bias)
    return cross_entropy(logits[p_len - 1:p_len - 1 + t_len], targets)


# Sequences one ``generate`` call decodes in lockstep. A prompt waits for a
# free row; a row frees when its sequence ends (EOS or its cap).
DECODE_ROWS = 16


def generate(lm: DecoderLm, prompts: Sequence[Tensor], max_new: int,
             eos_id: int = Tokenizer.EOS) -> list[list[int]]:
    """Greedy decoding of each (L, dim) prompt until EOS, max_new tokens or a
    full max_seq_len; deterministic. One id list per prompt, each
    bit-identical to decoding that prompt alone.

    Each prompt is prefilled on its own, as a (1, L, dim) input, into a row
    of the per-block key/value buffers. Then every live row steps together
    as one (B, 1, dim) input: the row-wise layers see the batch, attention
    runs per row over its own cache (see ``AttentionBlock``). Rows leave when
    they end and waiting prompts take them (iteration-level scheduling).
    """
    cap = []
    for prompt in prompts:
        p_len = prompt.shape[0]
        if p_len > lm.cfg.max_seq_len:
            raise ContractError(
                f"prompt ({p_len}) exceeds max_seq_len {lm.cfg.max_seq_len}")
        cap.append(min(max_new, lm.cfg.max_seq_len - p_len))
    out: list[list[int]] = [[] for _ in prompts]
    n_rows = min(len(prompts), DECODE_ROWS)
    cache = [KvCache(n_rows, lm.cfg.max_seq_len, lm.cfg.dim) for _ in lm.blocks]
    free = list(range(n_rows - 1, -1, -1))
    waiting = [i for i in range(len(prompts) - 1, -1, -1) if cap[i] > 0]
    live: list[tuple[int, int]] = []  # (buffer row, prompt index)

    def advance(seqs: list[tuple[int, int]], x: np.ndarray) -> None:
        """Run ``x`` (B, n, dim) on the sequences ``seqs``; append each one's
        argmax at its last row and keep it live until EOS or its cap."""
        logits = lm.forward(x, cache, [row for row, _ in seqs])[:, -1]
        for (row, i), next_id in zip(seqs, np.argmax(logits, axis=-1).tolist()):
            if next_id != eos_id:
                out[i].append(next_id)
                if len(out[i]) < cap[i]:
                    live.append((row, i))
                    continue
            free.append(row)

    tok_emb = lm.tok_emb.data
    while waiting or live:
        while waiting and free:
            row, i = free.pop(), waiting.pop()
            for c in cache:
                c.lens[row] = 0
            advance([(row, i)], prompts[i].data[None])
        seqs, live = live, []
        if seqs:
            advance(seqs, tok_emb[[out[i][-1] for _, i in seqs]][:, None])
    return out


# -- the assembled model --------------------------------------------------------


@dataclass
class ModelConfig:
    encoder: VitConfig = field(default_factory=VitConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    lm_dim: int = 64
    lm_depth: int = 2
    lm_heads: int = 4
    max_seq_len: int = 256
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``asdict``; every key and value type is checked, the
        ``encoder`` and ``extractor`` objects' too."""
        return cls(**checked_fields(d, cls))


class ReportModel:
    """Encoder + segmentation tokens extractor + adapter + decoder LM."""

    def __init__(self, cfg: ModelConfig, vocab_words: Iterable[str], init: bool = True):
        """``init=False`` draws no random init (zero weights): for a model that
        a checkpoint fills, which ``load_into`` checks name by name."""
        if cfg.extractor.tap_layers != cfg.encoder.tap_layers:
            raise ContractError("extractor taps must match encoder taps")
        if cfg.extractor.dim != cfg.encoder.dim:
            raise ContractError("extractor width must match encoder feature width")
        self.cfg = cfg
        self.tokenizer = Tokenizer(vocab_words)
        def seed(offset: int) -> int | None:
            return cfg.seed + offset if init else None

        self.encoder = VitEncoder(cfg.encoder, seed=seed(0))
        self.extractor = SegTokenExtractor(cfg.extractor, seed=seed(1))
        rng = np.random.default_rng(seed(2)) if init else None
        self.adapter = make_adapter(cfg.encoder.dim, cfg.lm_dim, rng)
        self.bridge: LinearLayer | None = None
        if cfg.extractor.dim != cfg.lm_dim:
            self.bridge = LinearLayer(cfg.extractor.dim, cfg.lm_dim, rng)
        self.lm = DecoderLm(LmConfig(vocab_size=len(self.tokenizer), dim=cfg.lm_dim,
                                     depth=cfg.lm_depth, heads=cfg.lm_heads,
                                     max_seq_len=cfg.max_seq_len), seed=seed(3))

    def component_params(self) -> dict[str, dict[str, Tensor]]:
        """Named parameters per component, in checkpoint order; ``bridge``
        only when the extractor and LM widths differ."""
        out = {"encoder": self.encoder.named_params("enc"),
               "extractor": self.extractor.named_params("seg"),
               "adapter": self.adapter.named_params("adapter")}
        if self.bridge is not None:
            out["bridge"] = self.bridge.named_params("bridge")
        out["lm"] = self.lm.named_params("lm")
        return out

    def named_params(self) -> dict[str, Tensor]:
        return {name: p for params in self.component_params().values()
                for name, p in params.items()}

    # -- realization ------------------------------------------------------------

    def text_embedder(self, text: str) -> Tensor | None:
        ids = self.tokenizer.encode(text)
        return self.lm.embed(ids) if ids else None

    def encode_views(self, studies: Sequence[StudyInput],
                     single_view: bool = False) -> list[dict[View, EncoderOutput]]:
        """Every view of every study through one ``encode`` call; one
        ``{view: output}`` per study."""
        per_study = [study.views(single_view) for study in studies]
        outs = iter(self.encoder.encode([image for views in per_study for _, image, _ in views]))
        return [{view: next(outs) for view, _, _ in views} for views in per_study]

    def seg_pairs(self, study: StudyInput, enc_out: dict[View, EncoderOutput],
                  strategy: Strategy, single_view: bool = False
                  ) -> dict[View, list[SegTokenPair]]:
        if strategy is Strategy.NS:
            return {}
        pairs: dict[View, list[SegTokenPair]] = {}
        for view, _, ms in study.views(single_view):
            pairs[view] = extract_tokens(enc_out[view].taps, ms,
                                         self.cfg.encoder.patch_size, self.extractor)
        return pairs

    def prompt_for(self, study: StudyInput, strategy: Strategy,
                   single_view: bool = False) -> Prompt:
        prompt = build_prompt(study, strategy, single_view)
        legends = study.som_legends
        if legends:
            for view, _, _ in study.views(single_view):
                legend = legends.get(view)
                if legend:
                    prefix = "prior " if view is View.PRIOR_FRONTAL else ""
                    prompt = augment_som_prompt(prompt, legend, name_prefix=prefix)
        return prompt

    def realize(self, study: StudyInput, strategy: Strategy, single_view: bool = False,
                enc_out: dict[View, EncoderOutput] | None = None,
                prompt: Prompt | None = None) -> Tensor:
        if enc_out is None:
            [enc_out] = self.encode_views([study], single_view)
        if prompt is None:
            prompt = self.prompt_for(study, strategy, single_view)
        pairs = self.seg_pairs(study, enc_out, strategy, single_view)
        return realize_embeddings(
            prompt, enc_out, pairs, self.text_embedder,
            lambda fg: adapt(fg, self.adapter),
            bridge=(self.bridge.__call__ if self.bridge is not None else None))

    def target_ids(self, study: StudyInput) -> list[int]:
        if study.target_findings is None:
            raise ContractError(f"study {study.study_id!r} has no target findings")
        return self.tokenizer.encode(study.target_findings)

    def study_loss(self, study: StudyInput, strategy: Strategy, single_view: bool = False,
                   enc_out: dict[View, EncoderOutput] | None = None,
                   prompt: Prompt | None = None) -> Tensor:
        emb = self.realize(study, strategy, single_view, enc_out=enc_out, prompt=prompt)
        targets = self.target_ids(study) + [Tokenizer.EOS]
        return forward_loss(self.lm, emb, targets)

    def generate_reports(self, studies: Sequence[StudyInput], strategy: Strategy,
                         single_view: bool = False, max_new: int = 48) -> list[list[int]]:
        """Greedy report ids for each study, decoded in lockstep; a study's ids
        do not depend on the others decoded with it."""
        with no_grad():
            encoded = self.encode_views(studies, single_view)
            prompts = [self.realize(study, strategy, single_view, enc_out=enc_out)
                       for study, enc_out in zip(studies, encoded)]
        return generate(self.lm, prompts, max_new)


# -- training --------------------------------------------------------------------


COMPONENTS = ("encoder", "extractor", "adapter", "bridge", "lm")


@dataclass
class TrainConfig:
    epochs: int = 3
    base_lr: float = 2e-3  # full-scale training uses 2e-5; rescaled for toy widths
    warmup_ratio: float = 0.03
    batch_size: int = 8
    seed: int = 0
    strategy: Strategy = Strategy.SS
    single_view: bool = False
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    max_steps: int | None = None
    precision: str = "float32"
    frozen: tuple[str, ...] = ("encoder",)  # every other component trains

    def __post_init__(self):
        unknown = sorted(set(self.frozen) - set(COMPONENTS))
        if unknown:
            raise ContractError(
                f"unknown frozen component(s) {unknown}; expected names from {COMPONENTS}")
        if self.precision not in ("float32", "float64"):
            raise ContractError(f"unsupported dtype {self.precision!r} for key 'precision'; "
                                "expected 'float32' or 'float64'")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of ``asdict``: every key and value type is checked, JSON
        lists become tuples and the strategy an enum."""
        return cls(**checked_fields(d, cls))


@dataclass
class TrainResult:
    curve: list[tuple[int, float, float]]  # (step, lr, loss)
    total_steps: int
    final_loss: float


def train(model: ReportModel, dataset: list[StudyInput], tc: TrainConfig,
          out_dir: str | Path | None = None) -> TrainResult:
    """Single-stage training. Every parameter of a component in ``tc.frozen``
    gets ``requires_grad=False`` and every other one ``True``; AdamW updates
    only the latter, and backward computes no gradient for the former.

    Each study of a batch is backpropagated as soon as its loss is built,
    seeded with ``1 / len(batch)``, and its graph is freed by that backward;
    the step loss is the mean of the per-study values. Only one study's graph
    is alive at a time, so memory does not grow with ``batch_size``. The
    parameter gradients are bit-identical to one backward of the batch mean:
    that graph's reverse topological order adds the per-study contributions
    to each parameter in batch order too, and gives each study loss the same
    seed. Writes checkpoint, loss curve CSV and config JSON when out_dir is
    given.
    """
    if not dataset:
        raise ContractError("empty training dataset")
    for component, params in model.component_params().items():
        for p in params.values():
            p.requires_grad = component not in tc.frozen
    opt = AdamW({name: p for name, p in model.named_params().items() if p.requires_grad},
                betas=tc.betas, eps=tc.eps, weight_decay=tc.weight_decay)

    n = len(dataset)
    steps_per_epoch = math.ceil(n / tc.batch_size)
    total_steps = tc.max_steps if tc.max_steps is not None else tc.epochs * steps_per_epoch
    schedule = LrSchedule(tc.base_lr, total_steps, tc.warmup_ratio)

    encoder_frozen = "encoder" in tc.frozen
    enc_cache: list[dict[View, EncoderOutput]] = []
    prompts = [model.prompt_for(s, tc.strategy, tc.single_view) for s in dataset]
    if encoder_frozen:
        enc_cache = model.encode_views(dataset, tc.single_view)

    rng = np.random.default_rng(tc.seed)
    order: list[int] = []
    curve: list[tuple[int, float, float]] = []
    for step in range(total_steps):
        batch: list[int] = []
        while len(batch) < min(tc.batch_size, n):
            if not order:
                order = list(rng.permutation(n))
            batch.append(order.pop(0))
        losses = []
        for i in batch:
            enc_out = enc_cache[i] if encoder_frozen else None
            loss = model.study_loss(dataset[i], tc.strategy, tc.single_view,
                                    enc_out=enc_out, prompt=prompts[i])
            (loss * (1.0 / len(batch))).backward()
            losses.append(loss)
        with no_grad():
            loss_value = concat([l.reshape(1) for l in losses], axis=0).mean().item()
        if not math.isfinite(loss_value):
            raise RuntimeError(f"non-finite loss at step {step}")
        lr = lr_at(schedule, step)
        opt.step(lr)
        opt.zero_grad()
        curve.append((step, lr, loss_value))

    tail = curve[-steps_per_epoch:]
    result = TrainResult(curve=curve, total_steps=total_steps,
                         final_loss=float(np.mean([c[2] for c in tail])))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "model.ckpt", model.named_params())
        with open(out / "loss_curve.csv", "w", encoding="utf-8") as fh:
            fh.write("step,lr,loss\n")
            for step, lr, loss_value in curve:
                fh.write(f"{step},{lr:.10g},{loss_value:.10g}\n")
        echo = {"train": asdict(tc), "model": asdict(model.cfg),
                "vocab": model.tokenizer.vocab}
        with open(out / "train_config.json", "w", encoding="utf-8") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result
