"""The trainable stack: tokenizer, MLP adapter, small decoder-only LM, the
single-stage training loop (frozen encoder, trainable extractor/adapter/LM),
and greedy generation.

Greedy decoding is KV-cached and graph-free: under ``no_grad`` the prompt is
prefilled once, then each step feeds only the newest token's embedding and
attends over the cached keys and values.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from segprompt.errors import ContractError
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
    causal: bool = True

    def __post_init__(self):
        if not self.causal:
            raise ContractError("the decoder LM is always causal")
        if self.depth < 1:
            raise ContractError(f"the decoder LM needs at least one block, got {self.depth}")


class DecoderLm:
    def __init__(self, cfg: LmConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
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

    def forward(self, embeddings: Tensor, cache: list[KvCache] | None = None) -> Tensor:
        """Embeddings (L, dim) -> logits (L, vocab) under causal masking.

        With ``cache`` (one ``KvCache`` per block) the rows continue the
        cached sequence: they take the next positions and see every cached row.
        """
        start = len(cache[0]) if cache else 0
        n = start + embeddings.shape[0]
        if n > self.cfg.max_seq_len:
            raise ContractError(
                f"sequence length {n} exceeds max_seq_len {self.cfg.max_seq_len}")
        x = embeddings + self.pos_emb[start:n]
        for i, block in enumerate(self.blocks):
            x = block(x, None if cache is None else cache[i])
        return self.head(self.ln_f(x))

    def named_params(self, prefix: str = "lm") -> dict[str, Tensor]:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"{prefix}.block{i}"))
        out.update(self.ln_f.named_params(f"{prefix}.ln_f"))
        out.update(self.head.named_params(f"{prefix}.head"))
        return out


def make_adapter(enc_dim: int, lm_dim: int, rng: np.random.Generator) -> MlpBlock:
    """The 4-linear-layer MLP adapter from encoder width to LM width."""
    return MlpBlock([enc_dim, lm_dim, lm_dim, lm_dim, lm_dim], activation="gelu", rng=rng)


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


def generate(lm: DecoderLm, prompt_embeddings: Tensor, max_new: int,
             eos_id: int = Tokenizer.EOS) -> list[int]:
    """Greedy decoding until EOS, max_new tokens or a full max_seq_len;
    deterministic. The prompt is prefilled once, then each step feeds only
    the newest token against the per-block key/value cache."""
    p_len = prompt_embeddings.shape[0]
    if p_len > lm.cfg.max_seq_len:
        raise ContractError(
            f"prompt ({p_len}) exceeds max_seq_len {lm.cfg.max_seq_len}")
    out: list[int] = []
    cache = [KvCache() for _ in lm.blocks]
    inputs = prompt_embeddings
    with no_grad():
        for _ in range(min(max_new, lm.cfg.max_seq_len - p_len)):
            next_id = int(np.argmax(lm.forward(inputs, cache).data[-1]))
            if next_id == eos_id:
                break
            out.append(next_id)
            inputs = lm.embed([next_id])
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

    def to_dict(self) -> dict:
        return {
            "encoder": asdict(self.encoder),
            "extractor": asdict(self.extractor),
            "lm_dim": self.lm_dim, "lm_depth": self.lm_depth,
            "lm_heads": self.lm_heads, "max_seq_len": self.max_seq_len,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        enc = dict(d.get("encoder", {}))
        ext = dict(d.get("extractor", {}))
        for sub in (enc, ext):
            if "tap_layers" in sub:
                sub["tap_layers"] = tuple(sub["tap_layers"])
        scalars = {k: d[k] for k in ("lm_dim", "lm_depth", "lm_heads", "max_seq_len",
                                     "seed") if k in d}
        return cls(encoder=VitConfig(**enc), extractor=ExtractorConfig(**ext), **scalars)


COMPONENT_PREFIXES = {"encoder": "enc", "extractor": "seg", "adapter": "adapter",
                      "bridge": "bridge", "lm": "lm"}


class ReportModel:
    """Encoder + segmentation tokens extractor + adapter + decoder LM."""

    def __init__(self, cfg: ModelConfig, vocab_words: Iterable[str]):
        if cfg.extractor.tap_layers != cfg.encoder.tap_layers:
            raise ContractError("extractor taps must match encoder taps")
        if cfg.extractor.dim != cfg.encoder.dim:
            raise ContractError("extractor width must match encoder feature width")
        self.cfg = cfg
        self.tokenizer = Tokenizer(vocab_words)
        self.encoder = VitEncoder(cfg.encoder, seed=cfg.seed)
        self.extractor = SegTokenExtractor(cfg.extractor, seed=cfg.seed + 1)
        rng = np.random.default_rng(cfg.seed + 2)
        self.adapter = make_adapter(cfg.encoder.dim, cfg.lm_dim, rng)
        self.bridge: LinearLayer | None = None
        if cfg.extractor.dim != cfg.lm_dim:
            self.bridge = LinearLayer(cfg.extractor.dim, cfg.lm_dim, rng)
        self.lm = DecoderLm(LmConfig(vocab_size=len(self.tokenizer), dim=cfg.lm_dim,
                                     depth=cfg.lm_depth, heads=cfg.lm_heads,
                                     max_seq_len=cfg.max_seq_len), seed=cfg.seed + 3)

    def components(self) -> tuple[str, ...]:
        names = ["encoder", "extractor", "adapter", "lm"]
        if self.bridge is not None:
            names.insert(3, "bridge")
        return tuple(names)

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params("enc")
        out.update(self.extractor.named_params("seg"))
        out.update(self.adapter.named_params("adapter"))
        if self.bridge is not None:
            out.update(self.bridge.named_params("bridge"))
        out.update(self.lm.named_params("lm"))
        return out

    # -- realization ------------------------------------------------------------

    def text_embedder(self, text: str) -> Tensor | None:
        ids = self.tokenizer.encode(text)
        return self.lm.embed(ids) if ids else None

    def encode_views(self, study: StudyInput, single_view: bool = False,
                     detached: bool = False) -> dict[View, EncoderOutput]:
        out: dict[View, EncoderOutput] = {}
        for view, image, _ in study.views(single_view):
            enc = self.encoder.encode(image)
            if detached:
                enc = EncoderOutput(
                    taps={k: FeatureGrid(fg.rows, fg.cols, Tensor(fg.features.data.copy()))
                          for k, fg in enc.taps.items()},
                    final=FeatureGrid(enc.final.rows, enc.final.cols,
                                      Tensor(enc.final.features.data.copy())))
            out[view] = enc
        return out

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
            enc_out = self.encode_views(study, single_view)
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

    def generate_report(self, study: StudyInput, strategy: Strategy,
                        single_view: bool = False, max_new: int = 48) -> list[int]:
        with no_grad():
            emb = self.realize(study, strategy, single_view)
        return generate(self.lm, emb, max_new)


# -- training --------------------------------------------------------------------


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
    frozen: tuple[str, ...] = ("encoder",)
    trainable: tuple[str, ...] = ("extractor", "adapter", "bridge", "lm")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["strategy"] = self.strategy.value
        return d


@dataclass
class TrainResult:
    curve: list[tuple[int, float, float]]  # (step, lr, loss)
    total_steps: int
    final_loss: float


def train(model: ReportModel, dataset: list[StudyInput], tc: TrainConfig,
          out_dir: str | Path | None = None) -> TrainResult:
    """Single-stage training: only the configured trainable components are
    updated; gradients for frozen components are discarded by the optimizer.
    Writes checkpoint, loss curve CSV and config JSON when out_dir is given.
    """
    if not dataset:
        raise ContractError("empty training dataset")
    present = set(model.components())
    frozen, trainable = set(tc.frozen) & present, set(tc.trainable) & present
    if frozen & trainable:
        raise ContractError(f"frozen and trainable overlap: {sorted(frozen & trainable)}")
    if frozen | trainable != present:
        raise ContractError(
            f"frozen+trainable must cover components {sorted(present)}")

    params = model.named_params()
    frozen_prefixes = tuple(COMPONENT_PREFIXES[c] for c in sorted(frozen))
    opt = AdamW(params, betas=tc.betas, eps=tc.eps, weight_decay=tc.weight_decay,
                frozen_prefixes=frozen_prefixes)

    n = len(dataset)
    steps_per_epoch = math.ceil(n / tc.batch_size)
    total_steps = tc.max_steps if tc.max_steps is not None else tc.epochs * steps_per_epoch
    schedule = LrSchedule(tc.base_lr, total_steps, tc.warmup_ratio)

    encoder_frozen = "encoder" in frozen
    enc_cache: list[dict[View, EncoderOutput]] = []
    prompts = [model.prompt_for(s, tc.strategy, tc.single_view) for s in dataset]
    if encoder_frozen:
        enc_cache = [model.encode_views(s, tc.single_view, detached=True) for s in dataset]

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
            losses.append(model.study_loss(dataset[i], tc.strategy, tc.single_view,
                                           enc_out=enc_out, prompt=prompts[i]))
        loss = concat([l.reshape(1) for l in losses], axis=0).mean()
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            raise RuntimeError(f"non-finite loss at step {step}")
        lr = lr_at(schedule, step)
        loss.backward()
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
        echo = {"train": tc.to_dict(), "model": model.cfg.to_dict(),
                "vocab": model.tokenizer.vocab}
        with open(out / "train_config.json", "w", encoding="utf-8") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result
