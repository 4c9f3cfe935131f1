"""Tokenizer, adapter, LM loss/generation, and the training loop contracts."""

import copy
import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segprompt.errors import ContractError, checked_fields
from segprompt.encoder import FeatureGrid, VitConfig, VitEncoder
from segprompt.extractor import ExtractorConfig, SegTokenExtractor
from segprompt.masks import positive_structures
from segprompt import mllm
from segprompt.mllm import (
    DecoderLm,
    LmConfig,
    ModelConfig,
    ReportModel,
    Tokenizer,
    TrainConfig,
    adapt,
    forward_loss,
    generate,
    make_adapter,
    train,
)
from segprompt.nn import (
    AdamW,
    KvCache,
    LrSchedule,
    Tensor,
    concat,
    load_into,
    lr_at,
    no_grad,
    save_checkpoint,
)
from segprompt.prompting import ImageSlot, SegSlot, Strategy, TextSpan, View, build_prompt
from segprompt.prompting import ANNOTATION_ROLES
from segprompt.nn import tensor as T
from segprompt.synth import SynthSpec, make_study, vocabulary

from helpers import cast_params, finite_diff_grad, grad_rel_error


def tiny_model_config(lm_dim=12, seed=0) -> ModelConfig:
    return ModelConfig(
        encoder=VitConfig(image_size=32, patch_size=16, depth=2, dim=12, heads=2,
                          tap_layers=(1, 2)),
        extractor=ExtractorConfig(spatial_side=8, mlp_depth=2),
        lm_dim=lm_dim, lm_depth=1, lm_heads=2, max_seq_len=160, seed=seed)


def tiny_studies(n=3, seed=5, **spec_kw):
    base = dict(seed=seed, n_studies=n, image_size=32, lateral_prob=0.0,
                prior_prob=0.0, heart_area_threshold=50)
    base.update(spec_kw)
    spec = SynthSpec(**base)
    return [make_study(spec, i) for i in range(n)]


class TestTokenizer:
    def test_specials_reserved_low_ids(self):
        tok = Tokenizer(["alpha", "beta"])
        assert tok.vocab[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert (tok.PAD, tok.BOS, tok.EOS, tok.UNK) == (0, 1, 2, 3)

    def test_bijection_on_vocabulary(self):
        words = vocabulary()
        tok = Tokenizer(words)
        for w in words:
            assert tok.vocab[tok.index[w]] == w

    def test_encode_decode_roundtrip(self):
        tok = Tokenizer(vocabulary())
        text = "The lungs are clear. A pneumothorax is present."
        ids = tok.encode(text)
        assert tok.UNK not in ids
        assert tok.detokenize(ids) == text.lower()

    def test_unknown_maps_to_unk(self):
        tok = Tokenizer(["alpha"])
        assert tok.encode("zzz alpha") == [tok.UNK, tok.index["alpha"]]

    def test_whitespace_only_is_empty(self):
        tok = Tokenizer(["a"])
        assert tok.encode("\n") == []
        assert tok.token_count("  \n ") == 0


class TestAdapter:
    def test_one_embedding_per_cell(self):
        rng = np.random.default_rng(0)
        adapter = make_adapter(6, 10, rng)
        assert len(adapter.layers) == 4
        fg = FeatureGrid(4, 4, Tensor(rng.standard_normal((16, 6))))
        assert adapt(fg, adapter).shape == (16, 10)

    def test_matches_independent_straight_line_oracle(self):
        rng = np.random.default_rng(1)
        adapter = make_adapter(5, 7, rng)
        feats = rng.standard_normal((4, 5))
        got = adapt(FeatureGrid(2, 2, Tensor(feats)), adapter).data

        # plain-numpy recomputation: four linear layers, a GELU between each pair
        def np_gelu(x):
            c = np.sqrt(2.0 / np.pi)
            return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

        p = adapter.named_params("adapter")
        h = feats
        for i in range(4):
            if i > 0:
                h = np_gelu(h)
            h = h @ p[f"adapter.{i}.weight"].data.T + p[f"adapter.{i}.bias"].data
        assert got.shape == (4, 7)
        assert np.allclose(got, h, atol=1e-12)

    def test_dim_mismatch(self):
        adapter = make_adapter(6, 10, np.random.default_rng(0))
        with pytest.raises(ContractError):
            adapt(FeatureGrid(2, 2, Tensor(np.zeros((4, 5)))), adapter)

    def test_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(2)
        adapter = make_adapter(4, 6, rng)
        fg = FeatureGrid(2, 2, Tensor(rng.standard_normal((4, 4))))
        w = rng.standard_normal((4, 6))
        (adapt(fg, adapter) * w).sum().backward()
        for name, p in adapter.named_params("adapter").items():
            def f(t, p=p):
                old = p.data
                p.data = t.data.reshape(old.shape)
                try:
                    return float((adapt(fg, adapter) * w).sum().data)
                finally:
                    p.data = old
            num = finite_diff_grad(f, Tensor(p.data))
            assert grad_rel_error(p.grad, num) < 1e-4, name


def add_logit_bias(lm: DecoderLm, bias: np.ndarray) -> None:
    """Make ``lm.forward`` add ``bias`` (input_len, vocab) to its logits."""
    forward = lm.forward
    lm.forward = lambda x: forward(x) + bias


class TestForwardLoss:
    def _lm(self, vocab=11, dim=8, depth=1, heads=2, max_len=32, seed=0):
        return DecoderLm(LmConfig(vocab_size=vocab, dim=dim, depth=depth, heads=heads,
                                  max_seq_len=max_len), seed=seed)

    def test_forced_one_hot_targets(self):
        lm = self._lm()
        rng = np.random.default_rng(3)
        prompt = Tensor(rng.standard_normal((5, 8)))
        targets = [4, 7, 2]
        bias = np.zeros((5 + 2, 11))
        for i, t in enumerate(targets):
            bias[4 + i, t] = 1e4
        add_logit_bias(lm, bias)
        loss = forward_loss(lm, prompt, targets)
        assert loss.item() < 1e-3

    def test_uniform_logits_log_vocab(self):
        lm = self._lm(vocab=13)
        lm.head.weight.data[:] = 0.0
        lm.head.bias.data[:] = 0.0
        prompt = Tensor(np.random.default_rng(4).standard_normal((4, 8)))
        loss = forward_loss(lm, prompt, [1, 5, 9])
        assert loss.item() == pytest.approx(np.log(13), abs=1e-12)

    def test_prompt_position_logits_never_affect_loss(self):
        lm = self._lm()
        rng = np.random.default_rng(5)
        prompt = Tensor(rng.standard_normal((6, 8)))
        targets = [1, 2, 3]
        base = forward_loss(lm, prompt, targets).item()
        bias = np.zeros((6 + 2, 11))
        bias[:5] = rng.standard_normal((5, 11)) * 100.0  # rows before the first prediction
        add_logit_bias(lm, bias)
        perturbed = forward_loss(lm, prompt, targets).item()
        assert perturbed == base

    def test_overflow_reports_lengths(self):
        lm = self._lm(max_len=8)
        prompt = Tensor(np.zeros((6, 8)))
        with pytest.raises(ContractError, match="6.*3|3.*6"):
            forward_loss(lm, prompt, [1, 2, 3])

    def test_matches_independent_straight_line_forward(self):
        lm = self._lm(vocab=11, dim=8, depth=1, heads=2, seed=9)
        rng = np.random.default_rng(6)
        prompt = rng.standard_normal((5, 8))
        targets = np.array([3, 8, 1])
        got = forward_loss(lm, Tensor(prompt), list(targets)).item()

        # plain-numpy recomputation of the whole forward pass
        def ln(x, gamma, beta, eps=1e-5):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(var + eps) * gamma + beta

        def np_gelu(x):
            c = np.sqrt(2.0 / np.pi)
            return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

        p = lm.named_params("lm")
        ids_in = targets[:-1]
        x = np.concatenate([prompt, p["lm.tok_emb"].data[ids_in]], axis=0)
        L = x.shape[0]
        x = x + p["lm.pos_emb"].data[:L]
        blk = "lm.block0"
        h = ln(x, p[f"{blk}.ln1.gamma"].data, p[f"{blk}.ln1.beta"].data)
        q = h @ p[f"{blk}.attn.wq.weight"].data.T + p[f"{blk}.attn.wq.bias"].data
        k = h @ p[f"{blk}.attn.wk.weight"].data.T + p[f"{blk}.attn.wk.bias"].data
        v = h @ p[f"{blk}.attn.wv.weight"].data.T + p[f"{blk}.attn.wv.bias"].data
        heads, hd = 2, 4
        ctx = np.zeros_like(h)
        for hh in range(heads):
            sl = slice(hh * hd, (hh + 1) * hd)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
            scores = scores + np.triu(np.full((L, L), -1e30), k=1)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            attn = e / e.sum(axis=1, keepdims=True)
            ctx[:, sl] = attn @ v[:, sl]
        x = x + ctx @ p[f"{blk}.attn.proj.weight"].data.T + p[f"{blk}.attn.proj.bias"].data
        h = ln(x, p[f"{blk}.ln2.gamma"].data, p[f"{blk}.ln2.beta"].data)
        h = np_gelu(h @ p[f"{blk}.mlp.0.weight"].data.T + p[f"{blk}.mlp.0.bias"].data)
        x = x + h @ p[f"{blk}.mlp.1.weight"].data.T + p[f"{blk}.mlp.1.bias"].data
        x = ln(x, p["lm.ln_f.gamma"].data, p["lm.ln_f.beta"].data)
        logits = x @ p["lm.head.weight"].data.T + p["lm.head.bias"].data
        rows = logits[4:7]
        lse = np.log(np.exp(rows - rows.max(axis=1, keepdims=True)).sum(axis=1)) \
            + rows.max(axis=1)
        expected = float(np.mean(lse - rows[np.arange(3), targets]))
        assert got == pytest.approx(expected, abs=1e-10)


class TestGenerate:
    def test_max_new_zero(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=16))
        prompt = Tensor(np.zeros((3, 8)))
        assert generate(lm, [prompt], max_new=0) == [[]]

    def test_deterministic(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=32),
                       seed=1)
        prompt = Tensor(np.random.default_rng(7).standard_normal((4, 8)))
        assert generate(lm, [prompt], max_new=6) == generate(lm, [prompt], max_new=6)

    def test_stops_at_eos(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=32))
        lm.head.weight.data[:] = 0.0
        lm.head.bias.data[:] = 0.0
        lm.head.bias.data[Tokenizer.EOS] = 10.0
        prompt = Tensor(np.random.default_rng(8).standard_normal((4, 8)))
        assert generate(lm, [prompt], max_new=5) == [[]]

    def test_prompt_over_max_seq_len_rejected(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=8))
        prompt = Tensor(np.zeros((9, 8)))
        with pytest.raises(ContractError, match="9.*8"):
            generate(lm, [prompt], max_new=4)

    def test_prompt_at_max_seq_len_leaves_no_room(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=8))
        prompt = Tensor(np.random.default_rng(9).standard_normal((8, 8)))
        assert generate(lm, [prompt], max_new=4) == [[]]


def full_recompute_generate(lm, prompt, max_new, eos_id=Tokenizer.EOS):
    """Reference decoder: re-run the LM over the whole prefix for every token.
    Returns the tokens and the last-row logits of every step."""
    out, rows = [], []
    for _ in range(max_new):
        inputs = concat([prompt, lm.embed(out)], axis=0) if out else prompt
        if inputs.shape[0] >= lm.cfg.max_seq_len:
            break
        last = lm.forward(inputs).data[-1]
        rows.append(last)
        next_id = int(np.argmax(last))
        if next_id == eos_id:
            break
        out.append(next_id)
    return out, rows


def lockstep_recorder(lm, prompts, max_new):
    """Shadow lm.forward (the prefills) and lm.decode_step (the steps) for a
    ``generate(lm, prompts, ...)`` call: keep each prompt's last-row logits of
    its prefill, then of each step, and the shape of every prefill and step
    input. A buffer row belongs to the prompt last prefilled into it; prompts
    with room to decode are admitted in order. ``stop_recording(lm)`` undoes
    it."""
    rows = [[] for _ in prompts]
    shapes = []
    admitted = iter([i for i, p in enumerate(prompts)
                     if max_new > 0 and p.shape[0] < lm.cfg.max_seq_len])
    owner = {}
    forward, decode_step = lm.forward, lm.decode_step

    def recorded(embeddings, cache=None, row=0):
        logits = forward(embeddings, cache, row)
        if cache is not None:
            shapes.append(embeddings.shape)
            owner[row] = next(admitted)
            rows[owner[row]].append(logits.data[-1].copy())
        return logits

    def recorded_step(cache):
        step = decode_step(cache)

        def run(x, buffer_rows):
            shapes.append(x.shape)
            logits = step(x, buffer_rows)
            for b, row in enumerate(buffer_rows):
                rows[owner[row]].append(logits[b, -1].copy())
            return logits
        return run

    lm.forward, lm.decode_step = recorded, recorded_step
    return rows, shapes


def step_batches(shapes, dim=8):
    """The batch size B of every recorded step, after checking that each
    prefill was a plain (L, dim) forward and each step a (B, 1, dim) input."""
    assert all(len(s) == 2 and s[1] == dim or s[1:] == (1, dim) for s in shapes), shapes
    return [s[0] for s in shapes if len(s) == 3]


def stop_recording(lm):
    del lm.forward, lm.decode_step


def assert_same_decode(got, got_rows, ref, ref_rows):
    assert got == ref
    assert len(got_rows) == len(ref_rows)
    assert np.max(np.abs(np.array(got_rows) - np.array(ref_rows))) < 1e-10


class TestCachedDecoding:
    """Cached decoding against the full-recompute reference, in float64."""

    def test_random_lms_match_full_recompute(self):
        decoded = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2,
                                    max_seq_len=48), seed=seed)
            prompt = Tensor(rng.standard_normal((int(rng.integers(7, 12)), 8)))
            ref, ref_rows = full_recompute_generate(lm, prompt, 16)
            (rows,), _ = lockstep_recorder(lm, [prompt], 16)
            [got] = generate(lm, [prompt], 16)
            assert_same_decode(got, rows, ref, ref_rows)
            decoded += len(ref)
        assert decoded >= 100  # most reports run long, not stop at EOS at once

    def test_max_seq_len_cap_mid_report(self):
        lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2, max_seq_len=16),
                       seed=3)
        lm.head.bias.data[Tokenizer.EOS] = -1e3
        prompt = Tensor(np.random.default_rng(4).standard_normal((9, 8)))
        ref, ref_rows = full_recompute_generate(lm, prompt, 20)
        (rows,), _ = lockstep_recorder(lm, [prompt], 20)
        [got] = generate(lm, [prompt], 20)
        assert len(ref) == 16 - 9
        assert_same_decode(got, rows, ref, ref_rows)

    def test_lm_without_blocks_rejected(self):
        with pytest.raises(ContractError, match="block"):
            LmConfig(vocab_size=9, depth=0)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_report_model_multi_view(self, strategy):
        model = ReportModel(tiny_model_config(), vocabulary())
        for study in tiny_studies(2, seed=11, lateral_prob=1.0, prior_prob=1.0):
            assert len(study.views()) == 3
            emb = model.realize(study, strategy)
            ref, ref_rows = full_recompute_generate(model.lm, emb, 24)
            (rows,), _ = lockstep_recorder(model.lm, [emb], 24)
            [got] = model.generate_reports([study], strategy, max_new=24)
            stop_recording(model.lm)
            assert_same_decode(got, rows, ref, ref_rows)
            assert len(got) > 0


class TestKvCache:
    def test_fill_writes_only_its_row_in_place(self):
        """``fill(row, k, v)`` writes the n keys and values into the first n
        positions of buffer row ``row`` and sets ``lens[row]`` to n; every
        other position and length keeps its value, and the buffers stay the
        same arrays."""
        cache = KvCache(rows=3, max_len=10, width=4)
        k_buf, v_buf = cache.k, cache.v
        cache.k[:] = np.nan
        cache.v[:] = np.nan
        cache.lens[:] = [7, 3, 9]
        rng = np.random.default_rng(0)
        for row, n in ((1, 4), (1, 2), (0, 10), (2, 1)):
            k, v = rng.standard_normal((2, n, 4))
            before_k, before_v, before_lens = cache.k.copy(), cache.v.copy(), cache.lens.copy()
            assert cache.fill(row, k, v) is None
            assert cache.k is k_buf and cache.v is v_buf
            np.testing.assert_array_equal(k_buf[row, :n], k)
            np.testing.assert_array_equal(v_buf[row, :n], v)
            changed = np.zeros(k_buf.shape, dtype=bool)
            changed[row, :n] = True
            np.testing.assert_array_equal(k_buf[~changed], before_k[~changed])
            np.testing.assert_array_equal(v_buf[~changed], before_v[~changed])
            before_lens[row] = n
            assert cache.lens.tolist() == before_lens.tolist()
        assert cache.lens.tolist() == [10, 2, 1]

    def test_fill_past_max_seq_len_names_both_lengths(self):
        cache = KvCache(rows=2, max_len=6, width=2)
        cache.fill(1, np.ones((5, 2)), np.ones((5, 2)))
        before = cache.k.copy(), cache.v.copy()
        with pytest.raises(ContractError, match=r"row 1: 7 rows exceed max_seq_len 6"):
            cache.fill(1, np.zeros((7, 2)), np.zeros((7, 2)))
        assert cache.lens.tolist() == [0, 5]
        np.testing.assert_array_equal(cache.k[1, :5], before[0][1, :5])
        np.testing.assert_array_equal(cache.v[1, :5], before[1][1, :5])

    def test_buffer_takes_the_dtype_it_is_given(self):
        cache = KvCache(1, 4, 2, np.float32)
        assert cache.k.dtype == cache.v.dtype == np.float32
        assert KvCache(1, 4, 2, "float32").k.dtype == np.float32
        assert KvCache(1, 4, 2).v.dtype == np.float64

    def test_prefill_fills_its_row_of_every_block(self):
        """``lm.forward(x, cache, row)`` returns the logits of the plain
        forward and fills each block's buffer row ``row`` with the keys and
        values that block's projections give for the whole prompt."""
        cfg = LmConfig(vocab_size=9, dim=8, depth=2, heads=2, max_seq_len=12)
        lm = DecoderLm(cfg, seed=2)
        x = Tensor(np.random.default_rng(3).standard_normal((5, 8)))
        cache = [KvCache(3, 12, 8) for _ in lm.blocks]
        with no_grad():
            logits = lm.forward(x, cache, 1)
            assert logits.data.tobytes() == lm.forward(x).data.tobytes()
            h = x + lm.pos_emb[:5]
            for block, c in zip(lm.blocks, cache):
                a = block.ln1(h)
                assert c.lens.tolist() == [0, 5, 0]
                assert c.k[1, :5].tobytes() == block.attn.wk(a).data.tobytes()
                assert c.v[1, :5].tobytes() == block.attn.wv(a).data.tobytes()
                h = block(h)

    def test_prefill_over_max_seq_len_writes_nothing(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=6))
        cache = [KvCache(2, 6, 8)]
        with no_grad(), pytest.raises(ContractError, match="7 exceeds max_seq_len 6"):
            lm.forward(Tensor(np.zeros((7, 8))), cache, 0)
        assert cache[0].lens.tolist() == [0, 0]


def decode_alone(lm, prompts, max_new):
    """The per-study reference: each prompt decoded by its own call."""
    out, out_rows = [], []
    for prompt in prompts:
        rows, _ = lockstep_recorder(lm, [prompt], max_new)
        out += generate(lm, [prompt], max_new)
        out_rows += rows
        stop_recording(lm)
    return out, out_rows


def assert_bit_identical(got, got_rows, ref, ref_rows):
    assert got == ref
    for g, r in zip(got_rows, ref_rows):
        assert len(g) == len(r)
        for a, b in zip(g, r):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestLockstepDecoding:
    """Lockstep decoding of several prompts against decoding each alone:
    tokens and every step's logits bit for bit, in float32 and float64."""

    @staticmethod
    def lm_and_prompts(seed, batch, max_seq_len=40, dtype="float64"):
        rng = np.random.default_rng(200 + seed)
        lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2,
                                max_seq_len=max_seq_len), seed=seed)
        cast_params(lm.named_params(), dtype)
        prompts = [Tensor(rng.standard_normal((int(rng.integers(3, 25)), 8)).astype(dtype))
                   for _ in range(batch)]
        return lm, prompts

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_random_lms_unequal_prompts(self, dtype, batch):
        decoded = 0
        for seed in range(6):
            lm, prompts = self.lm_and_prompts(seed, batch, dtype=dtype)
            assert batch == 1 or len({p.shape[0] for p in prompts}) > 1
            ref, ref_rows = decode_alone(lm, prompts, 16)
            rows, shapes = lockstep_recorder(lm, prompts, 16)
            got = generate(lm, prompts, 16)
            assert_bit_identical(got, rows, ref, ref_rows)
            # one plain (L, dim) forward per prompt, then (B, 1, dim) steps
            assert sorted(s for s in shapes if len(s) == 2) == sorted(p.shape for p in prompts)
            assert max(step_batches(shapes)) <= batch
            decoded += sum(map(len, ref))
        assert decoded >= 40 * batch

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_row_hits_max_seq_len(self, dtype):
        lm, _ = self.lm_and_prompts(1, 0, max_seq_len=24, dtype=dtype)
        lm.head.bias.data[Tokenizer.EOS] = -1e3
        rng = np.random.default_rng(5)
        prompts = [Tensor(rng.standard_normal((n, 8)).astype(dtype)) for n in (20, 6, 11, 24, 9)]
        ref, ref_rows = decode_alone(lm, prompts, 12)
        rows, _ = lockstep_recorder(lm, prompts, 12)
        got = generate(lm, prompts, 12)
        assert_bit_identical(got, rows, ref, ref_rows)
        assert len(got[0]) == 24 - 20  # capped by max_seq_len, not by max_new
        assert got[3] == [] and rows[3] == []  # a full prompt leaves no room
        assert [len(got[i]) for i in (1, 2, 4)] == [12, 12, 12]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_row_stops_at_eos_early(self, dtype):
        """The first seed where one row emits EOS while another runs to the
        cap: the batch shrinks mid-report and the rest stay bit-identical."""
        for seed in range(20):
            lm, prompts = self.lm_and_prompts(seed, 5, dtype=dtype)
            ref, ref_rows = decode_alone(lm, prompts, 16)
            lens = [len(ids) for ids in ref]
            if min(lens) < 16 and max(lens) == 16:
                break
        else:
            pytest.fail("no seed gave both an early EOS and a full report")
        rows, shapes = lockstep_recorder(lm, prompts, 16)
        got = generate(lm, prompts, 16)
        assert_bit_identical(got, rows, ref, ref_rows)
        early = lens.index(min(lens))
        assert len(rows[early]) == lens[early] + 1  # the step that emitted EOS
        assert max(step_batches(shapes)) > 1

    def test_rows_are_reused_past_decode_rows(self, monkeypatch):
        monkeypatch.setattr(mllm, "DECODE_ROWS", 2)
        lm, prompts = self.lm_and_prompts(4, 5)
        ref, ref_rows = decode_alone(lm, prompts, 10)
        rows, shapes = lockstep_recorder(lm, prompts, 10)
        got = generate(lm, prompts, 10)
        assert_bit_identical(got, rows, ref, ref_rows)
        assert len(shapes) - len(step_batches(shapes)) == 5  # a prefill per prompt
        assert max(step_batches(shapes)) == 2

    def test_empty_batch_and_zero_budget(self):
        lm, prompts = self.lm_and_prompts(0, 3)
        assert generate(lm, [], 8) == []
        assert generate(lm, prompts, 0) == [[], [], []]

    def test_any_prompt_over_max_seq_len_rejected(self):
        lm, prompts = self.lm_and_prompts(0, 2, max_seq_len=24)
        with pytest.raises(ContractError, match="30.*24"):
            generate(lm, prompts + [Tensor(np.zeros((30, 8)))], 4)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_report_model_multi_view(self, dtype, strategy):
        model = ReportModel(tiny_model_config(), vocabulary(), dtype=dtype)
        studies = tiny_studies(3, seed=11, lateral_prob=0.5, prior_prob=0.5)
        assert len({len(s.views()) for s in studies}) > 1
        with no_grad():
            prompts = [model.realize(s, strategy) for s in studies]
        ref, ref_rows = [], []
        for study, prompt in zip(studies, prompts):
            rows, _ = lockstep_recorder(model.lm, [prompt], 24)
            ref += model.generate_reports([study], strategy, max_new=24)
            ref_rows += rows
            stop_recording(model.lm)
        rows, _ = lockstep_recorder(model.lm, prompts, 24)
        got = model.generate_reports(studies, strategy, max_new=24)
        assert_bit_identical(got, rows, ref, ref_rows)
        assert all(len(ids) > 0 for ids in got)


class TestGraphFreeDecoding:
    def test_decoding_records_no_graph(self, monkeypatch):
        """Given realized prompts of a model whose parameters need grad, every
        ``Tensor`` that ``generate`` makes (the prefills' plain forwards) needs
        no grad and holds no parents or backward closure, and the decode
        steps make no ``Tensor`` at all: they run on arrays."""
        model = ReportModel(tiny_model_config(), vocabulary())
        assert all(p.requires_grad for p in model.named_params().values())
        studies = tiny_studies(3, seed=11, lateral_prob=0.5, prior_prob=0.5)
        with no_grad():
            prompts = [model.realize(s, Strategy.SS) for s in studies]
        made, in_step = [], [False]
        init, make = Tensor.__init__, T._make

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append((in_step[0], self))

        def counted_make(*args):
            out = make(*args)
            made.append((in_step[0], out))
            return out

        rows, _ = lockstep_recorder(model.lm, prompts, 24)
        recorded_step = model.lm.decode_step

        def flagged_step(cache):
            step = recorded_step(cache)

            def run(*args):
                in_step[0] = True
                try:
                    return step(*args)
                finally:
                    in_step[0] = False
            return run

        model.lm.decode_step = flagged_step
        monkeypatch.setattr(Tensor, "__init__", counted_init)
        monkeypatch.setattr(T, "_make", counted_make)
        ids = generate(model.lm, prompts, 24)
        monkeypatch.undo()
        assert sum(map(len, ids)) > len(ids)  # steps ran after the prefills
        assert made and not any(stepping for stepping, _ in made)
        for _, t in made:
            assert not t.requires_grad and t._parents == () and t._backward is None
        assert all(isinstance(r, np.ndarray) for steps in rows for r in steps)


@st.composite
def decode_cases(draw):
    """A seeded LM (dim 8-64, heads dividing dim, depth 1-3), a dtype, B
    prompts of unequal lengths that leave room to step, and a seed."""
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    dim = heads * draw(st.integers(math.ceil(8 / heads), 64 // heads))
    max_len = draw(st.integers(4, 20))
    batch = draw(st.integers(1, 16))
    lens = draw(st.lists(st.integers(1, max_len - 1), min_size=batch, max_size=batch))
    if batch > 1:
        lens[0] = 1 + (lens[1] % (max_len - 1))  # never all equal
    cfg = LmConfig(vocab_size=draw(st.integers(3, 40)), dim=dim, depth=draw(st.integers(1, 3)),
                   heads=heads, max_seq_len=max_len)
    return cfg, draw(st.sampled_from(["float32", "float64"])), lens, draw(st.integers(0, 2 ** 16))


def prefilled(cfg, lens, seed, dtype="float64"):
    """A seeded LM in ``dtype`` and its caches with one prompt prefilled per
    buffer row through ``lm.forward``, as ``generate`` does."""
    rng = np.random.default_rng(seed)
    lm = DecoderLm(cfg, seed=seed)
    cast_params(lm.named_params(), dtype)
    cache = [KvCache(len(lens), cfg.max_seq_len, cfg.dim, dtype) for _ in lm.blocks]
    with no_grad():
        for row, n in enumerate(lens):
            lm.forward(Tensor(rng.standard_normal((n, cfg.dim)).astype(dtype)), cache, row)
    return lm, cache, rng


def reference_step(lm, cache, x, rows):
    """``lm.decode_step(cache)(x, rows)`` built from the layers' own Tensor
    ops under ``no_grad``: each sequence's new key and value are written into
    its buffer row at its next position, and its query attends over that
    row's cached keys and values. Returns the (B, 1, vocab) logits."""
    heads = lm.cfg.heads
    start = cache[0].lens[rows].tolist()
    with no_grad():
        h = Tensor(x) + lm.pos_emb[np.array(start)[:, None]]
        for block, c in zip(lm.blocks, cache):
            attn = block.attn
            a = block.ln1(h)
            q, k, v = attn.wq(a), attn.wk(a), attn.wv(a)
            out = []
            for b, (row, pos) in enumerate(zip(rows, start)):
                c.k[row, pos], c.v[row, pos] = k.data[b, 0], v.data[b, 0]
                c.lens[row] = pos + 1
                out.append(T.attention(q[b], Tensor(c.k[row, :pos + 1]),
                                       Tensor(c.v[row, :pos + 1]), True, heads))
            h = h + attn.proj(concat(out, axis=0).reshape(len(rows), 1, lm.cfg.dim))
            h = h + block.mlp(block.ln2(h))
        return lm.head(lm.ln_f(h)).data


def cache_bytes(cache):
    return [(c.k.tobytes(), c.v.tobytes(), c.lens.tobytes()) for c in cache]


class TestDecodeStep:
    """The bound decode step against the layer path (``reference_step`` on a
    copy of the same cache): every step's logits by ``tobytes``, and the
    cache it leaves behind, until every sequence is at ``max_seq_len``."""

    @given(decode_cases())
    @settings(deadline=None)
    def test_matches_layer_path_bit_for_bit(self, case):
        cfg, dtype, lens, seed = case
        with no_grad():
            lm, cache, rng = prefilled(cfg, lens, seed, dtype)
            step = lm.decode_step(cache)
            while True:
                rows = [r for r in range(len(lens)) if cache[0].lens[r] < cfg.max_seq_len]
                if not rows:
                    break
                rows = rng.permutation(rows).tolist()
                x = rng.standard_normal((len(rows), 1, cfg.dim)).astype(dtype)
                ref_cache = copy.deepcopy(cache)
                ref = reference_step(lm, ref_cache, x, rows)
                got = step(x, rows)
                assert got.dtype == ref.dtype == np.dtype(dtype)
                assert got.shape == ref.shape == (len(rows), 1, cfg.vocab_size)
                assert got.tobytes() == ref.tobytes()
                assert cache_bytes(cache) == cache_bytes(ref_cache)
            assert cache[0].lens.tolist() == [cfg.max_seq_len] * len(lens)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape,rows,message", [
        # row 2 is full: past max_seq_len
        ((2, 1, 8), [0, 2], "sequence length 7 exceeds max_seq_len 6"),
        # a 2-D input
        ((2, 8), [0, 1], "a decode step takes (B, 1, 8) embeddings and B buffer rows; "
                         "got shape (2, 8) and rows [0, 1]"),
        # fewer rows than B
        ((2, 1, 8), [0], "a decode step takes (B, 1, 8) embeddings and B buffer rows; "
                         "got shape (2, 1, 8) and rows [0]"),
        # more rows than B
        ((1, 1, 8), [0, 1], "a decode step takes (B, 1, 8) embeddings and B buffer rows; "
                            "got shape (1, 1, 8) and rows [0, 1]"),
        # an empty batch
        ((0, 1, 8), [], "a decode step needs at least one sequence; the batch is empty")])
    def test_bad_step_raises_and_writes_nothing(self, dtype, shape, rows, message):
        cfg = LmConfig(vocab_size=9, dim=8, depth=2, heads=2, max_seq_len=6)
        lm, cache, _ = prefilled(cfg, [3, 5, 6], seed=1, dtype=dtype)
        before = cache_bytes(cache)
        with pytest.raises(ContractError) as by_step:
            lm.decode_step(cache)(np.zeros(shape, dtype=dtype), rows)
        assert str(by_step.value) == message
        assert cache_bytes(cache) == before

    def test_more_than_one_new_row_rejected(self):
        cfg = LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=6)
        lm, cache, _ = prefilled(cfg, [2], seed=1)
        before = cache_bytes(cache)
        with no_grad(), pytest.raises(ContractError, match=r"\(B, 1, 8\).*\(1, 2, 8\)"):
            lm.decode_step(cache)(np.zeros((1, 2, 8)), [0])
        assert cache_bytes(cache) == before

    def test_each_generate_binds_the_weights_loaded_then(self, tmp_path):
        """``load_into`` replaces the weight arrays, so a step bound by an
        earlier ``generate`` call must not outlive it."""
        cfg = LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=12)
        save_checkpoint(tmp_path / "lm.ckpt", DecoderLm(cfg, seed=4).named_params())
        fresh = DecoderLm(cfg, seed=None)
        load_into(tmp_path / "lm.ckpt", fresh.named_params())
        lm = DecoderLm(cfg, seed=3)
        prompt = Tensor(np.random.default_rng(2).standard_normal((3, 8)))
        before = generate(lm, [prompt], 8)
        load_into(tmp_path / "lm.ckpt", lm.named_params())
        after = generate(lm, [prompt], 8)
        assert after == generate(fresh, [prompt], 8) != before


class TestBatchedEncode:
    """One ``encode`` call over every view of several studies against
    encoding each image alone: final features and every tap, bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_one_image_at_a_time(self, dtype):
        studies = tiny_studies(5, seed=15, lateral_prob=0.5, prior_prob=0.5)
        assert sorted({len(s.views()) for s in studies}) == [1, 2, 3]
        with no_grad():
            model = ReportModel(tiny_model_config(), vocabulary(), dtype=dtype)
            batched = model.encode_views(studies)
            assert len(batched) == len(studies)
            for study, got in zip(studies, batched):
                assert list(got) == [view for view, _, _ in study.views()]
                for view, image, _ in study.views():
                    [alone] = model.encoder.encode([image])
                    assert list(got[view].taps) == list(alone.taps) == [1, 2]
                    for a, b in zip([got[view].final, *got[view].taps.values()],
                                    [alone.final, *alone.taps.values()]):
                        assert a.features.data.dtype == b.features.data.dtype == np.dtype(dtype)
                        assert np.array_equal(a.features.data, b.features.data)

    def test_single_view_and_no_studies(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(2, seed=11, lateral_prob=1.0, prior_prob=1.0)
        assert [list(enc) for enc in model.encode_views(studies, single_view=True)] == [
            [View.CURRENT_FRONTAL]] * 2
        assert model.encode_views([]) == []


class TestDtypeClosure:
    """A float32 model computes in float32 throughout, with nothing switched
    process-wide: every node that a train step of every component and a
    decode make, every gradient, every AdamW moment and every key/value
    buffer. Constants, and the inputs that enter the model (the patch stack,
    pooling weights and mask resamples), take the weights' dtype."""

    @pytest.mark.parametrize("strategy", [Strategy.SS, Strategy.NS])
    def test_float32_train_step_and_decode(self, monkeypatch, strategy):
        seen = []
        make, accumulate = T._make, Tensor._accumulate
        adamw_step, kv_init = AdamW.step, KvCache.__init__

        def spy_make(data, parents):
            seen.append(("node", data.dtype))
            return make(data, parents)

        def spy_accumulate(self, g):
            accumulate(self, g)
            seen.append(("grad", self.grad.dtype))

        def spy_step(self, lr):
            adamw_step(self, lr)
            seen.extend(("moment", m.dtype) for m in (*self.m.values(), *self.v.values()))

        def spy_kv_init(self, *args):
            kv_init(self, *args)
            seen.extend([("kv", self.k.dtype), ("kv", self.v.dtype)])

        monkeypatch.setattr(T, "_make", spy_make)
        monkeypatch.setattr(Tensor, "_accumulate", spy_accumulate)
        monkeypatch.setattr(AdamW, "step", spy_step)
        monkeypatch.setattr(KvCache, "__init__", spy_kv_init)
        model = ReportModel(tiny_model_config(lm_dim=16), vocabulary(), dtype="float32")
        assert model.bridge is not None
        studies = tiny_studies(2, seed=11, lateral_prob=1.0, prior_prob=0.0)
        train(model, studies, TrainConfig(batch_size=2, max_steps=1, strategy=strategy,
                                          frozen=()))
        ids = model.generate_reports(studies, strategy, max_new=8)
        assert sum(map(len, ids)) > 0
        assert {kind for kind, _ in seen} == {"node", "grad", "moment", "kv"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        assert all(p.data.dtype == np.float32 for p in model.named_params().values())


def decode_digests(ids, rows) -> tuple[str, str]:
    """sha256 of every sequence's ids, and of its per-step last-row logits."""
    h_ids, h_rows = hashlib.sha256(), hashlib.sha256()
    for seq, steps in zip(ids, rows):
        h_ids.update(np.asarray(seq, dtype=np.int64).tobytes() + b"|")
        for row in steps:
            h_rows.update(row.tobytes())
        h_rows.update(b"|")
    return h_ids.hexdigest()[:16], h_rows.hexdigest()[:16]


class TestDecodeDigests:
    """sha256 of decoded ids and of every step's logits, recorded while cached
    decoding still had a 2-D single-row path: the (B, n, dim) cached forward,
    the graph-free array path, and the prefill through the plain (L, dim)
    forward before the bound decode step give the same bits. Logit bits
    depend on the BLAS kernels: the digests were recorded with numpy 2.4 and
    OpenBLAS 0.3.31 on x86-64, on OpenBLAS's SkylakeX (AVX-512) kernels. Under
    ``OPENBLAS_CORETYPE=Haswell``, ``Zen``, ``Sandybridge`` or ``Nehalem`` all
    eight cases fail, with or without this package's changes since then, so
    a failure on a runner without AVX-512 is the environment, not the code
    (CI prints the core before the tests). The full-recompute oracle above
    checks only to 1e-10."""

    @pytest.mark.parametrize("dtype,batch,digests", [
        ("float32", 1, ("e8e8d4ae52c35af0", "3aef19b503731eca")),
        ("float32", 5, ("636e0c4c3fc02498", "57b83670a3d21671")),
        ("float64", 1, ("e8e8d4ae52c35af0", "b11df67a3950ab42")),
        ("float64", 5, ("636e0c4c3fc02498", "81785522d77e928e"))])
    def test_seeded_lms(self, dtype, batch, digests):
        ids, rows = [], []
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2,
                                    max_seq_len=40), seed=seed)
            cast_params(lm.named_params(), dtype)
            prompts = [Tensor(rng.standard_normal((int(rng.integers(3, 25)), 8)).astype(dtype))
                       for _ in range(batch)]
            rows += lockstep_recorder(lm, prompts, 16)[0]
            ids += generate(lm, prompts, 16)
        assert decode_digests(ids, rows) == digests

    @pytest.mark.parametrize("dtype,strategy,digests", [
        ("float32", Strategy.NS, ("6b13593d1c781eeb", "904338899c62ee4b")),
        ("float32", Strategy.SS, ("7c3c0008d7c94659", "6599c7383152fb8a")),
        ("float64", Strategy.NS, ("6b13593d1c781eeb", "691e769c15be2e8c")),
        ("float64", Strategy.SS, ("7c3c0008d7c94659", "60082ade2faca6a9"))])
    def test_report_model(self, dtype, strategy, digests):
        model = ReportModel(tiny_model_config(), vocabulary(), dtype=dtype)
        studies = tiny_studies(3, seed=11, lateral_prob=0.5, prior_prob=0.5)
        with no_grad():
            prompts = [model.realize(s, strategy) for s in studies]
        rows, _ = lockstep_recorder(model.lm, prompts, 24)
        ids = model.generate_reports(studies, strategy, max_new=24)
        assert decode_digests(ids, rows) == digests


def param_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_params().items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()[:16]


class TestLoadOnceConstruction:
    # sha256 of the seeded init's names and bytes, recorded before the
    # no-draw path existed: seeded construction draws in the same order.
    @pytest.mark.parametrize("dtype,lm_dim,digest", [
        ("float64", 12, "949caf7aed4cf765"), ("float64", 16, "1eaf969c1d6b3614"),
        ("float32", 12, "81beedb7676efbd0"), ("float32", 16, "9d536775a49bff07")])
    def test_seeded_init_unchanged(self, dtype, lm_dim, digest):
        assert param_digest(ReportModel(tiny_model_config(lm_dim=lm_dim), vocabulary(),
                                        dtype=dtype)) == digest

    @pytest.mark.parametrize("lm_dim", [12, 16])
    def test_no_init_allocates_the_same_params_undrawn(self, lm_dim):
        seeded = ReportModel(tiny_model_config(lm_dim=lm_dim), vocabulary()).named_params()
        blank = ReportModel(tiny_model_config(lm_dim=lm_dim), vocabulary(), init=False,
                            dtype="float32").named_params()
        assert list(blank) == list(seeded)
        for name, p in blank.items():
            assert p.data.shape == seeded[name].shape and p.data.dtype == np.float32
            want = 1.0 if name.endswith(".gamma") else 0.0
            assert np.all(p.data == want), name

    @pytest.mark.parametrize("seed,dtype", [(None, np.float32), (5, np.float64)])
    def test_bare_components_hold_one_dtype(self, seed, dtype):
        """Built outside ``ReportModel``, each component holds every
        parameter, layer-norm gains and shifts included, in one dtype:
        float32 undrawn, float64 drawn."""
        components = {
            "lm": DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=12),
                            seed=seed),
            "encoder": VitEncoder(VitConfig(), seed=seed),
            "extractor": SegTokenExtractor(ExtractorConfig(), 8, (1, 2), seed=seed),
        }
        for component, model in components.items():
            dtypes = {name: p.data.dtype for name, p in model.named_params().items()}
            assert set(dtypes.values()) == {np.dtype(dtype)}, (component, dtypes)

    def test_checkpoint_fills_a_no_init_model(self, tmp_path):
        """Loading into a no-init model gives what loading into a seeded
        one gave: the same parameters and the same reports."""
        save_checkpoint(tmp_path / "model.ckpt",
                        ReportModel(tiny_model_config(seed=4), vocabulary()).named_params())
        seeded = ReportModel(tiny_model_config(), vocabulary())
        blank = ReportModel(tiny_model_config(), vocabulary(), init=False)
        for model in (seeded, blank):
            load_into(tmp_path / "model.ckpt", model.named_params())
        for name, p in blank.named_params().items():
            np.testing.assert_array_equal(p.data, seeded.named_params()[name].data)
        study = tiny_studies(1)[0]
        assert (blank.generate_reports([study], Strategy.SS, max_new=8)
                == seeded.generate_reports([study], Strategy.SS, max_new=8))

    def test_checkpoint_missing_an_entry_rejected(self, tmp_path):
        params = ReportModel(tiny_model_config(), vocabulary()).named_params()
        dropped = "lm.block0.attn.wv.bias"
        del params[dropped]
        save_checkpoint(tmp_path / "model.ckpt", params)
        blank = ReportModel(tiny_model_config(), vocabulary(), init=False)
        with pytest.raises(ContractError, match=f"missing.*{dropped}"):
            load_into(tmp_path / "model.ckpt", blank.named_params())


def widths_config(enc_dim, lm_dim, taps=(1, 2)) -> ModelConfig:
    return ModelConfig(
        encoder=VitConfig(image_size=32, patch_size=16, depth=3, dim=enc_dim, heads=2,
                          tap_layers=taps),
        extractor=ExtractorConfig(spatial_side=8, mlp_depth=2),
        lm_dim=lm_dim, lm_depth=1, lm_heads=2, max_seq_len=160)


class TestReportModel:
    def test_bridge_only_when_widths_differ(self):
        """A ``bridge`` from the encoder's width to the LM's exists exactly
        when the two differ."""
        same = ReportModel(tiny_model_config(lm_dim=12), vocabulary())
        assert same.bridge is None
        wide = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
        assert wide.bridge is not None
        assert "bridge" in wide.component_params()
        for enc_dim, lm_dim in [(8, 8), (8, 12), (12, 8)]:
            model = ReportModel(widths_config(enc_dim, lm_dim), vocabulary())
            assert ("bridge" in model.component_params()) == (enc_dim != lm_dim)
            if model.bridge is not None:
                assert model.bridge.weight.shape == (lm_dim, enc_dim)
            else:
                assert enc_dim == lm_dim

    @pytest.mark.parametrize("taps", [(3,), (1, 3), (1, 2, 3)])
    def test_extractor_taps_and_width_are_the_encoders(self, taps):
        """One tap projection per ``encoder.tap_layers`` entry, in its order,
        and every extractor layer at ``encoder.dim``, not the LM's width."""
        model = ReportModel(widths_config(8, 12, taps), vocabulary())
        ext = model.extractor
        assert list(ext.tap_linears) == list(taps)
        for layer in [*ext.tap_linears.values(), *ext.fusion.layers]:
            assert layer.weight.shape == (8, 8)
        assert ext.spatial.weight.shape == (8, 8 * 8)
        study = tiny_studies(1)[0]
        with no_grad():
            [enc] = model.encode_views([study], single_view=True)
            pairs = model.seg_pairs(study, enc, Strategy.SS, single_view=True)
        tokens = [p for view_pairs in pairs.values() for p in view_pairs]
        assert tokens and all(p.mask_token.shape == p.spatial_token.shape == (8,)
                              for p in tokens)

    def test_ns_vs_ss_diff_confined_to_seg_blocks(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        study = tiny_studies(1)[0]
        ns = model.realize(study, Strategy.NS, single_view=True).data
        ss = model.realize(study, Strategy.SS, single_view=True).data
        prompt = build_prompt(study, Strategy.SS, single_view=True)
        seg_rows = []
        row = 0
        for seg in prompt.segments:
            if isinstance(seg, TextSpan):
                if seg.role not in ANNOTATION_ROLES:
                    row += model.tokenizer.token_count(seg.text)
            elif isinstance(seg, ImageSlot):
                row += model.cfg.encoder.n_patches
            elif isinstance(seg, SegSlot):
                seg_rows.append(row)
                row += 1
        assert ss.shape[0] == ns.shape[0] + len(seg_rows)
        kept = np.delete(ss, seg_rows, axis=0)
        assert np.allclose(kept, ns)

    def test_missing_target_rejected(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        study = tiny_studies(1)[0]
        study.target_findings = None
        with pytest.raises(ContractError):
            model.study_loss(study, Strategy.NS, single_view=True)


def graph_size(t) -> int:
    """Autodiff nodes reachable from t, t included."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGraphSize:
    """A guard on graph size: linear and multi-head attention are one node
    each, and the extractor makes one pass per view. On this three-view
    study (19 positive masks) an SS loss had 559 nodes and an NS loss 131
    when each linear was transpose + matmul + add, attention a chain of
    about a dozen nodes, and each structure its own extractor pass. They had
    202 and 86 while each attention call split q, k and v into heads and
    merged them back with eight reshape/transpose nodes."""

    @pytest.mark.parametrize("strategy,bound", [(Strategy.SS, 194), (Strategy.NS, 78)])
    def test_study_loss_node_count(self, strategy, bound):
        model = ReportModel(tiny_model_config(), vocabulary())
        study = tiny_studies(1, seed=11, lateral_prob=1.0, prior_prob=1.0)[0]
        assert [len(positive_structures(ms)) for _, _, ms in study.views()] == [7, 7, 5]
        with no_grad():
            [enc] = model.encode_views([study])
        assert graph_size(model.study_loss(study, strategy, enc_out=enc)) <= bound


class TestTrain:
    def test_lr_zero_leaves_trainable_params_identical(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(2)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        tc = TrainConfig(epochs=1, base_lr=0.0, batch_size=2, max_steps=3,
                         strategy=Strategy.SS, single_view=True, precision="float64")
        train(model, studies, tc)
        for k, v in model.named_params().items():
            assert np.array_equal(v.data, before[k]), k

    def test_encoder_frozen_others_move(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(2)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        tc = TrainConfig(epochs=1, base_lr=1e-2, batch_size=2, max_steps=4,
                         strategy=Strategy.SS, single_view=True, precision="float64")
        result = train(model, studies, tc)
        after = model.named_params()
        assert all(np.array_equal(after[k].data, before[k])
                   for k in after if k.startswith("enc."))
        for prefix in ("seg.", "adapter.", "lm."):
            assert any(not np.array_equal(after[k].data, before[k])
                       for k in after if k.startswith(prefix)), prefix
        assert len(result.curve) == 4
        assert all(np.isfinite(loss) for _, _, loss in result.curve)

    def test_config_validation(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        with pytest.raises(ContractError, match="unsupported dtype 'float16' for key 'precision'"):
            TrainConfig(**checked_fields({"precision": "float16"}, TrainConfig))
        with pytest.raises(ContractError, match="'precision'"):
            TrainConfig(precision="bfloat16")
        with pytest.raises(ContractError):
            train(model, [], TrainConfig())

    def test_config_dict_roundtrip(self):
        for tc in (TrainConfig(),
                   TrainConfig(epochs=2, strategy=Strategy.CS, single_view=True,
                               betas=(0.8, 0.95), max_steps=7, precision="float64",
                               frozen=("encoder", "lm"))):
            assert TrainConfig(**checked_fields(asdict(tc), TrainConfig)) == tc
            assert TrainConfig(**checked_fields(json.loads(json.dumps(asdict(tc))),
                                                TrainConfig)) == tc
        assert TrainConfig(**checked_fields({"strategy": "NS"}, TrainConfig)) == \
            TrainConfig(strategy=Strategy.NS)

    def test_model_config_dict_roundtrip(self):
        for cfg in (ModelConfig(), tiny_model_config(lm_dim=16, seed=3)):
            assert ModelConfig(**checked_fields(json.loads(json.dumps(asdict(cfg))),
                                                ModelConfig)) == cfg

    def test_artifacts_written(self, tmp_path):
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(2)
        tc = TrainConfig(epochs=1, base_lr=1e-3, batch_size=2, max_steps=2,
                         strategy=Strategy.NS, single_view=True, precision="float64")
        train(model, studies, tc, out_dir=tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "model.ckpt").exists()
        lines = (tmp_path / "ckpt" / "loss_curve.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 3
        echo = json.loads((tmp_path / "ckpt" / "train_config.json").read_text())
        assert echo["train"]["strategy"] == "NS"
        assert echo["model"]["lm_dim"] == 12
        assert echo["vocab"][:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_echo_names_the_dtype_the_model_holds(self, tmp_path, dtype):
        """``train_config.json`` records the model's own dtype, not the
        ``precision`` its ``TrainConfig`` happened to carry (float32 by
        default), so ``_load_model`` rebuilds the model that was trained."""
        model = ReportModel(tiny_model_config(), vocabulary(), dtype=dtype)
        tc = TrainConfig(max_steps=1, batch_size=2)
        train(model, tiny_studies(2), tc, out_dir=tmp_path)
        echo = json.loads((tmp_path / "train_config.json").read_text())
        assert echo["train"]["precision"] == dtype
        assert tc.precision == "float32"  # the caller's config is left as given


def reference_train(model: ReportModel, dataset, tc: TrainConfig) -> list[float]:
    """The whole-batch step with the freezing path ``train`` replaced: every
    parameter requires grad, each step builds every study's graph and runs
    one backward of the batch mean over all of them (encoder included, every
    step), and AdamW steps only the components outside ``tc.frozen``, so the
    frozen ones' gradients are computed and then thrown away."""
    parts = model.component_params()
    for params in parts.values():
        for p in params.values():
            p.requires_grad = True
    opt = AdamW({name: p for component, params in parts.items() if component not in tc.frozen
                 for name, p in params.items()},
                betas=tc.betas, eps=tc.eps, weight_decay=tc.weight_decay)
    n = len(dataset)
    total = tc.max_steps if tc.max_steps is not None else tc.epochs * math.ceil(n / tc.batch_size)
    schedule = LrSchedule(tc.base_lr, total, tc.warmup_ratio)
    rng = np.random.default_rng(tc.seed)
    order: list[int] = []
    curve = []
    for step in range(total):
        batch = []
        while len(batch) < min(tc.batch_size, n):
            if not order:
                order = list(rng.permutation(n))
            batch.append(order.pop(0))
        loss = concat([model.study_loss(dataset[i], tc.strategy, tc.single_view).reshape(1)
                       for i in batch], axis=0).mean()
        loss.backward()
        opt.step(lr_at(schedule, step))
        for p in model.named_params().values():
            p.grad = None
        curve.append(loss.item())
    return curve


class TestFreezingRule:
    """``train`` freezes by ``requires_grad=False`` alone and backpropagates
    one study at a time; the whole-batch, full-graph path with the frozen
    gradients discarded is the oracle."""

    @pytest.mark.parametrize("frozen,n_studies,batch_size,dtype", [
        pytest.param(frozen, n_studies, batch_size, dtype, id=f"frozen{i}{suffix}")
        for i, frozen in enumerate([(), ("encoder",), ("encoder", "lm"), ("extractor", "adapter")])
        # batch size 3 is no power of two, so its 1/3 seed rounds; with four
        # studies the second step's batch runs across an epoch boundary
        for n_studies, batch_size, dtype, suffix in [(3, 2, "float64", ""),
                                                     (4, 3, "float64", "-batch3"),
                                                     (4, 3, "float32", "-batch3-float32")]])
    def test_matches_full_graph_reference(self, frozen, n_studies, batch_size, dtype):
        studies = tiny_studies(n_studies, seed=11, lateral_prob=1.0, prior_prob=0.0)
        tc = TrainConfig(base_lr=1e-2, batch_size=batch_size, max_steps=3,
                         strategy=Strategy.SS, precision=dtype, frozen=frozen)
        model = ReportModel(tiny_model_config(lm_dim=16), vocabulary(), dtype=dtype)
        ref = ReportModel(tiny_model_config(lm_dim=16), vocabulary(), dtype=dtype)
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        result = train(model, studies, tc)
        want_curve = reference_train(ref, studies, tc)
        assert [loss for _, _, loss in result.curve] == want_curve
        got, want = model.named_params(), ref.named_params()
        assert list(got) == list(want)
        for name in got:
            assert np.array_equal(got[name].data, want[name].data), name
        for component, params in model.component_params().items():
            moved = any(not np.array_equal(p.data, before[k]) for k, p in params.items())
            assert moved == (component not in frozen), component

    def test_memory_does_not_grow_with_batch_size(self):
        """Only one study's graph is alive at a time. On these eight studies
        (float64) the tracemalloc peak of one step was 1.69 MB at batch size 1
        and 8.91 MB at 8 (5.26x) while every study's graph lived until one
        backward of the batch; with one study per backward it is 1.07 and
        1.31 MB (1.22x)."""
        studies = tiny_studies(8, seed=11, lateral_prob=1.0, prior_prob=0.0)
        peaks = {}
        for batch_size in (1, 8):
            model = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
            tc = TrainConfig(batch_size=batch_size, max_steps=1, strategy=Strategy.SS,
                             precision="float64")
            tracemalloc.start()
            try:
                train(model, studies, tc)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 2.0 * peaks[1], peaks

    def test_frozen_params_get_no_grad(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(2)
        tc = TrainConfig(base_lr=0.0, batch_size=2, max_steps=1, strategy=Strategy.SS,
                         single_view=True, frozen=("encoder", "lm"))
        train(model, studies, tc)
        model.study_loss(studies[0], Strategy.SS, single_view=True).backward()
        for component, params in model.component_params().items():
            for name, p in params.items():
                assert p.requires_grad is (component not in tc.frozen), name
                assert (p.grad is None) is (component in tc.frozen), name

    @pytest.mark.parametrize("trainable", [["extractor", "adapter", "bridge", "lm"], 5],
                             ids=["list", "int"])
    def test_trainable_key_rejected(self, trainable):
        """``frozen`` is the one freezing option: a ``trainable`` key, as an
        echo written before it carried, is an unknown key, whatever its value."""
        with pytest.raises(ContractError, match="unknown TrainConfig key.*'trainable'"):
            TrainConfig(**checked_fields({"frozen": ["encoder"], "trainable": trainable},
                                         TrainConfig))
        assert "trainable" not in asdict(TrainConfig())

    def test_misspelt_frozen_name_rejected(self):
        with pytest.raises(ContractError, match="encoderr"):
            TrainConfig(frozen=("encoderr",))
        with pytest.raises(ContractError, match="encoderr"):
            TrainConfig(**checked_fields({"frozen": ["encoderr"]}, TrainConfig))
