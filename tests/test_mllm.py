"""Tokenizer, adapter, LM loss/generation, and the training loop contracts."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.encoder import FeatureGrid, VitConfig
from segprompt.extractor import ExtractorConfig
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
    finite_diff_grad,
    grad_rel_error,
    load_into,
    lr_at,
    no_grad,
    precision,
    save_checkpoint,
)
from segprompt.prompting import ImageSlot, SegSlot, Strategy, TextSpan, View
from segprompt.prompting import ANNOTATION_ROLES
from segprompt.nn import tensor as T
from segprompt.synth import SynthSpec, make_study, vocabulary


def tiny_model_config(lm_dim=12, seed=0) -> ModelConfig:
    return ModelConfig(
        encoder=VitConfig(image_size=32, patch_size=16, depth=2, dim=12, heads=2,
                          tap_layers=(1, 2)),
        extractor=ExtractorConfig(dim=12, tap_layers=(1, 2), spatial_side=8,
                                  mlp_depth=2),
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
        loss = forward_loss(lm, prompt, targets, logit_bias=bias)
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
        perturbed = forward_loss(lm, prompt, targets, logit_bias=bias).item()
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
    """Shadow lm.forward for a ``generate(lm, prompts, ...)`` call: keep each
    prompt's last-row logits per step, and the ndim of every input. A buffer
    row belongs to the prompt whose prefill last started in it; prompts with
    room to decode are admitted in order. Delete ``lm.forward`` to undo."""
    rows = [[] for _ in prompts]
    ndims = []
    admitted = iter([i for i, p in enumerate(prompts)
                     if max_new > 0 and p.shape[0] < lm.cfg.max_seq_len])
    owner = {}
    forward = lm.forward

    def recorded(embeddings, cache, buffer_rows):
        ndims.append(embeddings.ndim)
        for row in buffer_rows:
            if cache[0].lens[row] == 0:
                owner[row] = next(admitted)
        logits = forward(embeddings, cache, buffer_rows)
        for b, row in enumerate(buffer_rows):
            rows[owner[row]].append(logits[b, -1].copy())
        return logits

    lm.forward = recorded
    return rows, ndims


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
            del model.lm.forward
            assert_same_decode(got, rows, ref, ref_rows)
            assert len(got) > 0


class TestKvCache:
    def test_writes_in_place_copying_only_new_rows(self):
        cache = KvCache(rows=3, max_len=10, width=4)
        k_buf, v_buf = cache.k, cache.v
        cache.k[:] = np.nan
        cache.v[:] = np.nan
        rng = np.random.default_rng(0)
        views = []
        for n_new in (4, 1, 1, 2):
            start = int(cache.lens[1])
            k, v = rng.standard_normal((2, n_new, 4))
            before_k, before_v = cache.k.copy(), cache.v.copy()
            kv, vv = cache.extend(1, k, v)
            assert cache.k is k_buf and cache.v is v_buf
            assert isinstance(kv, np.ndarray) and isinstance(vv, np.ndarray)
            assert np.shares_memory(kv, k_buf) and np.shares_memory(vv, v_buf)
            assert kv.shape == vv.shape == (start + n_new, 4)
            np.testing.assert_array_equal(kv[start:], k)
            np.testing.assert_array_equal(vv[start:], v)
            changed = np.ones(k_buf.shape, dtype=bool)
            changed[1, start:start + n_new] = False
            np.testing.assert_array_equal(k_buf[changed], before_k[changed])
            np.testing.assert_array_equal(v_buf[changed], before_v[changed])
            views.append(kv)
        # earlier views see the same rows the later steps left alone
        np.testing.assert_array_equal(views[0], views[-1][:4])

    def test_per_row_lengths_are_independent(self):
        cache = KvCache(rows=3, max_len=8, width=2)
        k0, v0 = cache.extend(0, np.ones((3, 2)), np.ones((3, 2)))
        k2, v2 = cache.extend(2, np.full((5, 2), 2.0), np.full((5, 2), 3.0))
        k0b, _ = cache.extend(0, np.zeros((1, 2)), np.zeros((1, 2)))
        assert cache.lens.tolist() == [4, 0, 5]
        assert k0b.shape == (4, 2) and k2.shape == v2.shape == (5, 2)
        np.testing.assert_array_equal(k0b[:3], 1.0)
        np.testing.assert_array_equal(k2, 2.0)
        np.testing.assert_array_equal(v2, 3.0)

    def test_write_past_max_seq_len_names_both_lengths(self):
        cache = KvCache(rows=2, max_len=6, width=2)
        cache.extend(1, np.zeros((5, 2)), np.zeros((5, 2)))
        with pytest.raises(ContractError, match=r"row 1: 7 rows exceed max_seq_len 6"):
            cache.extend(1, np.zeros((2, 2)), np.zeros((2, 2)))
        assert cache.lens.tolist() == [0, 5]

    def test_buffer_takes_the_default_dtype(self):
        with precision("float32"):
            assert KvCache(1, 4, 2).k.dtype == np.float32
        assert KvCache(1, 4, 2).v.dtype == np.float64

    def test_batched_step_past_max_seq_len_rejected(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=6))
        cache = [KvCache(2, 6, 8)]
        with no_grad():
            lm.forward(np.zeros((1, 6, 8)), cache, [0])
            lm.forward(np.zeros((1, 2, 8)), cache, [1])
            with pytest.raises(ContractError, match="7 exceeds max_seq_len 6"):
                lm.forward(np.zeros((2, 1, 8)), cache, [0, 1])

    @pytest.mark.parametrize("shape,rows", [((6, 8), [0]), ((6, 8), ()), ((1, 6, 8), ()),
                                            ((2, 1, 8), [0]), ((1, 1, 8), [0, 1])])
    def test_cached_forward_needs_one_row_per_sequence(self, shape, rows):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=6))
        cache = [KvCache(2, 6, 8)]
        with no_grad(), pytest.raises(ContractError, match=r"\(B, n, dim\).*B buffer rows"):
            lm.forward(np.zeros(shape), cache, rows)
        assert cache[0].lens.tolist() == [0, 0]


def decode_alone(lm, prompts, max_new):
    """The per-study reference: each prompt decoded by its own call."""
    out, out_rows = [], []
    for prompt in prompts:
        rows, _ = lockstep_recorder(lm, [prompt], max_new)
        out += generate(lm, [prompt], max_new)
        out_rows += rows
        del lm.forward
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
    def lm_and_prompts(seed, batch, max_seq_len=40):
        rng = np.random.default_rng(200 + seed)
        lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2,
                                max_seq_len=max_seq_len), seed=seed)
        prompts = [Tensor(rng.standard_normal((int(rng.integers(3, 25)), 8)))
                   for _ in range(batch)]
        return lm, prompts

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_random_lms_unequal_prompts(self, dtype, batch):
        decoded = 0
        with precision(dtype):
            for seed in range(6):
                lm, prompts = self.lm_and_prompts(seed, batch)
                assert batch == 1 or len({p.shape[0] for p in prompts}) > 1
                ref, ref_rows = decode_alone(lm, prompts, 16)
                rows, ndims = lockstep_recorder(lm, prompts, 16)
                got = generate(lm, prompts, 16)
                assert_bit_identical(got, rows, ref, ref_rows)
                assert set(ndims) == {3}  # every cached forward is (B, n, dim)
                decoded += sum(map(len, ref))
        assert decoded >= 40 * batch

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_row_hits_max_seq_len(self, dtype):
        with precision(dtype):
            lm, _ = self.lm_and_prompts(1, 0, max_seq_len=24)
            lm.head.bias.data[Tokenizer.EOS] = -1e3
            rng = np.random.default_rng(5)
            prompts = [Tensor(rng.standard_normal((n, 8))) for n in (20, 6, 11, 24, 9)]
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
        with precision(dtype):
            for seed in range(20):
                lm, prompts = self.lm_and_prompts(seed, 5)
                ref, ref_rows = decode_alone(lm, prompts, 16)
                lens = [len(ids) for ids in ref]
                if min(lens) < 16 and max(lens) == 16:
                    break
            else:
                pytest.fail("no seed gave both an early EOS and a full report")
            rows, ndims = lockstep_recorder(lm, prompts, 16)
            got = generate(lm, prompts, 16)
            assert_bit_identical(got, rows, ref, ref_rows)
            early = lens.index(min(lens))
            assert len(rows[early]) == lens[early] + 1  # the step that emitted EOS
            assert 3 in ndims

    def test_rows_are_reused_past_decode_rows(self, monkeypatch):
        monkeypatch.setattr(mllm, "DECODE_ROWS", 2)
        lm, prompts = self.lm_and_prompts(4, 5)
        ref, ref_rows = decode_alone(lm, prompts, 10)
        rows, ndims = lockstep_recorder(lm, prompts, 10)
        got = generate(lm, prompts, 10)
        assert_bit_identical(got, rows, ref, ref_rows)
        assert 3 in ndims

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
        with precision(dtype):
            model = ReportModel(tiny_model_config(), vocabulary())
            studies = tiny_studies(3, seed=11, lateral_prob=0.5, prior_prob=0.5)
            assert len({len(s.views()) for s in studies}) > 1
            with no_grad():
                prompts = [model.realize(s, strategy) for s in studies]
            ref, ref_rows = [], []
            for study, prompt in zip(studies, prompts):
                rows, _ = lockstep_recorder(model.lm, [prompt], 24)
                ref += model.generate_reports([study], strategy, max_new=24)
                ref_rows += rows
                del model.lm.forward
            rows, _ = lockstep_recorder(model.lm, prompts, 24)
            got = model.generate_reports(studies, strategy, max_new=24)
            assert_bit_identical(got, rows, ref, ref_rows)
            assert all(len(ids) > 0 for ids in got)


class TestGraphFreeDecoding:
    def test_decoding_builds_no_tensor(self, monkeypatch):
        """Given realized prompts, neither the prefill nor any decode step
        makes a ``Tensor``: the cached forward runs on arrays."""
        model = ReportModel(tiny_model_config(), vocabulary())
        studies = tiny_studies(3, seed=11, lateral_prob=0.5, prior_prob=0.5)
        with no_grad():
            prompts = [model.realize(s, Strategy.SS) for s in studies]
        made = []
        init, make = Tensor.__init__, T._make

        def counted_init(self, *args, **kwargs):
            made.append("Tensor.__init__")
            init(self, *args, **kwargs)

        def counted_make(*args):
            made.append("_make")
            return make(*args)

        monkeypatch.setattr(Tensor, "__init__", counted_init)
        monkeypatch.setattr(T, "_make", counted_make)
        rows, _ = lockstep_recorder(model.lm, prompts, 24)
        ids = generate(model.lm, prompts, 24)
        assert made == []
        assert sum(map(len, ids)) > 0
        assert all(isinstance(r, np.ndarray) for steps in rows for r in steps)


class TestBatchedEncode:
    """One ``encode`` call over every view of several studies against
    encoding each image alone: final features and every tap, bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_one_image_at_a_time(self, dtype):
        studies = tiny_studies(5, seed=15, lateral_prob=0.5, prior_prob=0.5)
        assert sorted({len(s.views()) for s in studies}) == [1, 2, 3]
        with precision(dtype), no_grad():
            model = ReportModel(tiny_model_config(), vocabulary())
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
    decoding still had a 2-D single-row path: the one (B, n, dim) path and
    the graph-free array path give the same bits. Logit bits depend on the
    BLAS kernels: the digests were recorded with numpy 2.4 and OpenBLAS
    0.3.31 on x86-64, on OpenBLAS's SkylakeX (AVX-512) kernels. Under
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
        with precision(dtype):
            for seed in range(4):
                rng = np.random.default_rng(300 + seed)
                lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2,
                                        max_seq_len=40), seed=seed)
                prompts = [Tensor(rng.standard_normal((int(rng.integers(3, 25)), 8)))
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
        with precision(dtype):
            model = ReportModel(tiny_model_config(), vocabulary())
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
        with precision(dtype):
            assert param_digest(ReportModel(tiny_model_config(lm_dim=lm_dim),
                                            vocabulary())) == digest

    @pytest.mark.parametrize("lm_dim", [12, 16])
    def test_no_init_allocates_the_same_params_undrawn(self, lm_dim):
        seeded = ReportModel(tiny_model_config(lm_dim=lm_dim), vocabulary()).named_params()
        with precision("float32"):
            blank = ReportModel(tiny_model_config(lm_dim=lm_dim), vocabulary(),
                                init=False).named_params()
        assert list(blank) == list(seeded)
        for name, p in blank.items():
            assert p.data.shape == seeded[name].shape and p.data.dtype == np.float32
            want = 1.0 if name.endswith(".gamma") else 0.0
            assert np.all(p.data == want), name

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


class TestReportModel:
    def test_bridge_only_when_widths_differ(self):
        same = ReportModel(tiny_model_config(lm_dim=12), vocabulary())
        assert same.bridge is None
        wide = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
        assert wide.bridge is not None
        assert "bridge" in wide.component_params()

    def test_ns_vs_ss_diff_confined_to_seg_blocks(self):
        model = ReportModel(tiny_model_config(), vocabulary())
        study = tiny_studies(1)[0]
        ns = model.realize(study, Strategy.NS, single_view=True).data
        ss = model.realize(study, Strategy.SS, single_view=True).data
        prompt = model.prompt_for(study, Strategy.SS, single_view=True)
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
            TrainConfig.from_dict({"precision": "float16"})
        with pytest.raises(ContractError, match="'precision'"):
            TrainConfig(precision="bfloat16")
        with pytest.raises(ContractError):
            train(model, [], TrainConfig())

    def test_config_dict_roundtrip(self):
        for tc in (TrainConfig(),
                   TrainConfig(epochs=2, strategy=Strategy.CS, single_view=True,
                               betas=(0.8, 0.95), max_steps=7, precision="float64",
                               frozen=("encoder", "lm"))):
            assert TrainConfig.from_dict(asdict(tc)) == tc
            assert TrainConfig.from_dict(json.loads(json.dumps(asdict(tc)))) == tc
        assert TrainConfig.from_dict({"strategy": "NS"}) == TrainConfig(strategy=Strategy.NS)

    def test_model_config_dict_roundtrip(self):
        for cfg in (ModelConfig(), tiny_model_config(lm_dim=16, seed=3)):
            assert ModelConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

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
        with precision(dtype):
            model = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
            ref = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
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
            TrainConfig.from_dict({"frozen": ["encoder"], "trainable": trainable})
        assert "trainable" not in asdict(TrainConfig())

    def test_misspelt_frozen_name_rejected(self):
        with pytest.raises(ContractError, match="encoderr"):
            TrainConfig(frozen=("encoderr",))
        with pytest.raises(ContractError, match="encoderr"):
            TrainConfig.from_dict({"frozen": ["encoderr"]})
