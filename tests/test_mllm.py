"""Tokenizer, adapter, LM loss/generation, and the training loop contracts."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.encoder import FeatureGrid, VitConfig
from segprompt.extractor import ExtractorConfig
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
from segprompt.nn import MlpBlock, Tensor, concat, finite_diff_grad, grad_rel_error
from segprompt.prompting import ImageSlot, SegSlot, Strategy, TextSpan
from segprompt.prompting import ANNOTATION_ROLES
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

    def test_identity_configuration(self):
        feats = np.random.default_rng(1).standard_normal((4, 5))
        fg = FeatureGrid(2, 2, Tensor(feats))
        adapter = MlpBlock.identity(5, 4)
        assert np.allclose(adapt(fg, adapter).data, feats)

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
        assert generate(lm, prompt, max_new=0) == []

    def test_deterministic(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=32),
                       seed=1)
        prompt = Tensor(np.random.default_rng(7).standard_normal((4, 8)))
        assert generate(lm, prompt, max_new=6) == generate(lm, prompt, max_new=6)

    def test_stops_at_eos(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=32))
        lm.head.weight.data[:] = 0.0
        lm.head.bias.data[:] = 0.0
        lm.head.bias.data[Tokenizer.EOS] = 10.0
        prompt = Tensor(np.random.default_rng(8).standard_normal((4, 8)))
        assert generate(lm, prompt, max_new=5) == []

    def test_prompt_over_max_seq_len_rejected(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=8))
        prompt = Tensor(np.zeros((9, 8)))
        with pytest.raises(ContractError, match="9.*8"):
            generate(lm, prompt, max_new=4)

    def test_prompt_at_max_seq_len_leaves_no_room(self):
        lm = DecoderLm(LmConfig(vocab_size=9, dim=8, depth=1, heads=2, max_seq_len=8))
        prompt = Tensor(np.random.default_rng(9).standard_normal((8, 8)))
        assert generate(lm, prompt, max_new=4) == []


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


def recording_forward(lm):
    """Shadow lm.forward with a wrapper that keeps every call's last-row logits."""
    rows = []
    forward = lm.forward

    def recorded(*args, **kwargs):
        logits = forward(*args, **kwargs)
        rows.append(logits.data[-1].copy())
        return logits

    lm.forward = recorded
    return rows


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
            rows = recording_forward(lm)
            assert_same_decode(generate(lm, prompt, 16), rows, ref, ref_rows)
            decoded += len(ref)
        assert decoded >= 100  # most reports run long, not stop at EOS at once

    def test_max_seq_len_cap_mid_report(self):
        lm = DecoderLm(LmConfig(vocab_size=17, dim=8, depth=2, heads=2, max_seq_len=16),
                       seed=3)
        lm.head.bias.data[Tokenizer.EOS] = -1e3
        prompt = Tensor(np.random.default_rng(4).standard_normal((9, 8)))
        ref, ref_rows = full_recompute_generate(lm, prompt, 20)
        rows = recording_forward(lm)
        got = generate(lm, prompt, 20)
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
            rows = recording_forward(model.lm)
            got = model.generate_report(study, strategy, max_new=24)
            del model.lm.forward
            assert_same_decode(got, rows, ref, ref_rows)
            assert len(got) > 0


class TestReportModel:
    def test_bridge_only_when_widths_differ(self):
        same = ReportModel(tiny_model_config(lm_dim=12), vocabulary())
        assert same.bridge is None
        wide = ReportModel(tiny_model_config(lm_dim=16), vocabulary())
        assert wide.bridge is not None
        assert "bridge" in wide.components()

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
        studies = tiny_studies(1)
        with pytest.raises(ContractError):
            train(model, studies, TrainConfig(frozen=("encoder", "lm"),
                                              trainable=("extractor", "adapter", "lm")))
        with pytest.raises(ContractError):
            train(model, studies, TrainConfig(frozen=(),
                                              trainable=("extractor", "adapter", "lm")))
        with pytest.raises(ContractError):
            train(model, [], TrainConfig())

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
        import json
        echo = json.loads((tmp_path / "ckpt" / "train_config.json").read_text())
        assert echo["train"]["strategy"] == "NS"
        assert echo["model"]["lm_dim"] == 12
        assert echo["vocab"][:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
