"""Encoder taps, shapes, determinism, and the freezing contract."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.encoder import VitConfig, VitEncoder
from segprompt.nn import AdamW


def toy_config(**kw) -> VitConfig:
    base = dict(image_size=32, patch_size=16, depth=4, dim=16, heads=2, tap_layers=(2, 4))
    base.update(kw)
    return VitConfig(**base)


def rand_image(rng, size=32):
    return rng.random((size, size))


class TestConfig:
    def test_default_taps(self):
        cfg = VitConfig()
        assert cfg.tap_layers == (2, 4, 6, 8)
        assert cfg.grid_side == 4

    def test_dim_768_config_fidelity(self):
        cfg = VitConfig(image_size=64, patch_size=16, depth=8, dim=768, heads=12,
                        tap_layers=(2, 4, 6, 8))
        assert cfg.n_patches == 16
        shallow = VitConfig(image_size=32, patch_size=16, depth=2, dim=768, heads=12,
                            tap_layers=(1, 2))
        enc = VitEncoder(shallow, seed=0)
        [out] = enc.encode([np.zeros((32, 32))])
        assert out.final.features.shape == (4, 768)

    def test_invalid_configs(self):
        with pytest.raises(ContractError):
            VitConfig(image_size=60, patch_size=16)
        with pytest.raises(ContractError):
            VitConfig(dim=65, heads=4)
        with pytest.raises(ContractError):
            VitConfig(depth=4, tap_layers=(2, 6))
        with pytest.raises(ContractError, match="'tap_layers'"):
            VitConfig(tap_layers=())
        with pytest.raises(ContractError, match=r"'tap_layers' \[2, 4, 2\] repeats a layer"):
            VitConfig(tap_layers=(2, 4, 2))


class TestEncode:
    def test_grid_shapes(self):
        enc = VitEncoder(VitConfig(image_size=64, patch_size=16, depth=8, dim=64,
                                   heads=4), seed=0)
        [out] = enc.encode([np.zeros((64, 64))])
        for fg in out.taps.values():
            assert (fg.rows, fg.cols) == (4, 4)
            assert fg.features.shape == (16, 64)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        enc = VitEncoder(toy_config(), seed=3)
        img = rand_image(rng)
        [a] = enc.encode([img])
        [b] = enc.encode([img])
        for k in a.taps:
            assert np.array_equal(a.taps[k].features.data, b.taps[k].features.data)
        assert np.array_equal(a.final.features.data, b.final.features.data)

    def test_tap_list_semantics(self):
        enc = VitEncoder(toy_config(tap_layers=(2, 4), depth=4), seed=0)
        [out] = enc.encode([np.zeros((32, 32))])
        assert sorted(out.taps) == [2, 4]

    def test_final_is_last_block_output(self):
        enc = VitEncoder(toy_config(tap_layers=(4,), depth=4), seed=1)
        [out] = enc.encode([np.zeros((32, 32))])
        assert np.array_equal(out.taps[4].features.data, out.final.features.data)

    def test_extent_and_range_contracts(self):
        enc = VitEncoder(toy_config(), seed=0)
        good = np.zeros((32, 32))
        with pytest.raises(ContractError, match=r"image 1: shape \(16, 16\)"):
            enc.encode([good, np.zeros((16, 16))])
        with pytest.raises(ContractError, match=r"image 2: pixel values"):
            enc.encode([good, good, np.full((32, 32), 1.5)])
        assert enc.encode([]) == []

    def test_batch_permutation_consistency(self):
        rng = np.random.default_rng(5)
        enc = VitEncoder(toy_config(), seed=2)
        img_a, img_b = rand_image(rng), rand_image(rng)
        out_ab = [o.final.features.data for o in enc.encode([img_a, img_b])]
        out_ba = [o.final.features.data for o in enc.encode([img_b, img_a])]
        assert np.array_equal(out_ab[0], out_ba[1])
        assert np.array_equal(out_ab[1], out_ba[0])


def freeze(params: dict) -> None:
    """The freezing rule: a frozen parameter does not require grad."""
    for p in params.values():
        p.requires_grad = False


class TestFreezing:
    def _step(self, enc):
        """One AdamW step over the parameters that require grad."""
        rng = np.random.default_rng(7)
        params = enc.named_params("enc")
        opt = AdamW({k: p for k, p in params.items() if p.requires_grad}, weight_decay=0.0)
        [out] = enc.encode([rng.random((32, 32))])
        (out.final.features * out.final.features).sum().backward()
        opt.step(lr=1e-2)
        return params

    def test_frozen_step_leaves_params_bit_identical(self):
        enc = VitEncoder(toy_config(), seed=4)
        before = {k: v.data.copy() for k, v in enc.named_params("enc").items()}
        freeze(enc.named_params("enc"))
        params = self._step(enc)
        assert {k for k, p in params.items() if not p.requires_grad} == set(params)
        for k, v in params.items():
            assert np.array_equal(v.data, before[k]), k
            assert v.grad is None, k

    def test_unfrozen_step_changes_params(self):
        enc = VitEncoder(toy_config(), seed=4)
        before = {k: v.data.copy() for k, v in enc.named_params("enc").items()}
        params = self._step(enc)
        assert any(not np.array_equal(v.data, before[k]) for k, v in params.items())

    def test_frozen_forward_matches_unfrozen(self):
        rng = np.random.default_rng(9)
        img = rand_image(rng)
        enc_a = VitEncoder(toy_config(), seed=6)
        enc_b = VitEncoder(toy_config(), seed=6)
        freeze(enc_b.named_params("enc"))
        assert np.array_equal(enc_a.encode([img])[0].final.features.data,
                              enc_b.encode([img])[0].final.features.data)

    def test_gradient_flows_through_activations_when_frozen(self):
        # frozen blocks still pass the gradient back to pos_embed
        enc = VitEncoder(toy_config(), seed=8)
        freeze({k: p for k, p in enc.named_params("enc").items() if k != "enc.pos_embed"})
        [out] = enc.encode([np.zeros((32, 32))])
        (out.final.features * out.final.features).sum().backward()
        assert enc.pos_embed.grad is not None
        assert np.isfinite(enc.pos_embed.grad).all()
        assert all(b.attn.wq.weight.grad is None for b in enc.blocks)


def test_weights_roundtrip_through_checkpoint(tmp_path):
    from segprompt.nn import load_into, save_checkpoint

    enc = VitEncoder(toy_config(), seed=10)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, enc.named_params("enc"))
    other = VitEncoder(toy_config(), seed=99)
    load_into(path, other.named_params("enc"))
    img = np.random.default_rng(0).random((32, 32))
    a = enc.encode([img])[0].final.features.data
    b = other.encode([img])[0].final.features.data
    assert np.allclose(a, b, atol=1e-5)  # float32 storage quantization
