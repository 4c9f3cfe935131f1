"""Forward/backward contracts of the autodiff core, checked against hand
calculations and the central finite-difference oracle."""

import numpy as np
import pytest

from segprompt.errors import ContractError, OracleError
from segprompt.nn import (
    LinearLayer,
    MlpBlock,
    Tensor,
    concat,
    cross_entropy,
    finite_diff_grad,
    gelu,
    grad_rel_error,
    layer_norm,
    no_grad,
    softmax,
)
from segprompt.nn import tensor as T


def make_linear(weight, bias):
    layer = LinearLayer(np.shape(weight)[1], np.shape(weight)[0])
    layer.weight.data[:] = weight
    layer.bias.data[:] = bias
    return layer


class TestForward:
    def test_identity_weight(self):
        layer = make_linear(np.eye(2), np.zeros(2))
        out = layer(Tensor([1.0, 2.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_constant_map(self):
        layer = make_linear(np.zeros((1, 3)), [3.0])
        out = layer(Tensor([7.0, -2.0, 0.5]))
        assert np.array_equal(out.data, [3.0])

    def test_hand_matrix_multiply(self):
        layer = make_linear([[1.0, 1.0], [1.0, -1.0]], np.zeros(2))
        out = layer(Tensor([2.0, 3.0]))
        assert np.array_equal(out.data, [5.0, -1.0])

    def test_dimension_mismatch(self):
        layer = make_linear(np.eye(2), np.zeros(2))
        with pytest.raises(ContractError):
            layer(Tensor([1.0, 2.0, 3.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        layer = LinearLayer(4, 4, rng)
        x = rng.standard_normal((3, 4))
        a = layer(Tensor(x)).data
        b = layer(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_mlp_requires_layers(self):
        with pytest.raises(ContractError):
            MlpBlock([4])


class TestBackward:
    def test_linear_map_gradient(self):
        layer = make_linear(np.zeros((2, 3)), np.zeros(2))
        layer.weight.data[:] = np.arange(6).reshape(2, 3)
        x = np.array([0.5, -1.0, 2.0])
        loss = layer(Tensor(x)).sum()
        loss.backward()
        assert np.allclose(layer.weight.grad, np.outer(np.ones(2), x))
        assert np.allclose(layer.bias.grad, np.ones(2))

    def test_norm_squared_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_parameters_untouched(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(3, 2, rng)
        before = layer.weight.data.copy()
        layer(Tensor(rng.standard_normal(3))).sum().backward()
        assert np.array_equal(layer.weight.data, before)

    def test_mlp_matches_finite_diff_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mlp = MlpBlock([4, 5, 3, 1], activation="gelu", rng=rng)
            x = Tensor(rng.standard_normal(4), requires_grad=True)
            mlp(x).sum().backward()
            for name, p in mlp.named_params("mlp").items():
                def f(t, p=p):
                    old = p.data
                    p.data = t.data
                    try:
                        return float(mlp(Tensor(x.data)).sum().data)
                    finally:
                        p.data = old
                num = finite_diff_grad(f, Tensor(p.data))
                assert grad_rel_error(p.grad, num) < 1e-4, f"{name} (seed {seed})"

    def test_composed_activation_input_gradient(self):
        rng = np.random.default_rng(7)
        layer = LinearLayer(4, 4, rng)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        gelu(layer(x)).sum().backward()
        num = finite_diff_grad(lambda t: float(gelu(layer(t)).sum().data), Tensor(x.data))
        assert grad_rel_error(x.grad, num) < 1e-4

    def test_results_finite(self):
        rng = np.random.default_rng(1)
        mlp = MlpBlock([6, 6, 6], activation="gelu", rng=rng)
        x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        out = mlp(x).sum()
        out.backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()


class TestOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_gradient(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = rng.standard_normal((3, 4))
        (softmax(x) * w).sum().backward()
        num = finite_diff_grad(lambda t: float((softmax(t) * w).sum().data), Tensor(x.data))
        assert grad_rel_error(x.grad, num) < 1e-4

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(6), requires_grad=True)
        beta = Tensor(rng.standard_normal(6), requires_grad=True)
        w = rng.standard_normal((4, 6))
        (layer_norm(x, gamma, beta) * w).sum().backward()
        for param in (x, gamma, beta):
            def f(t, param=param):
                old = param.data
                param.data = t.data.reshape(old.shape)
                try:
                    return float((layer_norm(Tensor(x.data), gamma, beta) * w).sum().data)
                finally:
                    param.data = old
            num = finite_diff_grad(f, Tensor(param.data))
            assert grad_rel_error(param.grad, num) < 1e-4

    def test_concat_and_slice_gradients(self):
        a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concat([a, b], axis=0)[1:4].sum()
        out.backward()
        assert np.array_equal(a.grad, [[0, 0], [1, 1], [1, 1]])
        assert np.array_equal(b.grad, [[1, 1], [0, 0]])

    def test_gather_gradient_accumulates(self):
        table = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        out = table[np.array([1, 1, 3])].sum()
        out.backward()
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 7)), requires_grad=True)
        loss = cross_entropy(logits, np.array([0, 3, 6]))
        assert abs(loss.item() - np.log(7)) < 1e-12

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        targets = np.array([0, 2, 4, 1])
        cross_entropy(logits, targets).backward()
        num = finite_diff_grad(
            lambda t: float(cross_entropy(t, targets).data), Tensor(logits.data))
        assert grad_rel_error(logits.grad, num) < 1e-4

    def test_vector_matmul_paths(self):
        rng = np.random.default_rng(4)
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        (T.matmul(v, m) * np.array([1.0, -2.0])).sum().backward()
        num_v = finite_diff_grad(
            lambda t: float((T.matmul(t, m) * np.array([1.0, -2.0])).sum().data),
            Tensor(v.data))
        assert grad_rel_error(v.grad, num_v) < 1e-6


def records_graph() -> bool:
    x = Tensor([1.0, 2.0], requires_grad=True)
    return (x * x).requires_grad


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(4, 3, rng)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        with no_grad():
            h = layer(x)
            outs = [h, gelu(h), T.tanh(h), T.relu(h), softmax(h), -h, h - 1.0,
                    layer_norm(h, gamma, beta), concat([h, x[:, :3]], axis=0), h[1],
                    h.sum(), h.mean(axis=0), h.reshape(3, 2),
                    cross_entropy(h, np.array([0, 2]))]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward is None
        assert layer.weight.requires_grad and x.requires_grad

    def test_grad_mode_restored_on_exit(self):
        with no_grad():
            assert not records_graph()
        assert records_graph()

    def test_grad_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert records_graph()

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not records_graph()
            assert not records_graph()
        assert records_graph()

    def test_generate_report_leaves_training_untouched(self):
        from segprompt.encoder import VitConfig
        from segprompt.extractor import ExtractorConfig
        from segprompt.mllm import ModelConfig, ReportModel
        from segprompt.prompting import Strategy
        from segprompt.synth import SynthSpec, make_study, vocabulary

        cfg = ModelConfig(
            encoder=VitConfig(image_size=32, patch_size=16, depth=2, dim=12, heads=2,
                              tap_layers=(1, 2)),
            extractor=ExtractorConfig(dim=12, tap_layers=(1, 2), spatial_side=8,
                                      mlp_depth=2),
            lm_dim=12, lm_depth=1, lm_heads=2, max_seq_len=160)
        study = make_study(SynthSpec(seed=5, n_studies=1, image_size=32,
                                     heart_area_threshold=50), 0)
        used, fresh = ReportModel(cfg, vocabulary()), ReportModel(cfg, vocabulary())
        assert used.generate_report(study, Strategy.SS, max_new=8)
        assert all(p.grad is None for p in used.named_params().values())
        losses = []
        for model in (used, fresh):
            loss = model.study_loss(study, Strategy.SS)
            loss.backward()
            losses.append(loss.item())
        assert losses[0] == losses[1]
        fresh_params = fresh.named_params()
        for name, p in used.named_params().items():
            if p.grad is None:
                assert fresh_params[name].grad is None, name
            else:
                assert np.array_equal(p.grad, fresh_params[name].grad), name


class TestFiniteDiff:
    def test_analytic_square(self):
        got = finite_diff_grad(lambda t: float((t * t).sum().data), Tensor([3.0]), eps=1e-5)
        assert abs(got[0] - 6.0) < 1e-8

    def test_constant_function(self):
        got = finite_diff_grad(lambda t: 4.25, Tensor(np.ones((2, 2))))
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_diff_grad(lambda t: 0.0, Tensor([1.0]), eps=0.0)

    def test_non_finite_evaluation(self):
        with pytest.raises(OracleError):
            finite_diff_grad(lambda t: float("nan"), Tensor([1.0]))
