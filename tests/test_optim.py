"""AdamW update rule and the warmup+cosine schedule."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.nn import AdamW, LrSchedule, Tensor, lr_at


def scalar_param(value: float) -> dict:
    return {"p": Tensor(np.array([value]), requires_grad=True)}


def step(opt: AdamW, grad, lr: float) -> None:
    """One ``opt.step(lr)`` with ``grad`` as the gradient of its one parameter."""
    [p] = opt.params.values()
    p.grad = np.asarray(grad, dtype=float)
    opt.step(lr)


class TestAdamW:
    def test_positive_grad_decreases_param(self):
        params = scalar_param(1.0)
        step(AdamW(params), [0.5], lr=0.1)
        assert params["p"].data[0] < 1.0

    def test_lr_zero_is_identity(self):
        params = scalar_param(1.0)
        step(AdamW(params, weight_decay=0.0), [2.0], lr=0.0)
        assert params["p"].data[0] == 1.0

    def test_zero_grad_zero_decay_is_identity(self):
        params = scalar_param(3.5)
        opt = AdamW(params, weight_decay=0.0)
        step(opt, np.zeros(1), lr=0.3)
        step(opt, np.zeros(1), lr=0.3)
        assert params["p"].data[0] == 3.5

    def test_missing_grad_steps_as_zero(self):
        """A parameter whose ``grad`` is None takes a zero-gradient step:
        its moments exist and decay moves it."""
        params = scalar_param(2.0)
        opt = AdamW(params, weight_decay=0.1)
        opt.step(lr=0.5)
        assert abs(params["p"].data[0] - 2.0 * (1 - 0.5 * 0.1)) < 1e-15
        assert opt.m["p"][0] == 0.0 and opt.v["p"][0] == 0.0 and opt.step_count == 1

    def test_two_steps_match_hand_computation(self):
        # One scalar parameter, fixed grad g=1, betas (0.9, 0.999), eps 1e-8.
        lr, eps = 0.1, 1e-8
        params = scalar_param(1.0)
        opt = AdamW(params, betas=(0.9, 0.999), eps=eps, weight_decay=0.0)
        step(opt, np.ones(1), lr)
        step(opt, np.ones(1), lr)
        # step 1: m=0.1 v=0.001; m_hat=1 v_hat=1 -> update lr/(1+eps)
        # step 2: m=0.19 v=0.001999; m_hat=0.19/0.19=1, v_hat=0.001999/0.001999=1
        expected = 1.0 - 2 * lr * (1.0 / (1.0 + eps))
        assert abs(params["p"].data[0] - expected) < 1e-15
        assert opt.step_count == 2

    def test_decoupled_weight_decay(self):
        params = scalar_param(2.0)
        step(AdamW(params, weight_decay=0.1), np.zeros(1), lr=0.5)
        assert abs(params["p"].data[0] - 2.0 * (1 - 0.5 * 0.1)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            step(AdamW(scalar_param(1.0)), np.zeros(2), lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ContractError):
            step(AdamW(scalar_param(1.0)), np.ones(1), lr=-1.0)

    def test_moments_match_param_shapes(self):
        opt = AdamW({"w": Tensor(np.ones((2, 3)), requires_grad=True)})
        step(opt, np.ones((2, 3)), lr=0.1)
        assert opt.m["w"].shape == (2, 3)
        assert opt.v["w"].shape == (2, 3)

    def test_frozen_prefixes_discard_gradients(self):
        """A parameter left out of the optimizer keeps its value and gets no
        moments, even with a gradient present."""
        params = {"enc.w": Tensor(np.ones(2), requires_grad=True),
                  "lm.w": Tensor(np.ones(2), requires_grad=True)}
        for p in params.values():
            p.grad = np.ones(2)
        opt = AdamW({"lm.w": params["lm.w"]}, weight_decay=0.0)
        opt.step(lr=0.1)
        assert np.array_equal(params["enc.w"].data, np.ones(2))
        assert not np.array_equal(params["lm.w"].data, np.ones(2))
        assert "enc.w" not in opt.m


class TestLrSchedule:
    def test_warmup_end_reaches_base(self):
        sched = LrSchedule(base_lr=2e-5, total_steps=1000, warmup_ratio=0.03)
        assert lr_at(sched, 30) == pytest.approx(2e-5)

    def test_final_step_is_zero(self):
        sched = LrSchedule(base_lr=2e-5, total_steps=1000, warmup_ratio=0.03)
        assert abs(lr_at(sched, 1000)) < 1e-12

    def test_linear_ramp_midpoint(self):
        sched = LrSchedule(base_lr=2e-5, total_steps=1000, warmup_ratio=0.03)
        assert lr_at(sched, 15) == pytest.approx(1e-5)

    def test_continuity_at_boundary(self):
        sched = LrSchedule(base_lr=3e-4, total_steps=500, warmup_ratio=0.1)
        warmup = 50
        left = sched.base_lr * (warmup - 1) / warmup
        assert abs(lr_at(sched, warmup) - lr_at(sched, warmup - 1)) <= \
            abs(sched.base_lr - left) + 1e-12
        assert abs(lr_at(sched, warmup) - sched.base_lr) < 1e-12

    def test_step_out_of_range(self):
        sched = LrSchedule(base_lr=1e-3, total_steps=10)
        with pytest.raises(ContractError):
            lr_at(sched, 11)
        with pytest.raises(ContractError):
            lr_at(sched, -1)

    def test_nonnegative_everywhere(self):
        sched = LrSchedule(base_lr=1e-3, total_steps=200, warmup_ratio=0.05)
        values = [lr_at(sched, s) for s in range(201)]
        assert min(values) >= 0.0

    def test_invalid_ratio(self):
        with pytest.raises(ContractError):
            LrSchedule(base_lr=1e-3, total_steps=10, warmup_ratio=1.0)
