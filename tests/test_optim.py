"""AdamW update rule and the warmup+cosine schedule."""

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.nn import AdamW, LrSchedule, OptimState, Tensor, adamw_step, lr_at


def scalar_param(value: float) -> dict:
    return {"p": Tensor(np.array([value]), requires_grad=True)}


class TestAdamW:
    def test_positive_grad_decreases_param(self):
        params = scalar_param(1.0)
        adamw_step(params, {"p": np.array([0.5])}, OptimState(), lr=0.1)
        assert params["p"].data[0] < 1.0

    def test_lr_zero_is_identity(self):
        params = scalar_param(1.0)
        adamw_step(params, {"p": np.array([2.0])}, OptimState(weight_decay=0.0), lr=0.0)
        assert params["p"].data[0] == 1.0

    def test_zero_grad_zero_decay_is_identity(self):
        params = scalar_param(3.5)
        state = OptimState(weight_decay=0.0)
        adamw_step(params, {"p": np.zeros(1)}, state, lr=0.3)
        adamw_step(params, {"p": np.zeros(1)}, state, lr=0.3)
        assert params["p"].data[0] == 3.5

    def test_two_steps_match_hand_computation(self):
        # One scalar parameter, fixed grad g=1, betas (0.9, 0.999), eps 1e-8.
        lr, eps = 0.1, 1e-8
        params = scalar_param(1.0)
        state = OptimState(betas=(0.9, 0.999), eps=eps, weight_decay=0.0)
        adamw_step(params, {"p": np.ones(1)}, state, lr)
        adamw_step(params, {"p": np.ones(1)}, state, lr)
        # step 1: m=0.1 v=0.001; m_hat=1 v_hat=1 -> update lr/(1+eps)
        # step 2: m=0.19 v=0.001999; m_hat=0.19/0.19=1, v_hat=0.001999/0.001999=1
        expected = 1.0 - 2 * lr * (1.0 / (1.0 + eps))
        assert abs(params["p"].data[0] - expected) < 1e-15
        assert state.step_count == 2

    def test_decoupled_weight_decay(self):
        params = scalar_param(2.0)
        state = OptimState(weight_decay=0.1)
        adamw_step(params, {"p": np.zeros(1)}, state, lr=0.5)
        assert abs(params["p"].data[0] - 2.0 * (1 - 0.5 * 0.1)) < 1e-15

    def test_shape_mismatch(self):
        params = scalar_param(1.0)
        with pytest.raises(ContractError):
            adamw_step(params, {"p": np.zeros(2)}, OptimState(), lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ContractError):
            adamw_step(scalar_param(1.0), {"p": np.ones(1)}, OptimState(), lr=-1.0)

    def test_moments_match_param_shapes(self):
        params = {"w": Tensor(np.ones((2, 3)), requires_grad=True)}
        state = OptimState()
        adamw_step(params, {"w": np.ones((2, 3))}, state, lr=0.1)
        assert state.m["w"].shape == (2, 3)
        assert state.v["w"].shape == (2, 3)

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
        assert "enc.w" not in opt.state.m


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
