"""AdamW with decoupled weight decay, plus the warmup+cosine LR schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn.tensor import Tensor


class AdamW:
    """AdamW over the named parameters it is given, holding their moments
    ``m`` and ``v`` and the step count. Frozen parameters are left out by the
    caller: they are never updated and keep no moments."""

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, lr: float) -> None:
        """One update in place from each ``p.grad`` (zero where it is None):
        p -= lr * (m_hat/(sqrt(v_hat)+eps) + wd*p)."""
        if lr < 0:
            raise ContractError("lr must be >= 0")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.betas
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ContractError(
                    f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class LrSchedule:
    """Linear warmup from 0 to base_lr, then cosine decay to 0 at total_steps."""

    base_lr: float
    total_steps: int
    warmup_ratio: float = 0.03

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ContractError("warmup_ratio must lie in [0, 1)")
        if self.total_steps <= 0:
            raise ContractError("total_steps must be positive")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ContractError(
            f"step {step} outside [0, {schedule.total_steps}]")
    warmup = math.floor(schedule.warmup_ratio * schedule.total_steps)
    if step < warmup:
        return schedule.base_lr * step / warmup
    span = schedule.total_steps - warmup
    if span == 0:
        return 0.0
    progress = (step - warmup) / span
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
