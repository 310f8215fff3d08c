"""Optimizers, learning-rate schedules and plateau tracking.

Two configurations are supported: Adam with decoupled weight decay 0.01 and
Adamax without decay. Pre-training pairs linear warmup with inverse-sqrt
decay; fine-tuning pairs linear warmup with multiply-by-0.4-on-plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor

ADAM_DECAY = "adam_decay"
ADAMAX_NODECAY = "adamax_nodecay"
OPTIMIZER_KINDS = (ADAM_DECAY, ADAMAX_NODECAY)
SCHEDULE_INV_SQRT = "inverse_sqrt"
SCHEDULE_PLATEAU = "plateau"

PLATEAU_FACTOR = 0.4
PLATEAU_PATIENCE = 2  # consecutive non-improving evals per decay event
EPS = 1e-8  # added to the second-moment denominator


@dataclass
class OptimizerConfig:
    kind: str = ADAM_DECAY
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    warmup_steps: int = 100
    schedule: str = SCHEDULE_PLATEAU
    eval_interval: int = 100

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0,1), got {self.beta1}/{self.beta2}")
        if self.schedule not in (SCHEDULE_INV_SQRT, SCHEDULE_PLATEAU):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.warmup_steps < 1 or self.eval_interval < 1:
            raise ConfigError("warmup_steps and eval_interval must be >= 1")


def pretraining_config(lr: float = 2e-4, warmup_steps: int = 100,
                       eval_interval: int = 100) -> OptimizerConfig:
    """Adam, betas (0.9, 0.98), no decay, warmup + inverse-sqrt decay."""
    return OptimizerConfig(kind=ADAM_DECAY, lr=lr, beta1=0.9, beta2=0.98, weight_decay=0.0,
                           warmup_steps=warmup_steps, schedule=SCHEDULE_INV_SQRT,
                           eval_interval=eval_interval)


@dataclass
class PlateauTracker:
    """Multiplies the schedule by PLATEAU_FACTOR after PLATEAU_PATIENCE
    non-improving evals."""

    best: float = math.inf
    streak: int = 0
    scale: float = 1.0

    def observe(self, valid_loss: float) -> bool:
        if valid_loss < self.best:
            self.best = valid_loss
            self.streak = 0
            return False
        self.streak += 1
        if self.streak >= PLATEAU_PATIENCE:
            self.scale *= PLATEAU_FACTOR
            self.streak = 0
            return True
        return False


def learning_rate(cfg: OptimizerConfig, step: int, plateau_scale: float = 1.0) -> float:
    """lr at 1-based `step`: linear warmup, then the configured decay."""
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    if step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    if cfg.schedule == SCHEDULE_INV_SQRT:
        return cfg.lr * math.sqrt(cfg.warmup_steps / step)
    return cfg.lr * plateau_scale


class Optimizer:
    """Stateful Adam / Adamax that owns the named parameters: construction
    copies them into one flat buffer and makes each parameter's `.data` a view
    of it, so a step is one vectorised update in place that rounds as a
    per-parameter loop would."""

    def __init__(self, cfg: OptimizerConfig, trainable: dict[str, Tensor]):
        self.cfg = cfg
        self.trainable = dict(trainable)
        self._theta = np.concatenate([t.data.ravel() for t in self.trainable.values()])
        offset = 0
        for t in self.trainable.values():
            t.data = self._theta[offset:offset + t.data.size].reshape(t.shape)
            offset += t.data.size
        self._m, self._v = np.zeros((2, offset), dtype=self._theta.dtype)
        self.plateau = PlateauTracker()

    def step(self, grads: dict[str, np.ndarray], step: int) -> float:
        """One update of every trainable param from its gradient; returns the lr used."""
        cfg = self.cfg
        lr = learning_rate(cfg, step, self.plateau.scale)
        g = np.concatenate([np.ravel(grads[n]) for n in self.trainable])
        if not np.isfinite(g).all():
            name, bad = next((n, grads[n]) for n in self.trainable
                             if not np.isfinite(grads[n]).all())
            raise NumericError(
                f"non-finite gradient for {name!r} at step {step}: "
                f"|g|_max={np.abs(bad[np.isfinite(bad)]).max(initial=0.0):.3e}"
            )
        m, v, theta = self._m, self._v, self._theta
        b1, b2 = cfg.beta1, cfg.beta2
        m *= b1
        m += (1.0 - b1) * g
        if cfg.kind == ADAM_DECAY:
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + EPS)
            if cfg.weight_decay:
                update += cfg.weight_decay * theta
        else:
            np.maximum(b2 * v, np.abs(g), out=v)
            update = (m / (1.0 - b1**step)) / (v + EPS)
        theta -= lr * update
        return lr
