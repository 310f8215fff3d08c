"""Optimizer updates, schedules and plateau decay."""

import math

import numpy as np
import pytest

from polyscore.errors import ConfigError, NumericError
from polyscore.optim import (
    ADAMAX_NODECAY,
    EPS,
    OptimizerConfig,
    Optimizer,
    PlateauTracker,
    learning_rate,
    pretraining_config,
)
from polyscore.tensor import Tensor

from conftest import make_rng
from oracles import adam_first_step, adamax_first_step, optimizer_steps_per_parameter


def one_param(value=1.0):
    return {"p": Tensor(np.asarray([value]), requires_grad=True)}


class TestAdam:
    def test_first_step_matches_closed_form(self):
        cfg = OptimizerConfig(lr=0.1, warmup_steps=1, weight_decay=0.01)
        params = one_param(2.0)
        opt = Optimizer(cfg, params)
        opt.step({"p": np.asarray([0.5])}, 1)
        expected = adam_first_step(2.0, 0.5, lr=0.1, beta1=cfg.beta1, beta2=cfg.beta2,
                                   eps=EPS, weight_decay=0.01)
        assert abs(params["p"].data[0] - expected) < 1e-12

    def test_decay_is_decoupled(self):
        # zero gradient with decay still shrinks the weight
        cfg = OptimizerConfig(lr=0.1, warmup_steps=1, weight_decay=0.5)
        params = one_param(2.0)
        Optimizer(cfg, params).step({"p": np.asarray([0.0])}, 1)
        assert abs(params["p"].data[0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-12

    def test_adamax_first_step(self):
        cfg = OptimizerConfig(kind=ADAMAX_NODECAY, lr=0.1, warmup_steps=1,
                              weight_decay=0.0)
        params = one_param(2.0)
        Optimizer(cfg, params).step({"p": np.asarray([0.5])}, 1)
        expected = adamax_first_step(2.0, 0.5, lr=0.1, beta1=cfg.beta1, eps=EPS)
        assert abs(params["p"].data[0] - expected) < 1e-12

    def test_nan_gradient_aborts_with_name(self):
        cfg = OptimizerConfig(lr=0.1, warmup_steps=1)
        opt = Optimizer(cfg, one_param())
        with pytest.raises(NumericError, match="'p'"):
            opt.step({"p": np.asarray([float("nan")])}, 1)


SHAPES = {"w": (3, 4), "b": (4,), "e": (5, 2, 3), "s": (1,)}


class TestFlatUpdate:
    """One vectorised update over every parameter rounds as the per-parameter
    loop does: after 5 steps on mixed shapes the weights are equal bit for bit,
    and each parameter still holds the array it held before the first step."""

    @staticmethod
    def run(cfg):
        rng = make_rng(31)
        init = {n: rng.normal(size=shape) for n, shape in SHAPES.items()}
        grad_steps = [{n: rng.normal(0.0, 0.1 * (k + 1), size=shape)
                       for n, shape in SHAPES.items()} for k in range(5)]
        params = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
        opt = Optimizer(cfg, params)
        arrays = {n: t.data for n, t in params.items()}
        for step, grads in enumerate(grad_steps, 1):
            opt.step(grads, step)
        want = optimizer_steps_per_parameter(cfg, init, grad_steps)
        for name, t in params.items():
            assert t.data is arrays[name], name
            assert t.shape == SHAPES[name]
            assert t.data.tobytes() == want[name].tobytes(), name

    def test_adam_with_weight_decay(self):
        self.run(OptimizerConfig(lr=0.05, warmup_steps=2, weight_decay=0.01))

    def test_adamax(self):
        self.run(OptimizerConfig(kind=ADAMAX_NODECAY, lr=0.05, warmup_steps=2,
                                 weight_decay=0.0))

    def test_nan_after_finite_params_names_the_param(self):
        params = {n: Tensor(np.zeros(shape), requires_grad=True) for n, shape in SHAPES.items()}
        grads = {n: np.ones(shape) for n, shape in SHAPES.items()}
        grads["e"][1, 0, 2] = np.inf
        with pytest.raises(NumericError, match="'e'"):
            Optimizer(OptimizerConfig(lr=0.1, warmup_steps=1), params).step(grads, 1)


class TestSchedules:
    def test_linear_warmup(self):
        cfg = OptimizerConfig(lr=1.0, warmup_steps=10)
        for k in range(1, 11):
            assert learning_rate(cfg, k) == pytest.approx(k / 10)

    def test_inverse_sqrt_after_warmup(self):
        cfg = pretraining_config(lr=1.0, warmup_steps=100)
        assert learning_rate(cfg, 100) == pytest.approx(1.0)
        assert learning_rate(cfg, 400) == pytest.approx(math.sqrt(100 / 400))
        assert learning_rate(cfg, 10000) == pytest.approx(0.1)

    def test_plateau_schedule_constant_until_decay(self):
        cfg = OptimizerConfig(lr=2.0, warmup_steps=5, schedule="plateau")
        assert learning_rate(cfg, 50) == 2.0
        assert learning_rate(cfg, 50, plateau_scale=0.4) == pytest.approx(0.8)

    def test_pretraining_defaults(self):
        cfg = pretraining_config()
        assert (cfg.lr, cfg.beta1, cfg.beta2, cfg.weight_decay) == (2e-4, 0.9, 0.98, 0.0)


class TestPlateau:
    def test_two_non_improving_evals_one_decay(self):
        t = PlateauTracker()
        assert not t.observe(1.0)   # first eval sets best
        assert not t.observe(1.1)   # strike one
        assert t.observe(1.2)       # strike two -> decay
        assert t.scale == pytest.approx(0.4)
        # counter reset: next single regression does not decay again
        assert not t.observe(1.3)
        assert t.scale == pytest.approx(0.4)
        assert t.observe(1.4)
        assert t.scale == pytest.approx(0.16)

    def test_improvement_resets_streak(self):
        t = PlateauTracker()
        t.observe(1.0)
        t.observe(1.5)
        assert not t.observe(0.5)  # improvement
        t.observe(0.6)
        assert t.scale == 1.0


class TestValidation:
    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(lr=0.0)

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(beta2=1.0)
