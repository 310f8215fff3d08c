"""Loss closed forms and their gradients."""

import math

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore.errors import ContractError
from polyscore.losses import (
    binary_choice_loss,
    external_neg_loss,
    in_batch_loss,
)
from polyscore.tensor import Tensor

from conftest import make_rng
from oracles import cross_entropy_closed_form, grad_check


class TestInBatchLoss:
    def test_strong_diagonal_closed_form(self):
        # logits diag=10, off-diag=0 for B=2 needs embeddings engineered:
        # feed them via orthogonal rows scaled so the dot products land there
        y = np.array([[math.sqrt(10.0), 0.0], [0.0, math.sqrt(10.0)]])
        loss, logits = in_batch_loss(Tensor(y), Tensor(y))
        assert np.abs(logits.data - np.diag([10.0, 10.0])).max() < 1e-12
        expected = -math.log(math.exp(10.0) / (math.exp(10.0) + 1.0))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 4.54e-5) < 1e-7

    def test_identical_embeddings_log_b(self):
        for b in (2, 4, 8):
            y = Tensor(np.ones((b, 4)))
            loss, _ = in_batch_loss(y, y)
            assert loss.item() == pytest.approx(math.log(b), abs=0)

    def test_random_batch_matches_row_oracle(self, rng):
        yc = rng.normal(size=(4, 8))
        ycand = rng.normal(size=(4, 8))
        loss, logits = in_batch_loss(Tensor(yc), Tensor(ycand))
        rows = [cross_entropy_closed_form(logits.data[i], i) for i in range(4)]
        assert abs(loss.item() - np.mean(rows)) < 1e-12

    def test_batch_of_one_rejected(self):
        y = Tensor(np.ones((1, 4)))
        with pytest.raises(ContractError):
            in_batch_loss(y, y)

    def test_permutation_invariance(self, rng):
        yc = rng.normal(size=(5, 6))
        ycand = rng.normal(size=(5, 6))
        loss, _ = in_batch_loss(Tensor(yc), Tensor(ycand))
        perm = rng.permutation(5)
        loss_p, _ = in_batch_loss(Tensor(yc[perm]), Tensor(ycand[perm]))
        assert abs(loss.item() - loss_p.item()) < 1e-12

    def test_gradients(self, rng):
        yc = rng.normal(size=(3, 5))
        ycand = rng.normal(size=(3, 5))

        def build():
            a = Tensor(yc, requires_grad=True)
            b = Tensor(ycand, requires_grad=True)
            loss, _ = in_batch_loss(a, b)
            return loss, a, b

        loss, a, b = build()
        grads = T.backward(loss, [a, b])
        grad_check(lambda: build()[0].item(), {"yc": yc, "ycand": ycand},
                   {"yc": grads[a], "ycand": grads[b]}, rng, probes=50)


class TestExternalNegLoss:
    def test_two_candidate_closed_form(self):
        loss = external_neg_loss(Tensor([10.0, 0.0]))
        assert abs(loss.item() - (-math.log(math.exp(10) / (math.exp(10) + 1)))) < 1e-12
        assert abs(loss.item() - 4.54e-5) < 1e-7

    def test_uniform_sixteen(self):
        loss = external_neg_loss(Tensor([1.5] * 16))
        assert loss.item() == pytest.approx(math.log(16), abs=0)

    def test_nondefault_correct_index(self, rng):
        scores = rng.normal(size=6)
        loss = external_neg_loss(Tensor(scores), correct_index=3)
        assert abs(loss.item() - cross_entropy_closed_form(scores, 3)) < 1e-12

    @pytest.mark.parametrize("index", [-1, 6])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ContractError, match="out of range"):
            external_neg_loss(Tensor(np.zeros(6)), correct_index=index)

    def test_single_candidate_rejected(self):
        with pytest.raises(ContractError):
            external_neg_loss(Tensor([1.0]))


class TestBinaryChoiceLoss:
    def test_matches_logistic_form(self):
        for s, y in ((2.0, 1), (2.0, 0), (-1.5, 1), (0.0, 0)):
            sigma = 1.0 / (1.0 + math.exp(-s))
            expected = -math.log(sigma) if y == 1 else -math.log(1 - sigma)
            got = binary_choice_loss(Tensor(np.asarray(s)), y).item()
            assert abs(got - expected) < 1e-12

    def test_extreme_score_stable(self):
        assert np.isfinite(binary_choice_loss(Tensor(np.asarray(500.0)), 0).item())

    def test_bad_label(self):
        with pytest.raises(ContractError):
            binary_choice_loss(Tensor(np.asarray(1.0)), 2)


class TestNll:
    def test_matches_closed_form(self, rng):
        # The negative log-likelihood of one logit vector, now computed by
        # external_neg_loss, at every target including the default 0.
        logits = rng.normal(size=5)
        for t in range(5):
            got = external_neg_loss(Tensor(logits), correct_index=t).item()
            assert abs(got - cross_entropy_closed_form(logits, t)) < 1e-12
