"""Batched training losses against the per-sequence references in oracles.py,
and the tape-memory changes (boolean dropout masks, gradient release in
backward) against the formulas they replace."""

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore.encoder import ModelConfig, forward
from polyscore.heads import poly_context_vectors
from polyscore.model import Model, Scorer
from polyscore.tensor import Tensor
from polyscore.text import Example, TokenBatch, Vocabulary, encode_pair, encode_pairs
from polyscore.training import (
    MLM_RATE,
    FinetuneSettings,
    bi_batch_loss,
    cross_batch_loss,
    mlm_batch_loss,
    mlm_corrupt,
    next_batch_loss,
    poly_batch_loss,
    rescale_final_layer,
)

from conftest import make_rng
from oracles import (
    backward_keep_all,
    bi_loss_per_sequence,
    cross_loss_per_sequence,
    encode_pair_reference,
    mlm_loss_per_sequence,
    next_loss_per_sequence,
    poly_loss_per_sequence,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


@pytest.fixture(scope="module")
def base(vocab):
    return Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(5))


def words(rng, n):
    return " ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=n))


def mixed_examples(n, seed=0, n_candidates=1):
    """Contexts of 1-3 turns and candidates of 1-7 words: every batch pads."""
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        turns = tuple(words(rng, int(rng.integers(1, 6))) for _ in range(int(rng.integers(1, 4))))
        cands = tuple(words(rng, int(rng.integers(1, 8))) for _ in range(n_candidates))
        out.append(Example(turns, cands, int(rng.integers(n_candidates))))
    return out


def assert_same_loss_and_grads(model, batched, reference):
    params = model.named_parameters()
    got, want = batched(), reference()
    assert abs(got.item() - want.item()) < TOL
    g_got = T.backward(got, list(params.values()))
    g_want = T.backward(want, list(params.values()))
    for name, t in params.items():
        assert np.abs(g_got[t] - g_want[t]).max() < TOL, name


class TestFinetuneLossesMatchPerSequence:
    def test_bi(self, base, vocab):
        for reduction in ("first", "avg_all", "avg_first:3"):
            model = base.derive("bi", make_rng(1), reduction=reduction)
            scorer = Scorer(model, vocab)
            batch = mixed_examples(5, seed=2)
            assert_same_loss_and_grads(model, lambda: bi_batch_loss(scorer, batch),
                                       lambda: bi_loss_per_sequence(scorer, batch))

    @pytest.mark.parametrize("variant", ["learnt", "first_m", "last_m", "last_m_h1"])
    def test_poly(self, base, vocab, variant):
        # m=6 is longer than some contexts (2 tokens) and shorter than others
        model = base.derive("poly", make_rng(1), poly_variant=variant, poly_m=6)
        scorer = Scorer(model, vocab)
        batch = mixed_examples(5, seed=3)
        batch[0] = Example(("w1",), batch[0].candidates, 0)
        assert_same_loss_and_grads(model, lambda: poly_batch_loss(scorer, batch),
                                   lambda: poly_loss_per_sequence(scorer, batch))

    @pytest.mark.parametrize("neg_mode", ["sampled", "provided"])
    def test_cross(self, base, vocab, neg_mode):
        model = base.derive("cross", make_rng(1))
        scorer = Scorer(model, vocab)
        batch = mixed_examples(3, seed=4, n_candidates=4)
        # provided mode: examples with fewer candidates than n_candidates - 1
        # negatives give ragged rows; a one-candidate example samples instead
        batch += [mixed_examples(1, seed=5, n_candidates=2)[0],
                  mixed_examples(1, seed=6, n_candidates=1)[0]]
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(batch_size=5, neg_mode=neg_mode, n_candidates=4)
        assert_same_loss_and_grads(
            model,
            lambda: cross_batch_loss(scorer, batch, pool, settings, make_rng(8)),
            lambda: cross_loss_per_sequence(scorer, batch, pool, settings, make_rng(8)))

    def test_cross_draws_negatives_in_order(self, base, vocab):
        model = base.derive("cross", make_rng(1))
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(n_candidates=4)
        a, b = make_rng(9), make_rng(9)
        cross_batch_loss(Scorer(model, vocab), mixed_examples(3, seed=4), pool, settings, a)
        cross_loss_per_sequence(Scorer(model, vocab), mixed_examples(3, seed=4), pool, settings, b)
        assert a.integers(1 << 30) == b.integers(1 << 30)


class TestPretrainLossesMatchPerSequence:
    def test_mlm_skips_examples_without_targets(self, base, vocab):
        batch = mixed_examples(6, seed=10)
        # an empty context and a one-word gold give one maskable token, which
        # this seed's corruption draw does not select
        batch[2] = Example(("",), ("w3",), 0)
        rng = make_rng(11)
        counts = [len(mlm_corrupt(encode_pair(ex.context_text, ex.gold, vocab, 64), MLM_RATE,
                                  rng, len(vocab))[1]) for ex in batch]
        assert counts[2] == 0 and sum(counts) > 0
        assert_same_loss_and_grads(
            base, lambda: mlm_batch_loss(base, vocab, batch, make_rng(11)),
            lambda: mlm_loss_per_sequence(base, vocab, batch, make_rng(11)))

    def test_next(self, base, vocab):
        rng = make_rng(12)
        triples = [(words(rng, int(rng.integers(1, 9))), words(rng, int(rng.integers(1, 6))),
                    label) for label in (1, 0, 0, 1, 1)]
        assert_same_loss_and_grads(base,
                                   lambda: next_batch_loss(base, vocab, triples),
                                   lambda: next_loss_per_sequence(base, vocab, triples))


class TestPolyContextBatch:
    @pytest.mark.parametrize("variant", ["learnt", "first_m", "last_m", "last_m_h1"])
    def test_valid_rows_equal_one_sequence(self, base, vocab, variant):
        model = base.derive("poly", make_rng(1), poly_variant=variant, poly_m=4)
        scorer = Scorer(model, vocab)
        contexts = [("w1",), ("w2 w3 w4 w5 w6", "w7"), ("w8 w9",)]
        vecs, valid = poly_context_vectors(scorer.context_outputs(contexts), variant, 4,
                                           model.extras.get("poly.codes"))
        for i, turns in enumerate(contexts):
            single = scorer.poly_vectors(turns).data
            assert valid[i].sum() == single.shape[0]
            assert np.abs(vecs.data[i][valid[i]] - single).max() < 1e-12
            assert valid[i][:single.shape[0]].all()  # valid rows come first


class TestEncodePairs:
    CONTEXT = "w1 w2 w3 w4 w5 w6 w7"
    LABELS = ["w8", "w9 w10 w11 w12", "", "w13 w14 w15 w16 w17 w18 w19 w20"]

    @pytest.mark.parametrize("max_len", [64, 9, 6, 4])
    def test_equal_encode_pair(self, vocab, max_len):
        # at the short caps the context is left-truncated and long labels cut
        want = [encode_pair_reference(self.CONTEXT, lab, vocab, max_len) for lab in self.LABELS]
        assert encode_pairs(self.CONTEXT, self.LABELS, vocab, max_len) == want
        assert [encode_pair(self.CONTEXT, lab, vocab, max_len) for lab in self.LABELS] == want

    def test_scorer_cross_pairs_equal_encode_cross(self, base, vocab):
        scorer = Scorer(base.derive("cross", make_rng(1)), vocab)
        scorer.max_pair = 9  # truncates the longer pairs
        turns = ["w1 w2", "w3 w4 w5"]
        want = [encode_pair_reference("w1 w2 __turn__ w3 w4 w5", c, vocab, 9) for c in self.LABELS]
        assert scorer.cross_pairs(turns, self.LABELS) == want
        assert [scorer.encode_cross(turns, c) for c in self.LABELS] == want


class TestRescaleBatched:
    def test_mixed_length_probes_match_per_probe_loop(self, base, vocab):
        from polyscore.encoder import forward

        w = base.towers["enc"]
        probes = [encode_pair("w1 w2 w3 w4 w5", "w6 w7", vocab, 16),
                  encode_pair("w8", "w9", vocab, 16),
                  encode_pair("w10 w11", "w12 w13 w14 w15", vocab, 16)]
        rows = []
        for tp in probes:
            taps = {}
            forward(TokenBatch.of([tp]), w, taps=taps)
            rows.append(taps["last_ffn_out"].data.ravel())
        want = 0.5 / float(np.concatenate(rows).std())
        _, factor = rescale_final_layer(w, 0.5, probes)
        assert abs(factor - want) < 1e-12


class TestDropoutMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_float_keep_formula(self, dtype):
        p = 0.1
        x = make_rng(13).normal(size=(6, 7)).astype(dtype)
        x[0, :3] = [0.0, -0.0, -1.5]
        g = make_rng(14).normal(size=(6, 7)).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = T.dropout(t, p, make_rng(15))
        (grad,) = out._vjp(g)
        keep = ((make_rng(15).random(x.shape) >= p) / (1.0 - p)).astype(dtype)
        for got, want in ((out.data, x * keep), (grad, g * keep)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # signed zeros included


    def test_batch_draws_each_row_as_a_lone_forward(self, base, vocab):
        # dropout masks are drawn row by row over each row's own span, so
        # a batch consumes the rng exactly as its rows run one at a time
        w = base.towers["enc"]
        pairs = [encode_pair(ex.context_text, ex.gold, vocab, 64)
                 for ex in mixed_examples(5, seed=18)]
        assert len({len(tp) for tp in pairs}) > 1
        batched_rng, lone_rng = make_rng(19), make_rng(19)
        out = forward(TokenBatch.of(pairs), w, rng=batched_rng)
        for i, tp in enumerate(pairs):
            lone = forward(TokenBatch.of([tp]), w, rng=lone_rng).hidden_states.data[0]
            assert np.abs(out.hidden_states.data[i, :len(tp)] - lone).max() < TOL
        assert batched_rng.integers(1 << 30) == lone_rng.integers(1 << 30)


class TestBackwardRelease:
    def test_parameter_gradients_bit_identical(self, base, vocab):
        model = base.derive("poly", make_rng(1), poly_variant="learnt", poly_m=3)
        scorer = Scorer(model, vocab)
        params = list(model.named_parameters().values())
        loss = poly_batch_loss(scorer, mixed_examples(4, seed=16), rng=make_rng(17))
        got = T.backward(loss, params)
        want = backward_keep_all(loss, params)
        for p in params:
            assert got[p].tobytes() == want[p].tobytes()
