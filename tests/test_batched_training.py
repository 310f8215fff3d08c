"""Batched training losses against the per-sequence references in oracles.py,
and the tape-memory changes (boolean dropout masks, gradient release in
backward) against the formulas they replace."""

import gc
import tracemalloc

import numpy as np
import pytest

from polyscore import encoder
from polyscore import tensor as T
from polyscore.encoder import ModelConfig, forward
from polyscore.errors import ContractError
from polyscore.model import Model, Scorer
from polyscore.tensor import Tensor
from polyscore.text import Example, TokenBatch, Vocabulary, encode_pair, encode_pairs
from polyscore.training import (
    MLM_RATE,
    FinetuneSettings,
    _step_gradients,
    bi_batch_loss,
    cross_batch_loss,
    finetune_valid_loss,
    mlm_batch_loss,
    mlm_corrupt,
    next_batch_loss,
    poly_batch_loss,
    rescale_final_layer,
)

from conftest import make_rng, summed
from oracles import (
    backward_keep_all,
    backward_recursive,
    bi_loss_per_sequence,
    cross_loss_one_forward,
    cross_loss_per_sequence,
    encode_pair_reference,
    grad_check,
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
            lambda: summed(cross_batch_loss(scorer, batch, pool, settings, make_rng(8))),
            lambda: cross_loss_per_sequence(scorer, batch, pool, settings, make_rng(8)))

    def test_cross_draws_negatives_in_order(self, base, vocab):
        model = base.derive("cross", make_rng(1))
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(n_candidates=4)
        a, b = make_rng(9), make_rng(9)
        list(cross_batch_loss(Scorer(model, vocab), mixed_examples(3, seed=4), pool, settings, a))
        cross_loss_per_sequence(Scorer(model, vocab), mixed_examples(3, seed=4), pool, settings, b)
        assert a.integers(1 << 30) == b.integers(1 << 30)


def record_dropout_masks(monkeypatch) -> list:
    """Every forward's dropout keep masks, as they are drawn: per forward, per
    sequence, each site's mask over that sequence's own span."""
    calls = []
    original = encoder._dropout_keeps

    def recording(batch, cfg, rng, rows):
        keeps = list(original(batch, cfg, rng, rows))
        b, n = batch.token_ids.shape
        lengths = n - np.argmax(batch.pad_mask[:, ::-1], axis=1)
        calls.append([[k[i, :, :length, :length] if k.ndim == 4
                       else k.reshape(b, -1, k.shape[-1])[i, :length] for k in keeps]
                      for i, length in enumerate(lengths)])
        return iter(keeps)

    monkeypatch.setattr(encoder, "_dropout_keeps", recording)
    return calls


class TestCrossParts:
    """A Cross step as parts of at most CROSS_PART_PAIRS pairs, summed by the
    step loop, against the one-forward loss it replaced."""

    # id: n_candidates, candidates per example (None: one, so all sampled),
    # negatives mode, pairs per part
    CASES = {
        "one_example_per_part": (16, [None] * 3, "sampled", [16, 16, 16]),
        "four_per_part": (4, [None] * 9, "sampled", [16, 16, 4]),
        "budget_does_not_divide": (3, [None] * 7, "sampled", [15, 6]),
        "example_over_the_budget": (17, [None] * 2, "sampled", [17, 17]),
        # counts 6, 2, 6 (one candidate: sampled), 4, 6, 3, 5
        "ragged_provided": (6, [6, 2, 1, 4, 7, 3, 5], "provided", [14, 13, 5]),
    }

    @staticmethod
    def batch(candidates):
        return [mixed_examples(1, seed=30 + i, n_candidates=c or 1)[0]
                for i, c in enumerate(candidates)]

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("case", CASES)
    def test_step_matches_one_forward(self, vocab, monkeypatch, case, dtype, tol):
        n_candidates, candidates, neg_mode, part_pairs = self.CASES[case]
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(5), dtype)
        model = base.derive("cross", make_rng(1))
        scorer, batch = Scorer(model, vocab), self.batch(candidates)
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(neg_mode=neg_mode, n_candidates=n_candidates)
        params = list(model.named_parameters().values())
        masks = record_dropout_masks(monkeypatch)
        data, drop = make_rng(8), make_rng(9)
        want = cross_loss_one_forward(scorer, batch, pool, settings, data, drop)
        want_grads = T.backward(want, params)
        part_data, part_drop = make_rng(8), make_rng(9)
        grads, loss = _step_gradients(
            cross_batch_loss(scorer, batch, pool, settings, part_data, part_drop), params)

        want_call, *part_calls = masks
        assert [len(call) for call in part_calls] == part_pairs
        got_sites, want_sites = ([site for call in calls for row in call for site in row]
                                 for calls in (part_calls, [want_call]))
        assert len(got_sites) == len(want_sites)
        assert all(map(np.array_equal, got_sites, want_sites))
        assert part_data.bit_generator.state == data.bit_generator.state
        assert part_drop.bit_generator.state == drop.bit_generator.state
        assert abs(loss - want.item()) <= tol * abs(want.item())
        scale = max(float(np.abs(g).max()) for g in want_grads.values())
        for p in params:
            assert grads[p].dtype == dtype
            assert np.abs(grads[p] - want_grads[p]).max() <= tol * scale

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("neg_mode,candidates", [("sampled", [None] * 4),
                                                     ("provided", [4, 2, 1, 3])])
    def test_one_part_step_bit_identical(self, vocab, dtype, neg_mode, candidates):
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(5), dtype)
        model = base.derive("cross", make_rng(1))
        scorer, batch = Scorer(model, vocab), self.batch(candidates)
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(neg_mode=neg_mode, n_candidates=4)  # <= 16 pairs
        params = list(model.named_parameters().values())
        want = cross_loss_one_forward(scorer, batch, pool, settings, make_rng(8), make_rng(9))
        want_grads = T.backward(want, params)
        parts = list(cross_batch_loss(scorer, batch, pool, settings, make_rng(8), make_rng(9)))
        assert len(parts) == 1
        assert parts[0].data.tobytes() == want.data.tobytes()
        grads, loss = _step_gradients(parts, params)
        assert loss == want.item()
        for p in params:
            assert grads[p].tobytes() == want_grads[p].tobytes()

    def test_multi_part_step_gradients(self, base, vocab):
        model = base.derive("cross", make_rng(1))
        scorer, batch = Scorer(model, vocab), mixed_examples(3, seed=4)
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(n_candidates=8)  # two examples a part: two parts

        def parts():
            return cross_batch_loss(scorer, batch, pool, settings, make_rng(8))

        params = model.named_parameters()
        grads, _ = _step_gradients(parts(), params.values())
        assert len(list(parts())) == 2
        grad_check(lambda: sum(part.item() for part in parts()),
                   {n: t.data for n, t in params.items()},
                   {n: grads[t] for n, t in params.items()}, make_rng(10), probes=60)

    def test_validation_sums_the_parts(self, base, vocab):
        model = base.derive("cross", make_rng(1))
        scorer, sample = Scorer(model, vocab), mixed_examples(9, seed=4)
        pool = [ex.gold for ex in mixed_examples(12, seed=7)]
        settings = FinetuneSettings(batch_size=2, n_candidates=4)
        got = finetune_valid_loss(model, scorer, sample, pool, settings, make_rng(8))
        want = cross_loss_one_forward(scorer, sample, pool, settings, make_rng(8)).item()
        assert abs(got - want) < TOL


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

    def test_mlm_draws_again_while_the_batch_has_no_target(self, base, vocab):
        # the one maskable token is not selected by the first draw of this
        # seed; a batch with no maskable token at all still raises
        one_word = [Example(("",), ("w3",), 0)]
        first = mlm_corrupt(encode_pair("", "w3", vocab, 64), MLM_RATE, make_rng(11), len(vocab))
        assert first[1] == []
        assert np.isfinite(mlm_batch_loss(base, vocab, one_word, make_rng(11)).item())
        with pytest.raises(ContractError, match="no maskable tokens"):
            mlm_batch_loss(base, vocab, [Example(("",), ("unknown",), 0)], make_rng(11))

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
        vecs, valid = scorer.poly_context(contexts)
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
        out = T.dropout(t, p, make_rng(15).random(x.shape) >= p)
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
        want = backward_keep_all(loss, params)  # first: backward consumes the graph
        got = T.backward(loss, params)
        for p in params:
            assert got[p].tobytes() == want[p].tobytes()

    @pytest.mark.parametrize("kind", ["bi", "poly", "cross", "mlm", "next"])
    def test_gradients_match_recursive_reference(self, base, vocab, kind):
        examples, drop_rng = mixed_examples(4, seed=20), make_rng(22)
        model = base if kind in ("mlm", "next") else base.derive(
            kind, make_rng(1), poly_variant="learnt" if kind == "poly" else None,
            poly_m=3 if kind == "poly" else None)
        scorer = Scorer(model, vocab) if model is not base else None
        if kind == "mlm":
            loss = mlm_batch_loss(model, vocab, examples, make_rng(21), drop_rng)
        elif kind == "next":
            triples = [(ex.context_text, ex.gold, i % 2) for i, ex in enumerate(examples)]
            loss = next_batch_loss(model, vocab, triples, drop_rng)
        elif kind == "cross":
            loss = summed(cross_batch_loss(scorer, examples, [ex.gold for ex in examples],
                                           FinetuneSettings(n_candidates=3), make_rng(21),
                                           drop_rng))
        else:
            loss = (bi_batch_loss if kind == "bi" else poly_batch_loss)(scorer, examples,
                                                                       drop_rng)
        params = list(model.named_parameters().values())
        want = backward_recursive(loss, params)  # first: backward consumes the graph
        got = T.backward(loss, params)
        for p in params:
            assert got[p].dtype == want[p].dtype
            assert got[p].tobytes() == want[p].tobytes()

    @staticmethod
    def traced_step(base, vocab):
        """Traced bytes of a bi step on 8 examples of 30-word contexts: the
        taped forward's retained bytes, backward's peak above them, and what
        stays alive, with the loss held, once backward has returned."""
        model = base.derive("bi", make_rng(1))
        scorer, params = Scorer(model, vocab), list(model.named_parameters().values())
        rng = make_rng(24)
        examples = [Example((words(rng, 30),), (words(rng, 10),), 0) for _ in range(8)]
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = bi_batch_loss(scorer, examples, make_rng(25))
            tape = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            grads = T.backward(loss, params)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        return tape, peak - start - tape, held - start, sum(g.nbytes for g in grads.values())

    def test_a_held_loss_keeps_only_the_gradients(self, base, vocab):
        """backward frees the tape it walks: with the loss still held, what
        the step left alive is the gradients (the whole ~2.6 MB tape before)."""
        tape, _, held, grad_bytes = self.traced_step(base, vocab)
        assert held - grad_bytes < 0.05 * tape, (tape, held, grad_bytes)

    def test_backward_peak_stays_near_the_tape(self, base, vocab):
        """Each node's closure is freed as its vjp returns, so backward's
        temporaries do not sit on top of the whole tape: its peak above the
        forward's bytes is under 25% of them (20% here, 35% when every
        closure lived until backward returned)."""
        tape, above, _, _ = self.traced_step(base, vocab)
        assert above < 0.25 * tape, (tape, above)
