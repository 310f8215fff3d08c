"""Reduction functions and the three scoring heads."""

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore.encoder import ModelConfig, TransformerOutput, TransformerWeights, forward, \
    init_parameters
from polyscore.errors import ConfigError, ShapeError
from polyscore.heads import (
    cross_score,
    parse_reduction,
    poly_context_vectors,
    reduce_output,
)
from polyscore.model import Model
from polyscore.tensor import Tensor
from polyscore.text import TokenBatch, Vocabulary, encode_pair, encode_single

from conftest import make_rng
from oracles import bi_score, pad_to, poly_score, softmax_closed_form, transformer_trace


def output_of(rows, n_pads=0):
    """A batch of one: [1, L, H] states whose last n_pads positions are pads."""
    rows = np.asarray(rows, dtype=np.float64)
    mask = np.arange(rows.shape[0]) < rows.shape[0] - n_pads
    return TransformerOutput(hidden_states=Tensor(rows[None]), pad_mask=mask[None])


def reduced(out, kind):
    got = reduce_output(out, kind)
    assert got.shape == (1, out.hidden_states.shape[-1])
    return got.data[0]


def poly_row(out, variant, m, codes=None):
    """Row 0's [m', H] context vectors; a batch of one has no invalid slot."""
    vecs, valid = poly_context_vectors(out, variant, m, codes)
    assert valid.shape == vecs.shape[:2] and valid.all()
    return vecs.data[0]


def row0(t):
    return Tensor(t.data[0])


def init_codes(m, hidden, rng):
    return init_parameters({"codes": (m, hidden)}, rng)["codes"]


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


class TestReduce:
    def test_single_row_all_kinds_agree(self):
        out = output_of([[1.0, 2.0, 3.0]])
        for kind in ("first", "avg_all", "avg_first:3"):
            assert np.array_equal(reduced(out, kind), [1.0, 2.0, 3.0])

    def test_equal_rows_all_kinds_agree(self):
        v = [2.0, -1.0, 0.5]
        out = output_of([v, v, v, v])
        for kind in ("first", "avg_all", "avg_first:2"):
            assert np.abs(reduced(out, kind) - v).max() < 1e-12

    def test_avg_first_m_manual_mean(self, rng):
        rows = rng.normal(size=(5, 8))
        out = output_of(rows)
        got = reduced(out, "avg_first:3")
        assert np.abs(got - rows[:3].mean(axis=0)).max() < 1e-12

    def test_averages_exclude_pads(self, rng):
        rows = rng.normal(size=(6, 4))
        got = reduced(output_of(rows, n_pads=2), "avg_all")
        assert np.abs(got - rows[:4].mean(axis=0)).max() < 1e-12

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_reduction("avg_first:0")
        with pytest.raises(ConfigError):
            parse_reduction("nope")
        for kind in ("avg_first:x", "avg_first:"):  # a non-integer m
            with pytest.raises(ConfigError, match="integer m"):
                parse_reduction(kind)


class TestBiScore:
    def test_orthonormal_basis(self):
        e1 = Tensor([1.0, 0.0, 0.0])
        e2 = Tensor([0.0, 1.0, 0.0])
        assert bi_score(e1, e1).item() == 1.0
        assert bi_score(e1, e2).item() == 0.0

    def test_symmetry(self, rng):
        a, b = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
        assert bi_score(a, b).item() == bi_score(b, a).item()

    def test_elementwise_sum_oracle(self, rng):
        a, b = rng.normal(size=16), rng.normal(size=16)
        expected = sum(float(x) * float(y) for x, y in zip(a, b))
        assert abs(bi_score(Tensor(a), Tensor(b)).item() - expected) < 1e-12

    def test_scaling_preserves_ranking(self, rng):
        ctx = rng.normal(size=8)
        cands = rng.normal(size=(10, 8))
        scores = cands @ ctx
        scaled = (3.7 * cands) @ ctx
        assert np.array_equal(np.argsort(-scores), np.argsort(-scaled))


class TestCrossScore:
    def test_zero_weight_zero_score(self, desk_weights, vocab):
        head = Tensor(np.zeros((32, 1)))
        pair = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 16)])
        assert cross_score(pair, desk_weights, head).data.tolist() == [0.0]

    def test_hand_traced_scalar(self, vocab):
        cfg = ModelConfig(layers=1, heads=1, hidden=4, ffn_hidden=4,
                          vocab_size=len(vocab), max_positions=16)
        w = TransformerWeights.init(cfg, make_rng(5))
        head_w = make_rng(6).normal(size=(4, 1))
        pair = TokenBatch.of([encode_pair("w1", "w2", vocab, 8)])
        got = cross_score(pair, w, Tensor(head_w)).data[0]
        traced = transformer_trace({n: t.data for n, t in w.params.items()}, cfg, pair)
        assert abs(got - float(traced[0] @ head_w[:, 0])) < 1e-9

    def test_candidate_order_matters(self, desk_weights, vocab):
        head = Tensor(make_rng(7).normal(size=(32, 1)))
        diffs = []
        for a, b in [("w1 w2", "w2 w1"), ("w3 w4", "w4 w3")]:
            pa = TokenBatch.of([encode_pair("w5 w6", a, vocab, 16)])
            pb = TokenBatch.of([encode_pair("w5 w6", b, vocab, 16)])
            diffs.append(abs(cross_score(pa, desk_weights, head).data[0]
                             - cross_score(pb, desk_weights, head).data[0]))
        assert max(diffs) > 1e-6  # not a bag-of-words scorer

    def test_head_shape_validated(self, desk_weights, vocab):
        pair = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 16)])
        for bad in ((4, 2), (32, 2), (32,)):
            with pytest.raises(ShapeError, match=r"\[hidden, 1\]"):
                cross_score(pair, desk_weights, Tensor(np.zeros(bad)))


class TestPolyContextVectors:
    def test_learnt_equal_rows_convexity(self, rng):
        v = rng.normal(size=6)
        out = output_of(np.tile(v, (5, 1)))
        codes = init_codes(3, 6, rng)
        got = poly_row(out, "learnt", 3, codes)
        assert np.abs(got - v).max() < 1e-12

    def test_first_m_with_large_m_returns_all_rows(self, rng):
        rows = rng.normal(size=(4, 6))
        got = poly_row(output_of(rows), "first_m", 9)
        assert np.array_equal(got, rows)

    def test_learnt_closed_form_weights(self, rng):
        rows = np.zeros((3, 4))
        rows[0, 0] = 1.0
        rows[1, 1] = 2.0
        rows[2, 2] = -1.0
        code = np.array([[3.0, 1.0, 0.0, 0.0]])
        logits = [float(code[0] @ r) for r in rows]
        weights = softmax_closed_form(logits)
        expected = sum(w * r for w, r in zip(weights, rows))
        got = poly_row(output_of(rows), "learnt", 1, Tensor(code))
        assert np.abs(got[0] - expected).max() < 1e-12

    def test_first_m_slices(self, rng):
        rows = rng.normal(size=(5, 4))
        got = poly_row(output_of(rows), "first_m", 3)
        assert np.array_equal(got, rows[:3])

    def test_last_m_takes_non_pad_tail(self, rng):
        rows = rng.normal(size=(6, 4))
        got = poly_row(output_of(rows, n_pads=2), "last_m", 3)
        assert np.array_equal(got, rows[1:4])  # last 3 of the 4 real rows

    def test_last_m_h1_prepends_first(self, rng):
        rows = rng.normal(size=(5, 4))
        got = poly_row(output_of(rows), "last_m_h1", 2)
        assert got.shape == (3, 4)
        assert np.array_equal(got[0], rows[0])
        assert np.array_equal(got[1:], rows[3:])

    def test_last_m_h1_duplicates_h1_when_short(self, rng):
        rows = rng.normal(size=(2, 4))
        got = poly_row(output_of(rows), "last_m_h1", 5)
        assert got.shape == (3, 4)
        assert np.array_equal(got[0], rows[0])  # duplicate kept, no dedup
        assert np.array_equal(got[1], rows[0])

    def test_learnt_excludes_pads(self, rng):
        rows = rng.normal(size=(6, 4))
        codes = init_codes(2, 4, rng)
        got_padded = poly_row(output_of(rows, n_pads=2), "learnt", 2, codes)
        got_clean = poly_row(output_of(rows[:4]), "learnt", 2, codes)
        assert np.abs(got_padded - got_clean).max() < 1e-12

    def test_m_validation(self, desk_config):
        # the poly head is checked once, when its model is built
        base = Model.init_pretrain(desk_config, make_rng(0))
        for variant, m in [("learnt", 0), ("first_m", 0), ("first_m", -1), ("mean", 4),
                           (None, 4), ("first_m", 2.0)]:
            with pytest.raises(ConfigError, match="poly head"):
                base.derive("poly", make_rng(1), poly_variant=variant, poly_m=m)


class TestPolyScore:
    def test_singleton_equals_bi_score_exactly(self, rng):
        vec = rng.normal(size=8)
        cand = rng.normal(size=8)
        got = poly_score(Tensor(vec.reshape(1, 8)), Tensor(cand)).item()
        assert got == bi_score(Tensor(vec), Tensor(cand)).item()

    def test_equal_vectors_collapse(self, rng):
        v = rng.normal(size=8)
        cand = rng.normal(size=8)
        got = poly_score(Tensor(np.tile(v, (4, 1))), Tensor(cand)).item()
        assert abs(got - float(v @ cand)) < 1e-12

    def test_two_vector_closed_form(self, rng):
        v1, v2 = rng.normal(size=6), rng.normal(size=6)
        cand = rng.normal(size=6)
        w1, w2 = softmax_closed_form([float(v1 @ cand), float(v2 @ cand)])
        expected = float((w1 * v1 + w2 * v2) @ cand)
        got = poly_score(Tensor(np.stack([v1, v2])), Tensor(cand)).item()
        assert abs(got - expected) < 1e-12

    def test_attention_weights_sum_to_one(self, rng):
        # exposed indirectly: score of equal-row vecs == plain dot
        vecs = rng.normal(size=(5, 4))
        cand = rng.normal(size=4)
        logits = vecs @ cand
        w = np.array(softmax_closed_form(list(logits)))
        assert abs(w.sum() - 1.0) < 1e-9
        assert (w >= 0).all()


class TestDegeneracy:
    """Poly(first_m, m=1) must equal Bi(first) on identical weights."""

    def test_poly_first1_equals_bi_first(self, desk_weights, vocab):
        rng = make_rng(12)
        for trial in range(20):
            words = " ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=5))
            cand_words = " ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=3))
            ctx_out = forward(TokenBatch.of([encode_single(words, vocab, 16)]), desk_weights)
            cand_out = forward(TokenBatch.of([encode_single(cand_words, vocab, 16)]),
                               desk_weights)
            y_cand = row0(reduce_output(cand_out, "first"))
            b = bi_score(row0(reduce_output(ctx_out, "first")), y_cand).item()
            p = poly_score(Tensor(poly_row(ctx_out, "first_m", 1)), y_cand).item()
            assert abs(b - p) < 1e-9

    def test_candidate_side_equivalence(self, desk_weights, vocab):
        # bi and poly share the candidate encoder path by construction
        out = forward(TokenBatch.of([encode_single("w1 w2 w3", vocab, 16)]), desk_weights)
        a = reduce_output(out, "first").data
        out2 = forward(TokenBatch.of([encode_single("w1 w2 w3", vocab, 16)]), desk_weights)
        b = reduce_output(out2, "first").data
        assert np.array_equal(a, b)

    def test_poly_attention_never_touches_pads(self, desk_weights, vocab):
        tp = encode_single("w1 w2 w3", vocab, 16)
        padded = pad_to(tp, 10)
        codes = init_codes(4, 32, make_rng(3))
        clean = poly_row(forward(TokenBatch.of([tp]), desk_weights), "learnt", 4, codes)
        dirty = poly_row(forward(padded, desk_weights), "learnt", 4, codes)
        assert np.abs(clean - dirty).max() < 1e-9
