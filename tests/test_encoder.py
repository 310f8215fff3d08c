"""Encoder forward: embedding sum, block stack, masking, gradient flow."""

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore.encoder import ModelConfig, TransformerWeights, embed, forward
from polyscore.errors import ConfigError
from polyscore.model import Model, Scorer
from polyscore.tensor import Tensor
from polyscore.text import Example, TokenBatch, Vocabulary, encode_pair, encode_single
from polyscore.training import FinetuneSettings, bi_batch_loss, cross_batch_loss, \
    mlm_batch_loss, next_batch_loss, poly_batch_loss

from conftest import make_rng
from oracles import bi_loss_per_sequence, cross_loss_per_sequence, mlm_loss_per_sequence, \
    next_loss_per_sequence, pad_to, poly_loss_per_sequence, transformer_trace, tsum


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


class TestEmbed:
    def test_zero_tables_give_zero_matrix(self, desk_config, desk_weights, vocab):
        w = desk_weights.copy()
        for name in ("embeddings.token", "embeddings.position", "embeddings.segment"):
            w.params[name].data[:] = 0.0
        batch = TokenBatch.of([encode_single("w1 w2", vocab, 8)])
        assert np.abs(embed(batch, w).data).max() == 0.0

    def test_one_hot_tables_recoverable(self, desk_config, vocab):
        rng = make_rng(2)
        w = TransformerWeights.init(desk_config, rng)
        tp = encode_pair("w1", "w2", vocab, 8)
        got = embed(TokenBatch.of([tp]), w).data
        for i in range(len(tp)):
            expected = (w.params["embeddings.token"].data[tp.token_ids[i]]
                        + w.params["embeddings.position"].data[i]
                        + w.params["embeddings.segment"].data[tp.segment_ids[i]])
            assert np.abs(got[i] - expected).max() == 0.0

    def test_position_difference_is_linear(self, desk_weights, vocab):
        batch = TokenBatch.of([encode_single("w3 w3", vocab, 8)])
        got = embed(batch, desk_weights).data
        pos = desk_weights.params["embeddings.position"].data
        # same token at positions 1 and 2: rows differ by the position rows
        assert np.abs((got[2] - got[1]) - (pos[2] - pos[1])).max() < 1e-15

    def test_position_overflow_is_config_error(self, vocab):
        cfg = ModelConfig(vocab_size=len(vocab), max_positions=4)
        w = TransformerWeights.init(cfg, make_rng(0))
        batch = TokenBatch.of([encode_single("w1 w2 w3 w4 w5", vocab, 10)])
        with pytest.raises(ConfigError):
            embed(batch, w)


class TestForward:
    def test_single_token_shape(self, desk_config, desk_weights, vocab):
        batch = TokenBatch.of([encode_single("", vocab, 4)])  # just [S]
        out = forward(batch, desk_weights)
        assert out.hidden_states.shape == (1, 1, desk_config.hidden)
        assert out.pad_mask.tolist() == [[True]]

    def test_pad_invariance(self, desk_weights, vocab):
        tp = encode_pair("w1 w2 w3", "w4", vocab, 16)
        out = forward(TokenBatch.of([tp]), desk_weights)
        padded = forward(pad_to(tp, len(tp) + 6), desk_weights)
        diff = np.abs(out.hidden_states.data[0]
                      - padded.hidden_states.data[0, : len(tp)]).max()
        assert diff < 1e-9

    def test_eval_mode_deterministic(self, desk_weights, vocab):
        batch = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 16)])
        a = forward(batch, desk_weights).hidden_states.data
        b = forward(batch, desk_weights).hidden_states.data
        assert np.array_equal(a, b)

    def test_rng_dropout_changes_output(self, desk_weights, vocab):
        batch = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 16)])
        a = forward(batch, desk_weights, rng=make_rng(1)).hidden_states.data
        b = forward(batch, desk_weights).hidden_states.data
        assert not np.array_equal(a, b)

    def test_rng_without_dropout_p_is_the_plain_forward(self, vocab):
        w = TransformerWeights.init(ModelConfig(vocab_size=len(vocab), dropout_p=0.0),
                                    make_rng(3))
        batch = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 16),
                               encode_single("w4", vocab, 16)])
        rng = make_rng(1)
        got = forward(batch, w, rng=rng).hidden_states.data
        assert got.tobytes() == forward(batch, w).hidden_states.data.tobytes()
        assert rng.bit_generator.state == make_rng(1).bit_generator.state  # no draw

    @pytest.mark.parametrize("kind", ["bi", "poly", "cross", "mlm", "next"])
    def test_batch_losses_default_to_no_dropout(self, vocab, kind):
        # dropout_p is 0.1: a loss given no rng equals its per-sequence,
        # dropout-free reference, and an rng changes it
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(5))
        long = " ".join(f"w{i}" for i in range(4, 28))
        batch = [Example(("w1 w2", long), ("w3 w4",), 0), Example((long,), ("w5 " + long,), 0),
                 Example(("w6",), ("w7 w8 w9",), 0)]
        if kind in ("bi", "poly", "cross"):
            scorer = Scorer(base.derive(kind, make_rng(1), poly_variant="learnt", poly_m=3),
                            vocab)
        pool, settings = [ex.gold for ex in batch], FinetuneSettings(n_candidates=2)
        triples = [(ex.context_text, ex.gold, label) for ex, label in zip(batch, (1, 0, 1))]
        loss, reference = {
            "bi": (lambda *r: bi_batch_loss(scorer, batch, *r),
                   lambda: bi_loss_per_sequence(scorer, batch)),
            "poly": (lambda *r: poly_batch_loss(scorer, batch, *r),
                     lambda: poly_loss_per_sequence(scorer, batch)),
            "cross": (lambda *r: cross_batch_loss(scorer, batch, pool, settings, make_rng(2), *r),
                      lambda: cross_loss_per_sequence(scorer, batch, pool, settings, make_rng(2))),
            "mlm": (lambda *r: mlm_batch_loss(base, vocab, batch, make_rng(2), *r),
                    lambda: mlm_loss_per_sequence(base, vocab, batch, make_rng(2))),
            "next": (lambda *r: next_batch_loss(base, vocab, triples, *r),
                     lambda: next_loss_per_sequence(base, vocab, triples)),
        }[kind]
        plain = loss().item()
        assert abs(plain - reference().item()) < 1e-9
        assert abs(loss(make_rng(3)).item() - plain) > 1e-6

    def test_matches_straight_line_trace(self, vocab):
        # 1 layer, 1 head, hidden 4: small enough for the loop-based oracle
        cfg = ModelConfig(layers=1, heads=1, hidden=4, ffn_hidden=6,
                          vocab_size=len(vocab), max_positions=16)
        w = TransformerWeights.init(cfg, make_rng(3))
        batch = TokenBatch.of([encode_pair("w1 w2", "w3", vocab, 8)])
        got = forward(batch, w).hidden_states.data[0]
        expected = transformer_trace({n: t.data for n, t in w.params.items()}, cfg, batch)
        assert np.abs(got - expected).max() < 1e-9

    def test_trace_matches_desk_config_with_pads(self, desk_config, desk_weights, vocab):
        batch = pad_to(encode_pair("w5 w6 w7", "w8 w9", vocab, 16), 12)
        got = forward(batch, desk_weights).hidden_states.data[0]
        expected = transformer_trace({n: t.data for n, t in desk_weights.params.items()},
                                     desk_config, batch)
        real = batch.n_real
        assert np.abs(got[:real] - expected[:real]).max() < 1e-9

    def test_gradient_reaches_every_parameter(self, desk_config, desk_weights, vocab):
        batch = TokenBatch.of([encode_pair("w1 w2 w3 w4", "w5 w6", vocab, 16)])
        out = forward(batch, desk_weights)
        proj = Tensor(make_rng(4).normal(size=out.hidden_states.shape))
        loss = tsum(T.mul(out.hidden_states, proj))
        grads = T.backward(loss, list(desk_weights.params.values()))
        dead = [n for n, t in desk_weights.params.items()
                if np.abs(grads[t]).max() == 0.0]
        assert dead == []

    def test_segment_row_one_dead_for_single_side_input(self, desk_weights, vocab):
        batch = TokenBatch.of([encode_single("w1 w2", vocab, 8)])
        out = forward(batch, desk_weights)
        loss = tsum(out.hidden_states)
        grads = T.backward(loss, [desk_weights.params["embeddings.segment"]])
        seg_grad = grads[desk_weights.params["embeddings.segment"]]
        assert np.abs(seg_grad[0]).max() > 0.0
        assert np.abs(seg_grad[1]).max() == 0.0


class TestBatchedForward:
    """A padded batch against the per-sequence path, pad rows included."""

    @pytest.fixture
    def seqs(self, vocab):
        return [
            encode_pair("w1 w2 w3", "w4", vocab, 16),
            encode_single("w5", vocab, 16),
            encode_pair("w6", "w7 w8 w9 w10 w11", vocab, 16),
            encode_single("w12 w13 w14", vocab, 16),
        ]

    def test_rows_match_oracle_trace(self, desk_config, desk_weights, seqs):
        batch = TokenBatch.of(seqs)
        got = forward(batch, desk_weights).hidden_states.data
        length = max(len(tp) for tp in seqs)
        assert got.shape == (len(seqs), length, desk_config.hidden)
        params = {n: t.data for n, t in desk_weights.params.items()}
        for row, tp in zip(got, seqs):
            expected = transformer_trace(params, desk_config, pad_to(tp, length))
            assert np.abs(row - expected).max() < 1e-9

    def test_float32_rows_match_single_forward(self, desk_weights, seqs):
        w = TransformerWeights(desk_weights.cfg, {n: Tensor(t.data.astype(np.float32))
                                                  for n, t in desk_weights.params.items()})
        got = forward(TokenBatch.of(seqs), w).hidden_states.data
        assert got.dtype == np.float32
        length = got.shape[1]
        for row, tp in zip(got, seqs):
            single = forward(pad_to(tp, length), w).hidden_states.data[0]
            assert np.abs(row - single).max() < 1e-5
            unpadded = forward(TokenBatch.of([tp]), w).hidden_states.data[0]
            assert np.abs(row[:len(tp)] - unpadded).max() < 1e-5

    def test_batch_reports_token_slots(self, seqs):
        batch = TokenBatch.of(seqs)
        assert len(batch) == len(seqs) * max(len(tp) for tp in seqs)
        assert batch.n_real == sum(len(tp) for tp in seqs)

    def test_gradient_flows_through_batch(self, desk_weights, seqs):
        out = forward(TokenBatch.of(seqs), desk_weights)
        proj = Tensor(make_rng(5).normal(size=out.hidden_states.shape))
        grads = T.backward(tsum(T.reshape(T.mul(out.hidden_states, proj), (proj.data.size,))),
                           list(desk_weights.params.values()))
        dead = [n for n, t in desk_weights.params.items() if np.abs(grads[t]).max() == 0.0]
        assert dead == []


class TestConfigValidation:
    def test_hidden_not_divisible(self):
        with pytest.raises(ConfigError):
            ModelConfig(heads=3, hidden=32)

    def test_zero_layers(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=0)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout_p=1.0)
