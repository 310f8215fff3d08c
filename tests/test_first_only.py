"""The first-position forward: an untaped forward whose head reads h_1 alone
runs its last block on position 0 only and returns [B, 1, hidden] states.

Every pruned result is checked against row 0 of the full [B, L, hidden]
forward it replaces, over a pad-heavy batch, a length-1 sequence and a batch
of one; and every forward that must keep its rows (an avg_all reduction, a
tape, dropout, rescale_final_layer's taps) is pinned to keep them.
"""

import numpy as np
import pytest

from polyscore import heads, model as model_module, training
from polyscore.encoder import ModelConfig, forward
from polyscore.heads import parse_arch, reduce_output
from polyscore.model import Model, Scorer
from polyscore.text import Example, TokenBatch, Vocabulary, encode_single
from polyscore.training import FinetuneSettings, finetune_valid_loss, rescale_final_layer

from conftest import make_rng

TOL = {np.float32: 1e-5, np.float64: 1e-9}
WORDS = [f"w{i}" for i in range(28)]
LONG = " ".join(WORDS[i % len(WORDS)] for i in range(50))
# "" encodes to the start token alone, a length-1 sequence
TEXTS = {"pad_heavy": [LONG, "w1", "", "w2 w3"], "length_1": [""], "batch_of_one": ["w4 w5 w6"]}
DTYPES = [np.float32, np.float64]


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary(WORDS)


BASE_SEED = 1


@pytest.fixture(scope="module")
def base(vocab):
    return Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(BASE_SEED))


def served(base, arch, dtype, reduction="first"):
    """A model derived from base's seed in dtype, as a loaded checkpoint holds
    it: no parameter is marked."""
    kind, variant, m = parse_arch(arch)
    base = Model.init_pretrain(base.cfg, make_rng(BASE_SEED), dtype)
    model = base.derive(kind, make_rng(2), reduction=reduction, poly_variant=variant,
                        poly_m=m)
    for t in model.named_parameters().values():
        t.requires_grad = False
    return model


def first_rows(batch, w):
    """Row 0 of each sequence's full forward: [B, hidden]."""
    return forward(batch, w).hidden_states.data[:, 0]


@pytest.fixture
def forward_rows(monkeypatch):
    """Position counts of the states each Scorer or head forward returns."""
    rows = []

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        rows.append(out.hidden_states.shape[1])
        return out

    monkeypatch.setattr(model_module, "forward", spy)
    monkeypatch.setattr(heads, "forward", spy)
    return rows


@pytest.mark.parametrize("texts", TEXTS.values(), ids=TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
class TestPrunedMatchesFullRow0:
    def test_forward(self, base, vocab, texts, dtype):
        w = served(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        out = forward(batch, w, first_only=True)
        assert out.hidden_states.shape == (len(texts), 1, w.cfg.hidden)
        assert out.hidden_states.dtype == dtype
        assert np.array_equal(out.pad_mask, batch.pad_mask[:, :1])
        got = out.hidden_states.data[:, 0]
        assert np.abs(got - first_rows(batch, w)).max() < TOL[dtype]

    @pytest.mark.parametrize("arch", ["bi", "poly:learnt:4"])
    def test_candidate_vectors(self, base, vocab, texts, dtype, arch, forward_rows):
        model = served(base, arch, dtype)
        scorer = Scorer(model, vocab)
        want = first_rows(TokenBatch.of([scorer.encode_candidate(t) for t in texts]),
                          model.candidate_tower())
        forward_rows.clear()
        got = scorer.candidate_vectors(texts).data
        assert forward_rows == [1]
        assert got.shape == want.shape and got.dtype == dtype
        assert np.abs(got - want).max() < TOL[dtype]
        assert np.abs(scorer.candidate_vector(texts[0]).data - want[0]).max() < TOL[dtype]

    def test_bi_context_vector(self, base, vocab, texts, dtype, forward_rows):
        model = served(base, "bi", dtype)
        scorer = Scorer(model, vocab)
        contexts = [[t] for t in texts]
        want = first_rows(TokenBatch.of([scorer.encode_context(c) for c in contexts]),
                          model.context_tower())
        forward_rows.clear()
        got = scorer.context_vectors(contexts).data
        single = scorer.context_vector(contexts[0]).data
        assert forward_rows == [1, 1]
        assert np.abs(got - want).max() < TOL[dtype]
        assert np.abs(single - want[0]).max() < TOL[dtype]

    def test_cross_scores(self, base, vocab, texts, dtype, forward_rows):
        model = served(base, "cross", dtype)
        scorer = Scorer(model, vocab)
        pairs = [scorer.encode_cross([t], texts[-1 - i]) for i, t in enumerate(texts)]
        want = first_rows(TokenBatch.of(pairs), model.context_tower()) \
            @ model.extras["cross.w"].data[:, 0]
        forward_rows.clear()
        got = scorer.cross_scores(pairs).data
        single = scorer.score_cross([texts[0]], texts[-1]).item()
        assert forward_rows == [1, 1]
        assert got.shape == want.shape and got.dtype == dtype
        assert np.abs(got - want).max() < TOL[dtype]
        assert abs(single - want[0]) < TOL[dtype]


class TestFullRowsKept:
    def test_avg_all_reads_every_row(self, base, vocab, forward_rows):
        model = served(base, "bi", np.float64, reduction="avg_all")
        scorer = Scorer(model, vocab)
        texts = TEXTS["pad_heavy"]
        got = scorer.candidate_vectors(texts).data
        scorer.context_vector([LONG])
        length = len(encode_single(LONG, vocab, 64))
        assert forward_rows == [length, length]
        batch = TokenBatch.of([scorer.encode_candidate(t) for t in texts])
        want = reduce_output(forward(batch, model.candidate_tower()), "avg_all").data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["bi", "cross"])
    def test_taped_forwards_keep_every_row(self, base, vocab, kind, forward_rows):
        model = base.derive(kind, make_rng(2))  # derived parameters are marked
        scorer = Scorer(model, vocab)
        if kind == "cross":
            scorer.cross_scores(scorer.cross_pairs(["w1 w2"], ["w3", "w4 w5"]))
        else:
            scorer.candidate_vectors(["w3", "w4 w5"])
            scorer.context_vector(["w1 w2"])
        sample = [Example((f"w{i} w{i + 1}",), (f"w{i + 2}", f"w{i + 3}"), 0) for i in range(4)]
        settings = FinetuneSettings(batch_size=2, n_candidates=2)
        finetune_valid_loss(model, scorer, sample, [ex.gold for ex in sample], settings,
                            make_rng(3))
        assert forward_rows and min(forward_rows) > 1

    def test_taped_forward_returns_all_states(self, base, vocab):
        w = base.derive("bi", make_rng(2)).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in TEXTS["pad_heavy"]])
        full, asked = forward(batch, w), forward(batch, w, first_only=True)
        assert asked.hidden_states.requires_grad
        assert asked.hidden_states.shape == full.hidden_states.shape
        assert np.array_equal(asked.hidden_states.data, full.hidden_states.data)
        assert np.array_equal(asked.pad_mask, batch.pad_mask)

    def test_dropout_forward_returns_all_states(self, base, vocab):
        w = served(base, "bi", np.float64).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in TEXTS["pad_heavy"]])
        got = forward(batch, w, rng=make_rng(4), first_only=True).hidden_states.data
        want = forward(batch, w, rng=make_rng(4)).hidden_states.data
        assert np.array_equal(got, want)

    def test_rescale_taps_see_every_row(self, base, vocab, monkeypatch):
        seen = []

        def spy(batch, w, **kwargs):
            out = forward(batch, w, **kwargs)
            seen.append((len(batch), kwargs["taps"]["last_ffn_out"].shape))
            return out

        monkeypatch.setattr(training, "forward", spy)
        w = served(base, "bi", np.float64).candidate_tower()
        probes = [encode_single(t, vocab, 64) for t in TEXTS["pad_heavy"]]
        rescale_final_layer(w, 0.5, probes)
        slots = len(TokenBatch.of(probes))
        assert seen == [(slots, (slots, w.cfg.hidden))]
