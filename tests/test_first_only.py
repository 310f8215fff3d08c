"""Forwards that stop at the rows their heads read: a forward whose head
reads h_1 alone, taped or not, with dropout or without, runs its last block
on position 0 only and returns [B, 1, hidden] states; the masked-token
forward runs it on each sequence's target positions.

Every pruned result is checked against the same rows of the full
[B, L, hidden] forward it replaces, over a pad-heavy batch, a length-1
sequence and a batch of one; every training loss and its gradients against
the same loss built from full forwards (oracles.full_rows and
oracles.mlm_loss_full_rows); and every forward that must keep its rows (an
avg_all reduction, rescale_final_layer's taps) is pinned to keep them.
"""

import numpy as np
import pytest

from polyscore import heads, model as model_module, tensor as T, training
from polyscore.encoder import ModelConfig, _dropout_keeps, forward
from polyscore.heads import parse_arch, reduce_output
from polyscore.model import Model, Scorer
from polyscore.text import Example, TokenBatch, Vocabulary, encode_single
from polyscore.training import FinetuneSettings, finetune_valid_loss, rescale_final_layer

from conftest import make_rng, summed
from oracles import full_rows, grad_check, mlm_loss_full_rows

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


def trainee(base, arch, dtype, reduction="first"):
    """A model derived from base's seed in dtype, every parameter marked as
    training holds it; "next" is the pre-training model itself."""
    base = Model.init_pretrain(base.cfg, make_rng(BASE_SEED), dtype)
    if arch == "next":
        return base
    kind, variant, m = parse_arch(arch)
    return base.derive(kind, make_rng(2), reduction=reduction, poly_variant=variant, poly_m=m)


def served(base, arch, dtype, reduction="first"):
    """trainee's model as a loaded checkpoint holds it: no parameter is marked."""
    model = trainee(base, arch, dtype, reduction)
    for t in model.named_parameters().values():
        t.requires_grad = False
    return model


def h1(batch):
    """The `rows` selection of position 0 in every sequence: [B, 1]."""
    return np.zeros((len(batch.token_ids), 1), dtype=np.int64)


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
        out = forward(batch, w, rows=h1(batch))
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


@pytest.mark.parametrize("kind", ["bi", "cross"])
def test_training_and_validation_forwards_prune(base, vocab, forward_rows, kind):
    model = base.derive(kind, make_rng(2))  # derived parameters are marked
    scorer = Scorer(model, vocab)
    if kind == "cross":
        scorer.cross_scores(scorer.cross_pairs(["w1 w2"], ["w3", "w4 w5"]), make_rng(4))
    else:
        scorer.candidate_vectors(["w3", "w4 w5"], make_rng(4))
        scorer.context_vector(["w1 w2"])
    sample = [Example((f"w{i} w{i + 1}",), (f"w{i + 2}", f"w{i + 3}"), 0) for i in range(4)]
    settings = FinetuneSettings(batch_size=2, n_candidates=2)
    finetune_valid_loss(model, scorer, sample, [ex.gold for ex in sample], settings,
                        make_rng(3))
    assert forward_rows and set(forward_rows) == {1}


SETUPS = {"taped": (True, False), "dropout": (False, True), "taped_dropout": (True, True)}


@pytest.mark.parametrize("texts", TEXTS.values(), ids=TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
class TestTrainingForwardsPrune:
    @pytest.mark.parametrize("taped, dropout", SETUPS.values(), ids=SETUPS.keys())
    def test_forward_is_row0_of_full(self, base, vocab, texts, dtype, taped, dropout):
        w = (trainee if taped else served)(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        full = forward(batch, w, rng=make_rng(4) if dropout else None).hidden_states
        out = forward(batch, w, rng=make_rng(4) if dropout else None, rows=h1(batch))
        assert out.hidden_states.requires_grad == taped
        assert out.hidden_states.shape == (len(texts), 1, w.cfg.hidden)
        assert out.hidden_states.dtype == dtype
        assert np.array_equal(out.pad_mask, batch.pad_mask[:, :1])
        assert np.abs(out.hidden_states.data[:, 0] - full.data[:, 0]).max() < TOL[dtype]

    def test_rng_advances_as_a_full_forward(self, base, vocab, texts, dtype):
        w = trainee(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        pruned, full = make_rng(4), make_rng(4)
        forward(batch, w, rng=pruned, rows=h1(batch))
        forward(batch, w, rng=full)
        assert pruned.bit_generator.state == full.bit_generator.state

    def test_pruned_block_masks_are_row0_of_full_masks(self, base, vocab, texts, dtype):
        w = trainee(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        b, n = batch.token_ids.shape
        pruned = list(_dropout_keeps(batch, w.cfg, make_rng(4), h1(batch)))
        full = list(_dropout_keeps(batch, w.cfg, make_rng(4), None))
        last = 1 + 3 * (w.cfg.layers - 1)  # the pruned block's three sites follow
        assert all(np.array_equal(p, f) for p, f in zip(pruned[:last], full[:last]))
        probs, *outputs = pruned[last:]
        assert probs.shape == (b, w.cfg.heads, 1, n)
        assert np.array_equal(probs, full[last][:, :, :1])
        for got, want in zip(outputs, full[last + 1:]):
            assert got.shape == (b, w.cfg.hidden)
            assert np.array_equal(got, want.reshape(b, n, -1)[:, 0])


# ---- training losses against the same losses built from full forwards ----

LOSSES = ["bi", "poly:learnt:3", "poly:first_m:2", "cross", "next"]
# the pad-heavy batch holds a length-1 sequence; the length-1 batch is nothing
# else (but for the pairs of cross and next, which hold two tokens at least)
LOSS_TEXTS = {"pad_heavy": TEXTS["pad_heavy"], "length_1": ["", "", ""]}


def examples_of(texts):
    """One example per text, its gold the next text."""
    return [Example((t,), (g,), 0) for t, g in zip(texts, texts[1:] + texts[:1])]


def negatives_pool(examples):
    return [ex.gold for ex in examples] + ["w9 w10"]


def training_loss(model, vocab, arch, examples, drop_rng):
    if arch == "next":
        triples = [(ex.context_text, ex.gold, i % 2) for i, ex in enumerate(examples)]
        return training.next_batch_loss(model, vocab, triples, drop_rng)
    scorer = Scorer(model, vocab)
    if model.kind == "bi":
        return training.bi_batch_loss(scorer, examples, drop_rng)
    if model.kind == "poly":
        return training.poly_batch_loss(scorer, examples, drop_rng)
    return summed(training.cross_batch_loss(scorer, examples, negatives_pool(examples),
                                            FinetuneSettings(n_candidates=3), make_rng(6),
                                            drop_rng))


def loss_and_grads(model, vocab, arch, examples, dropout):
    """The training loss and every marked parameter's gradient, by name."""
    named = {n: t for n, t in model.named_parameters().items() if t.requires_grad}
    loss = training_loss(model, vocab, arch, examples, make_rng(5) if dropout else None)
    grads = T.backward(loss, named.values())
    return loss.item(), {n: grads[t] for n, t in named.items()}


def largest_gap(got, want):
    return max(float(np.abs(got[n] - want[n]).max()) for n in want)


@pytest.mark.parametrize("texts", LOSS_TEXTS.values(), ids=LOSS_TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [False, True], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("arch", LOSSES)
def test_loss_and_gradients_match_full_rows(base, vocab, arch, dropout, dtype, texts):
    """The loss within tol of the full-row loss, scaled by the loss, and every
    gradient within tol scaled by the model's largest gradient: some are
    exactly zero in exact arithmetic, so a per-tensor scale means nothing.

    In float32 the gradient bound adds twice the full-row path's own distance
    from the float64 full-row gradients. The in-batch gradients of this
    random-init model's near-identical vectors cancel in the shared
    parameters, and without dropout that leaves the float32 full-row
    gradients up to ~6e-4 of the largest one away from float64, above 1e-5;
    two float32 roundings of one gradient may differ by twice that."""
    model = trainee(base, arch, dtype)
    examples = examples_of(texts)
    got, got_grads = loss_and_grads(model, vocab, arch, examples, dropout)
    rows = []
    with full_rows(rows):
        want, want_grads = loss_and_grads(model, vocab, arch, examples, dropout)
    if texts is LOSS_TEXTS["pad_heavy"]:
        assert min(rows) > 1
    assert abs(got - want) <= TOL[dtype] * max(1.0, abs(want))
    tol = TOL[dtype] * max(float(np.abs(g).max()) for g in want_grads.values())
    if dtype == np.float32:
        with full_rows([]):
            exact = loss_and_grads(trainee(base, arch, np.float64), vocab, arch, examples,
                                   dropout)[1]
        tol += 2 * largest_gap(want_grads, exact)
    assert largest_gap(got_grads, want_grads) <= tol


@pytest.mark.parametrize("texts", LOSS_TEXTS.values(), ids=LOSS_TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("arch", ["bi", "poly:learnt:3", "poly:first_m:2", "cross"])
def test_valid_loss_matches_full_rows(base, vocab, arch, dtype, texts):
    model = trainee(base, arch, dtype)
    scorer = Scorer(model, vocab)
    examples = examples_of(texts)
    settings = FinetuneSettings(batch_size=2, n_candidates=3)

    def valid_loss():
        return finetune_valid_loss(model, scorer, examples, negatives_pool(examples), settings,
                                   make_rng(3))

    got = valid_loss()
    with full_rows([]):
        want = valid_loss()
    assert abs(got - want) <= TOL[dtype] * max(1.0, abs(want))


@pytest.mark.parametrize("dropout", [False, True], ids=["no_dropout", "dropout"])
def test_pruned_cross_loss_grad_check(base, vocab, dropout, forward_rows):
    model = trainee(base, "cross", np.float64)
    params = model.named_parameters()
    examples = examples_of(TEXTS["pad_heavy"])

    def loss():  # fixed negatives and dropout masks: a deterministic loss surface
        return training_loss(model, vocab, "cross", examples, make_rng(5) if dropout else None)

    grads = T.backward(loss(), list(params.values()))
    assert set(forward_rows) == {1}
    grad_check(lambda: loss().item(), {n: t.data for n, t in params.items()},
               {n: grads[t] for n, t in params.items()}, make_rng(11), probes=60)


# ---- row selections beyond h_1: the masked-token forward ----


def spread(batch):
    """Sorted [B, 4] positions of real tokens: the first, an inner one and
    the last twice (a repeated spare slot)."""
    n = batch.pad_mask.sum(axis=1)
    return np.stack([np.zeros_like(n), n // 3, n - 1, n - 1], axis=1)


def last_only(batch):
    """[B, 1]: each sequence's last real token."""
    return batch.pad_mask.sum(axis=1)[:, None] - 1


@pytest.mark.parametrize("selection", [spread, last_only], ids=["spread", "last_only"])
@pytest.mark.parametrize("texts", TEXTS.values(), ids=TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
class TestSelectedRows:
    @pytest.mark.parametrize("taped, dropout", SETUPS.values(), ids=SETUPS.keys())
    def test_forward_is_the_full_forward_at_the_rows(self, base, vocab, texts, dtype, selection,
                                                     taped, dropout):
        w = (trainee if taped else served)(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        sel = selection(batch)
        full = forward(batch, w, rng=make_rng(4) if dropout else None).hidden_states.data
        out = forward(batch, w, rng=make_rng(4) if dropout else None, rows=sel)
        assert out.hidden_states.requires_grad == taped
        assert out.hidden_states.shape == (*sel.shape, w.cfg.hidden)
        assert out.hidden_states.dtype == dtype
        assert np.array_equal(out.pad_mask, np.take_along_axis(batch.pad_mask, sel, axis=1))
        want = np.take_along_axis(full, sel[..., None], axis=1)
        assert np.abs(out.hidden_states.data - want).max() < TOL[dtype]

    def test_masks_and_rng_are_the_full_forwards(self, base, vocab, texts, dtype, selection):
        w = trainee(base, "bi", dtype).candidate_tower()
        batch = TokenBatch.of([encode_single(t, vocab, 64) for t in texts])
        sel = selection(batch)
        b, r = sel.shape
        pruned_rng, full_rng = make_rng(4), make_rng(4)
        pruned = list(_dropout_keeps(batch, w.cfg, pruned_rng, sel))
        full = list(_dropout_keeps(batch, w.cfg, full_rng, None))
        assert pruned_rng.bit_generator.state == full_rng.bit_generator.state
        last = 1 + 3 * (w.cfg.layers - 1)  # the pruned block's three sites follow
        assert all(np.array_equal(p, f) for p, f in zip(pruned[:last], full[:last]))
        probs, *outputs = pruned[last:]
        assert np.array_equal(probs, np.take_along_axis(full[last], sel[:, None, :, None], axis=2))
        for got, want in zip(outputs, full[last + 1:]):
            want = np.take_along_axis(want.reshape(b, -1, w.cfg.hidden), sel[..., None], axis=1)
            assert np.array_equal(got, want.reshape(b * r, -1))


MLM_TEXTS = {"pad_heavy": TEXTS["pad_heavy"], "batch_of_one": TEXTS["batch_of_one"]}


def mlm_loss_and_grads(model, vocab, examples, dropout, loss_fn):
    """An MLM loss and every marked parameter's gradient, by name, from fixed
    corruption and dropout draws."""
    named = {n: t for n, t in model.named_parameters().items() if t.requires_grad}
    loss = loss_fn(model, vocab, examples, make_rng(6), make_rng(5) if dropout else None)
    grads = T.backward(loss, named.values())
    return loss.item(), {n: grads[t] for n, t in named.items()}


@pytest.mark.parametrize("texts", MLM_TEXTS.values(), ids=MLM_TEXTS.keys())
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [False, True], ids=["no_dropout", "dropout"])
def test_mlm_loss_and_gradients_match_full_rows(base, vocab, dropout, dtype, texts,
                                                 monkeypatch):
    """Tolerances as in test_loss_and_gradients_match_full_rows, the
    gradients' scaled by the model's largest gradient."""
    shapes = []

    def spy(batch, *args, **kwargs):
        out = forward(batch, *args, **kwargs)
        shapes.append((batch.token_ids.shape[1], out.hidden_states.shape[1]))
        return out

    monkeypatch.setattr(training, "forward", spy)
    model = trainee(base, "next", dtype)
    examples = examples_of(texts)
    got, got_grads = mlm_loss_and_grads(model, vocab, examples, dropout, training.mlm_batch_loss)
    want, want_grads = mlm_loss_and_grads(model, vocab, examples, dropout, mlm_loss_full_rows)
    (length, selected), = shapes  # the oracle's forward is the full one
    assert selected < length
    assert abs(got - want) <= TOL[dtype] * max(1.0, abs(want))
    tol = TOL[dtype] * max(float(np.abs(g).max()) for g in want_grads.values())
    assert largest_gap(got_grads, want_grads) <= tol


@pytest.mark.parametrize("dropout", [False, True], ids=["no_dropout", "dropout"])
def test_pruned_mlm_loss_grad_check(base, vocab, dropout):
    model = trainee(base, "next", np.float64)
    params = model.named_parameters()
    examples = examples_of(TEXTS["pad_heavy"])

    def loss():  # fixed corruption and dropout masks: a deterministic loss surface
        return training.mlm_batch_loss(model, vocab, examples, make_rng(6),
                                       make_rng(5) if dropout else None)

    grads = T.backward(loss(), list(params.values()))
    grad_check(lambda: loss().item(), {n: t.data for n, t in params.items()},
               {n: grads[t] for n, t in params.items()}, make_rng(11), probes=60)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pretrain_valid_loss_matches_full_rows(base, vocab, dtype, monkeypatch):
    model = trainee(base, "next", dtype)
    sample = examples_of(TEXTS["pad_heavy"])
    got = training.pretrain_valid_loss(model, vocab, sample, make_rng(3))
    monkeypatch.setattr(training, "mlm_batch_loss", mlm_loss_full_rows)
    with full_rows([]):
        want = training.pretrain_valid_loss(model, vocab, sample, make_rng(3))
    assert abs(got - want) <= TOL[dtype] * max(1.0, abs(want))
