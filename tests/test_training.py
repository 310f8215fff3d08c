"""Corruption, task batches, freezing, rescaling and the training loops."""

import numpy as np
import pytest

from polyscore import training
from polyscore.encoder import ModelConfig, TransformerWeights, forward
from polyscore.errors import ConfigError, ContractError
from polyscore.model import Model, Scorer
from polyscore.optim import OptimizerConfig, pretraining_config
from polyscore.synth import make_chain_corpus, make_overlap_dataset
from polyscore.text import MASK_ID, Example, TokenBatch, Vocabulary, build_vocab, \
    encode_pair, encode_single, example_token_stream
from polyscore.training import (
    FinetuneSettings,
    _token_buckets,
    apply_freeze,
    batch_kind,
    bi_batch_loss,
    finetune_loop,
    freeze_filter,
    mlm_corrupt,
    next_selection_batch,
    poly_batch_loss,
    pretrain_loop,
    rescale_final_layer,
    training_data,
)

from conftest import make_rng


@pytest.fixture
def corpus():
    return make_chain_corpus(60, seed=5)


@pytest.fixture
def corpus_vocab(corpus):
    return build_vocab(example_token_stream(corpus), 256)


@pytest.fixture
def pretrain_model(corpus_vocab):
    cfg = ModelConfig(vocab_size=len(corpus_vocab))
    return Model.init_pretrain(cfg, make_rng(3))


class TestBatchKind:
    def test_strict_alternation(self):
        kinds = [batch_kind(s) for s in range(1, 11)]
        assert kinds == ["mlm", "next"] * 5

    def test_window_counts(self):
        kinds = [batch_kind(s) for s in range(1, 1001)]
        assert kinds.count("mlm") == 500
        assert kinds.count("next") == 500
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


class TestMlmCorrupt:
    def make_pair(self, vocab, n_tokens):
        text = " ".join(f"w{i % 20}" for i in range(n_tokens))
        return encode_single(text, vocab, n_tokens + 1)

    def test_zero_rate_rejected_but_tiny_rate_near_noop(self, tiny_vocab):
        with pytest.raises(ContractError):
            mlm_corrupt(self.make_pair(tiny_vocab, 5), 0.0, make_rng(0), len(tiny_vocab))
        tp = self.make_pair(tiny_vocab, 5)
        corrupted, targets = mlm_corrupt(tp, 1e-12, make_rng(0), len(tiny_vocab))
        assert corrupted.token_ids == tp.token_ids
        assert targets == []

    def test_selection_fraction_near_rate(self, tiny_vocab):
        rng = make_rng(1)
        total = selected = 0
        for _ in range(250):
            tp = self.make_pair(tiny_vocab, 50)
            _, targets = mlm_corrupt(tp, 0.15, rng, len(tiny_vocab))
            total += 50
            selected += len(targets)
        assert abs(selected / total - 0.15) < 0.01

    def test_specials_never_selected(self, tiny_vocab):
        rng = make_rng(2)
        tp = encode_pair("w1 w2 w3", "w4 w5", tiny_vocab, 16)
        for _ in range(200):
            corrupted, targets = mlm_corrupt(tp, 0.9, rng, len(tiny_vocab))
            assert all(tp.token_ids[p] >= 4 for p, _ in targets)
            assert corrupted.token_ids[0] == tp.token_ids[0]  # leading S intact

    def test_action_split_80_10_10(self, tiny_vocab):
        rng = make_rng(3)
        masked = changed = kept = 0
        for _ in range(300):
            tp = self.make_pair(tiny_vocab, 50)
            corrupted, targets = mlm_corrupt(tp, 0.5, rng, len(tiny_vocab))
            for pos, orig in targets:
                new = corrupted.token_ids[pos]
                if new == MASK_ID:
                    masked += 1
                elif new != orig:
                    changed += 1
                else:
                    kept += 1
        n = masked + changed + kept
        assert masked / n == pytest.approx(0.8, abs=0.02)
        # random replacement can draw the original token, so observed
        # changed-fraction sits slightly under 0.1
        assert changed / n == pytest.approx(0.1, abs=0.02)
        assert kept / n == pytest.approx(0.1, abs=0.025)

    def test_targets_record_originals(self, tiny_vocab):
        tp = self.make_pair(tiny_vocab, 30)
        _, targets = mlm_corrupt(tp, 0.5, make_rng(4), len(tiny_vocab))
        assert all(tp.token_ids[p] == orig for p, orig in targets)


class TestNextSelection:
    def test_balanced_positive_fraction(self, corpus):
        rng = make_rng(5)
        batch = next_selection_batch(corpus, rng, 10000)
        frac = sum(label for _, _, label in batch) / len(batch)
        assert abs(frac - 0.5) < 0.02

    def test_positive_is_true_next(self, corpus):
        golds = {ex.context_text: ex.gold for ex in corpus}
        batch = next_selection_batch(corpus, make_rng(6), 200)
        for ctx, cand, label in batch:
            if label == 1:
                assert golds[ctx] == cand
            else:
                assert golds[ctx] != cand  # resample-on-collision contract

    def test_seeded_reproducible(self, corpus):
        two = corpus[:2]
        a = next_selection_batch(two, make_rng(7), 8)
        b = next_selection_batch(two, make_rng(7), 8)
        assert a == b

    def test_too_small_dataset(self, corpus):
        with pytest.raises(ContractError):
            next_selection_batch(corpus[:1], make_rng(0), 4)


class TestFreezeFilter:
    NAMES = None

    def names(self, pretrain_model):
        return sorted(pretrain_model.derive("bi", make_rng(0)).named_parameters())

    def test_every_layer_keeps_all(self, pretrain_model):
        names = self.names(pretrain_model)
        assert freeze_filter("every_layer", names) == set(names)

    def test_all_but_embeddings_excludes_exactly_tables(self, pretrain_model):
        names = self.names(pretrain_model)
        trainable = freeze_filter("all_but_embeddings", names)
        frozen = set(names) - trainable
        assert frozen == {n for n in names
                          if n.endswith(("embeddings.token", "embeddings.position",
                                         "embeddings.segment"))}
        assert any(n.endswith("embeddings.norm.gain") for n in trainable)

    def test_top_layer_keeps_last_block_and_heads(self, pretrain_model):
        model = pretrain_model.derive("poly", make_rng(0), poly_variant="learnt", poly_m=4)
        names = sorted(model.named_parameters())
        trainable = freeze_filter("top_layer", names)
        assert "poly.codes" in trainable
        assert all(".layers.1." in n or not (".layers." in n or ".embeddings." in n)
                   for n in trainable)
        assert not any(".layers.0." in n for n in trainable)

    def test_top4_clamps_on_two_layer_model(self, pretrain_model):
        names = self.names(pretrain_model)
        trainable = freeze_filter("top4_layers", names)
        assert all(n in trainable for n in names if ".layers." in n)

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            freeze_filter("top_two", ["a"])


class TestRescale:
    def probes(self, vocab):
        return [encode_pair("w1 w2 w3", "w4 w5", vocab, 16),
                encode_pair("w6 w7", "w8", vocab, 16)]

    def test_already_at_target_scale_one(self, corpus_vocab, pretrain_model):
        w = pretrain_model.towers["enc"]
        probes = self.probes(corpus_vocab)
        taps = {}
        forward(TokenBatch.of(probes[:1]), w, taps=taps)
        forward(TokenBatch.of(probes[1:]), w, taps={})
        # measure current std, rescale to it: factor must be ~1
        vals = []
        for tp in probes:
            t = {}
            forward(TokenBatch.of([tp]), w, taps=t)
            vals.append(t["last_ffn_out"].data.ravel())
        current = float(np.concatenate(vals).std())
        _, factor = rescale_final_layer(w, current, probes)
        assert factor == pytest.approx(1.0, abs=0.05)

    def test_doubling_then_rescaling_recovers(self, corpus_vocab, pretrain_model):
        w = pretrain_model.towers["enc"]
        probes = self.probes(corpus_vocab)
        vals = []
        for tp in probes:
            t = {}
            forward(TokenBatch.of([tp]), w, taps=t)
            vals.append(t["last_ffn_out"].data.ravel())
        target = float(np.concatenate(vals).std())

        doubled = w.copy()
        last = w.cfg.layers - 1
        doubled.params[f"layers.{last}.ffn.out.weight"].data *= 2.0
        doubled.params[f"layers.{last}.ffn.out.bias"].data *= 2.0
        restored, factor = rescale_final_layer(doubled, target, probes)
        assert factor == pytest.approx(0.5, rel=1e-6)
        orig = w.params[f"layers.{last}.ffn.out.weight"].data
        assert np.abs(restored.params[f"layers.{last}.ffn.out.weight"].data - orig).max() < 1e-9

    def test_single_token_probe_works(self, corpus_vocab, pretrain_model):
        w = pretrain_model.towers["enc"]
        probe = [encode_single("", corpus_vocab, 4)]  # one [S] token
        rescaled, factor = rescale_final_layer(w, 0.5, probe)
        assert np.isfinite(factor) and factor > 0

    def test_zero_variance_rejected(self, corpus_vocab, pretrain_model):
        w = pretrain_model.towers["enc"].copy()
        last = w.cfg.layers - 1
        w.params[f"layers.{last}.ffn.out.weight"].data[:] = 0.0
        w.params[f"layers.{last}.ffn.out.bias"].data[:] = 0.0
        with pytest.raises(ContractError):
            rescale_final_layer(w, 0.5, self.probes(corpus_vocab))


class TestPretrainLoop:
    def test_loss_decreases_and_deterministic(self, corpus, corpus_vocab, tmp_path):
        def run():
            cfg = ModelConfig(vocab_size=len(corpus_vocab))
            model = Model.init_pretrain(cfg, make_rng(3))
            opt = pretraining_config(lr=1e-3, warmup_steps=10, eval_interval=5)
            log = pretrain_loop(model, corpus_vocab, corpus, opt, steps=30,
                                batch_size=4, seed=11)
            return model, log

        model_a, log_a = run()
        model_b, log_b = run()
        # determinism: identical losses and identical weights, bit for bit
        assert [r["train_loss"] for r in log_a.rows] == [r["train_loss"] for r in log_b.rows]
        for name, t in model_a.named_parameters().items():
            assert np.array_equal(t.data, model_b.named_parameters()[name].data)
        assert log_a.rows[-1]["train_loss"] < log_a.rows[0]["train_loss"]

    def test_token_bucket_mode_runs(self, corpus, corpus_vocab):
        cfg = ModelConfig(vocab_size=len(corpus_vocab))
        model = Model.init_pretrain(cfg, make_rng(3))
        opt = pretraining_config(lr=1e-3, warmup_steps=10, eval_interval=10)
        log = pretrain_loop(model, corpus_vocab, corpus, opt, steps=6, batch_size=4,
                            seed=1, batch_tokens=64)
        assert len(log.rows) >= 1

    def test_metrics_schema(self, corpus, corpus_vocab, tmp_path):
        import json

        cfg = ModelConfig(vocab_size=len(corpus_vocab))
        model = Model.init_pretrain(cfg, make_rng(3))
        opt = pretraining_config(lr=1e-3, warmup_steps=10, eval_interval=5)
        path = tmp_path / "metrics.jsonl"
        pretrain_loop(model, corpus_vocab, corpus, opt, steps=10, batch_size=4,
                      seed=11, metrics_path=path, valid_examples=corpus[:8])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows
        for row in rows:
            assert set(row) == {"step", "train_loss", "valid_loss", "lr", "wall_clock_s"}
            assert row["valid_loss"] is not None


@pytest.fixture(scope="module")
def overlap_world():
    train, test = make_overlap_dataset(80, 20, seed=9)
    vocab = build_vocab(example_token_stream(train + test), 512)
    cfg = ModelConfig(vocab_size=len(vocab))
    base = Model.init_pretrain(cfg, make_rng(21))
    return train, test, vocab, base


class TestFinetuneLoop:
    def settings(self, **kw):
        defaults = dict(steps=12, batch_size=6, seed=3)
        defaults.update(kw)
        return FinetuneSettings(**defaults)

    def opt(self):
        return OptimizerConfig(lr=5e-4, warmup_steps=5, eval_interval=6)

    def test_bi_loss_decreases(self, overlap_world):
        train, _, vocab, base = overlap_world
        model = base.derive("bi", make_rng(0))
        scorer = Scorer(model, vocab)

        def dropout_loss():
            # the training objective on one batch, averaged over 32 fixed
            # dropout draws: one step's loss has a std of ~0.7 from dropout
            # alone, so logged 6-step means do not order reliably in 30 steps
            return np.mean([bi_batch_loss(scorer, train[:6], rng=make_rng(s)).item()
                            for s in range(32)])

        before = dropout_loss()
        finetune_loop(model, vocab, train, train[:12], self.opt(), self.settings(steps=30),
                      scorer=scorer)
        assert dropout_loss() < before

    def test_poly_and_cross_run(self, overlap_world):
        train, _, vocab, base = overlap_world
        poly = base.derive("poly", make_rng(0), poly_variant="learnt", poly_m=4)
        log = finetune_loop(poly, vocab, train[:20], train[:8], self.opt(),
                            self.settings(steps=4))
        assert len(log.rows) >= 1
        cross = base.derive("cross", make_rng(0))
        log = finetune_loop(cross, vocab, train[:10], train[:6], self.opt(),
                            self.settings(steps=2, batch_size=2, n_candidates=4))
        assert len(log.rows) >= 1

    def test_frozen_params_bit_identical(self, overlap_world):
        train, _, vocab, base = overlap_world
        model = base.derive("bi", make_rng(0))
        before = {n: t.data.copy() for n, t in model.named_parameters().items()}
        trainable = apply_freeze(model, "all_but_embeddings")
        finetune_loop(model, vocab, train[:20], train[:8], self.opt(),
                      self.settings(steps=6, freeze="all_but_embeddings"))
        after = model.named_parameters()
        for name in before:
            if name in trainable:
                continue
            assert np.array_equal(before[name], after[name].data), name
        # and something actually moved
        moved = [n for n in trainable
                 if not np.array_equal(before[n], after[n].data)]
        assert moved

    def test_provided_negatives_mode(self, overlap_world):
        _, test, vocab, base = overlap_world
        cross = base.derive("cross", make_rng(0))
        log = finetune_loop(cross, vocab, test[:6], test[:4], self.opt(),
                            self.settings(steps=2, batch_size=2, neg_mode="provided",
                                          n_candidates=4))
        assert len(log.rows) >= 1

    def test_plateau_decay_reflected_in_lr(self, overlap_world, monkeypatch):
        """A validation loss that never improves decays the lr by 0.4 after
        every second eval: warmup ends at step 1, and eval 1 sets the best."""
        train, _, vocab, base = overlap_world
        model = base.derive("bi", make_rng(0))
        monkeypatch.setattr(training, "finetune_valid_loss", lambda *args: 1.0)
        opt_cfg = OptimizerConfig(lr=5e-4, warmup_steps=1, eval_interval=1)
        log = finetune_loop(model, vocab, train[:10], train[:6], opt_cfg,
                            self.settings(steps=6, batch_size=4))
        assert [row["valid_loss"] for row in log.rows] == [1.0] * 6
        assert [row["lr"] for row in log.rows] == pytest.approx(
            [5e-4, 5e-4, 5e-4, 2e-4, 2e-4, 8e-5], rel=1e-12)


STEP_LOSSES = ("bi_batch_loss", "poly_batch_loss", "cross_batch_loss", "mlm_batch_loss",
               "next_batch_loss")


@pytest.fixture
def loss_calls(monkeypatch):
    """Counts calls of each batch loss, looked up through the module as the
    benchmark's tracer rebinds them."""
    calls = []
    for name in STEP_LOSSES:
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
    return calls


class TestOneLossPerStep:
    @pytest.mark.parametrize("kind,loss", [("bi", "bi_batch_loss"),
                                           ("poly", "poly_batch_loss"),
                                           ("cross", "cross_batch_loss")])
    def test_finetune(self, overlap_world, loss_calls, kind, loss):
        train, _, vocab, base = overlap_world
        head = {"poly_variant": "learnt", "poly_m": 4} if kind == "poly" else {}
        model = base.derive(kind, make_rng(0), **head)
        opt_cfg = OptimizerConfig(lr=5e-4, warmup_steps=5, eval_interval=2)
        settings = FinetuneSettings(steps=4, batch_size=3, n_candidates=3, seed=1)
        log = finetune_loop(model, vocab, train[:12], None, opt_cfg, settings)
        assert loss_calls == [loss] * 4
        assert [row["step"] for row in log.rows] == [2, 4]

    def test_pretrain(self, corpus, corpus_vocab, pretrain_model, loss_calls):
        opt = pretraining_config(lr=1e-3, warmup_steps=10, eval_interval=4)
        pretrain_loop(pretrain_model, corpus_vocab, corpus, opt, steps=4, batch_size=4, seed=2)
        assert loss_calls == ["mlm_batch_loss", "next_batch_loss"] * 2


class TestTokenBuckets:
    @pytest.mark.parametrize("batch_tokens", [1, 40, 64, 200, 10_000])
    def test_partition_within_budget(self, corpus, corpus_vocab, batch_tokens):
        buckets = _token_buckets(corpus, corpus_vocab, 64, batch_tokens)
        assert sorted(i for b in buckets for i in b) == list(range(len(corpus)))
        for bucket in buckets:
            tokens = sum(len(encode_pair(corpus[i].context_text, corpus[i].gold,
                                         corpus_vocab, 64)) for i in bucket)
            assert tokens <= batch_tokens or len(bucket) == 1


def example(context: str, *candidates: str) -> Example:
    return Example(context=(context,), candidates=candidates, label_index=0)


ONE = [example("a b", "c d")]
SAME_GOLD = [example("a b", "c d"), example("e f", "c d"), example("g h", "c d")]
TWO_GOLDS = [example("a b", "c d"), example("e f", "g h")]


class TestTrainingData:
    @pytest.mark.parametrize("kind,train,valid,neg_mode,message", [
        ("pretrain", ONE, None, "sampled", "too few"),
        ("pretrain", SAME_GOLD, None, "sampled", "distinct golds"),
        ("pretrain", TWO_GOLDS, ONE, "sampled", "too few"),
        ("pretrain", TWO_GOLDS, SAME_GOLD, "sampled", "distinct golds"),
        ("bi", ONE, None, "sampled", "too few"),
        ("poly", TWO_GOLDS, ONE, "sampled", "too few"),
        ("cross", [], None, "sampled", "too few"),
        ("cross", ONE, None, "sampled", "distinct golds"),
        ("cross", SAME_GOLD, None, "provided", "distinct golds"),
        ("cross", [example("a b", "c d", "e f")], SAME_GOLD, "provided", "distinct golds"),
    ], ids=["pretrain_one", "pretrain_same_gold", "pretrain_valid_one",
            "pretrain_valid_same_gold", "bi_one", "poly_valid_one", "cross_empty", "cross_one",
            "cross_provided_same_gold", "cross_valid_same_gold"])
    def test_rejected(self, kind, train, valid, neg_mode, message):
        with pytest.raises(ContractError, match=message):
            training_data(kind, train, valid, neg_mode)

    @pytest.mark.parametrize("kind,train,valid,neg_mode", [
        ("bi", SAME_GOLD, SAME_GOLD[:2], "sampled"),  # in-batch negatives draw no gold
        ("cross", [example("a b", "c d", "e f")], None, "provided"),
        ("cross", [example("a b", "c d", "e f")], [example("g", "x")], "provided"),
        ("cross", TWO_GOLDS, ONE, "sampled"),
    ], ids=["bi_same_gold", "cross_one_provided", "cross_valid_gold_outside_pool",
            "cross_valid_one"])
    def test_accepted(self, kind, train, valid, neg_mode):
        assert training_data(kind, train, valid, neg_mode)[0] == train

    def test_sample_is_the_first_64(self, corpus):
        valid = corpus * 2
        assert training_data("pretrain", corpus, valid, "sampled")[1] == valid[:64]

    @pytest.mark.parametrize("loop", ["pretrain", "cross"])
    def test_loops_reject_before_step_1(self, overlap_world, loss_calls, loop):
        _, _, vocab, base = overlap_world
        with pytest.raises(ContractError, match="distinct golds"):
            if loop == "pretrain":
                pretrain_loop(base, vocab, SAME_GOLD, pretraining_config(), steps=2,
                              batch_size=2, seed=0)
            else:
                finetune_loop(base.derive("cross", make_rng(0)), vocab, ONE, None,
                              OptimizerConfig(), FinetuneSettings(steps=2, batch_size=2))
        assert loss_calls == []

    def test_one_cross_example_with_provided_negatives_trains(self, overlap_world):
        _, _, vocab, base = overlap_world
        log = finetune_loop(base.derive("cross", make_rng(0)), vocab,
                            [example("a b", "c d", "e f")], None, OptimizerConfig(),
                            FinetuneSettings(steps=2, batch_size=2, neg_mode="provided"))
        assert [row["step"] for row in log.rows] == [2]
