"""Acceptance criteria, one test per criterion, in order.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The latency and learnability criteria take minutes; everything
else is fast.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore.bench import BenchSpec, make_bench_models, run_bench, synthetic_texts
from polyscore.encoder import ModelConfig
from polyscore.heads import poly_context_vectors, reduce_output
from polyscore.losses import external_neg_loss
from polyscore.model import Model, Scorer, load_checkpoint, save_checkpoint
from polyscore.optim import OptimizerConfig, pretraining_config
from polyscore.retrieval import RankResult, build_cache, load_cache, mrr, rank_bi, \
    rank_cross, rank_poly, recall_at_k, save_cache
from polyscore.synth import make_overlap_dataset
from polyscore.text import Vocabulary, build_vocab, encode_single, example_token_stream
from polyscore.training import FinetuneSettings, batch_kind, bi_batch_loss, \
    cross_batch_loss, finetune_loop, mlm_corrupt, next_selection_batch, \
    poly_batch_loss, pretrain_loop

from conftest import make_rng
from oracles import bi_score, grad_check, poly_score

REPO_ROOT = Path(__file__).parent.parent


def report(n, slug, t0):
    print(f"\nACCEPTANCE {n} {slug}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.mark.slow
def test_criterion_1_equation_fidelity():
    """Every [TRIVIAL]/[DERIVED] op example passes; oracles are test-only code."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider",
         "--ignore", "tests/test_acceptance.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, f"unit suite failed:\n{proc.stdout[-4000:]}"
    assert elapsed < 120, f"fidelity suite took {elapsed:.0f}s (budget 120s)"
    report(1, "equation-fidelity", t0)


def test_criterion_2_full_model_gradients():
    """Bi / Cross / Poly(learnt, m=4) loss gradients vs central differences."""
    t0 = time.perf_counter()
    rng = make_rng(41)
    vocab = Vocabulary([f"w{i}" for i in range(24)])
    cfg = ModelConfig(vocab_size=len(vocab))
    base = Model.init_pretrain(cfg, rng)
    train, _ = make_overlap_dataset(8, 2, seed=14, content_vocab=20)

    def texts_rewritten(exs):
        # map synthetic words (tokNNN) onto this vocab deterministically
        out = []
        for ex in exs:
            ctx = tuple(" ".join(f"w{int(w[-3:]) % 24}" for w in turn.split())
                        for turn in ex.context)
            gold = " ".join(f"w{int(w[-3:]) % 24}" for w in ex.gold.split())
            out.append(type(ex)(context=ctx, candidates=(gold,), label_index=0))
        return out

    batch = texts_rewritten(train)[:3]
    pool = [ex.gold for ex in texts_rewritten(train)]

    def check(model, loss_fn):
        params = model.named_parameters()
        arrays = {n: t.data for n, t in params.items()}
        loss = loss_fn()
        grads = T.backward(loss, list(params.values()))
        analytic = {n: grads[params[n]] for n in params}
        worst = grad_check(lambda: loss_fn().item(), arrays, analytic,
                           rng, probes=50, rtol=1e-3)
        return worst

    bi = base.derive("bi", rng)
    scorer = Scorer(bi, vocab)
    w_bi = check(bi, lambda: bi_batch_loss(scorer, batch))

    poly = base.derive("poly", rng, poly_variant="learnt", poly_m=4)
    scorer_p = Scorer(poly, vocab)
    w_poly = check(poly, lambda: poly_batch_loss(scorer_p, batch))

    cross = base.derive("cross", rng)
    scorer_c = Scorer(cross, vocab)
    settings = FinetuneSettings(steps=1, batch_size=2, n_candidates=4, seed=0)

    def cross_loss():
        # fixed negatives for a deterministic loss surface
        neg_rng = make_rng(7)
        return cross_batch_loss(scorer_c, batch[:2], pool, settings, neg_rng)

    w_cross = check(cross, cross_loss)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"gradient check took {elapsed:.0f}s (budget 300s)"
    print(f"  worst rel err: bi={w_bi:.2e} poly={w_poly:.2e} cross={w_cross:.2e}")
    report(2, "full-model-gradients", t0)


def test_criterion_3_degeneracy_identities():
    """Poly(first_m, m=1) == Bi(first) on 100 random models/inputs."""
    t0 = time.perf_counter()
    vocab = Vocabulary([f"w{i}" for i in range(24)])
    cfg = ModelConfig(vocab_size=len(vocab))
    rng = make_rng(43)
    for trial in range(100):
        base = Model.init_pretrain(cfg, make_rng(1000 + trial))
        model = base.derive("bi", rng)
        scorer = Scorer(model, vocab)
        ctx = [" ".join(f"w{int(i)}" for i in rng.integers(0, 24, size=6))]
        cand = " ".join(f"w{int(i)}" for i in rng.integers(0, 24, size=3))
        out = scorer.context_outputs([ctx])
        y_cand = scorer.candidate_vector(cand)
        vecs, _ = poly_context_vectors(out, "first_m", 1)
        b = bi_score(T.reshape(reduce_output(out, "first"), (cfg.hidden,)), y_cand).item()
        p = poly_score(T.reshape(vecs, (1, cfg.hidden)), y_cand).item()
        assert abs(b - p) < 1e-9

    # singleton final attention is exactly a dot product
    for trial in range(20):
        vec = rng.normal(size=(1, 16))
        cand = rng.normal(size=16)
        assert poly_score(T.Tensor(vec), T.Tensor(cand)).item() == \
            bi_score(T.Tensor(vec[0]), T.Tensor(cand)).item()
    report(3, "degeneracy-identities", t0)


def test_criterion_4_cache_equivalence():
    """Cached vs recomputed rankings: same order, scores within 1e-6."""
    t0 = time.perf_counter()
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    cfg = ModelConfig(vocab_size=len(vocab))
    base = Model.init_pretrain(cfg, make_rng(44))
    rng = make_rng(45)
    candidates = [" ".join(f"w{int(i)}" for i in rng.integers(0, 40, size=4))
                  for _ in range(200)]
    queries = [[" ".join(f"w{int(i)}" for i in rng.integers(0, 40, size=8))]
               for _ in range(1000)]

    for kind, rank_fn in (("bi", rank_bi), ("poly", rank_poly)):
        if kind == "bi":
            model = base.derive("bi", rng)
        else:
            model = base.derive("poly", rng, poly_variant="learnt", poly_m=8)
        scorer = Scorer(model, vocab)
        cache = build_cache(candidates, scorer)
        # independent recompute: fresh per-candidate encodes, no cache structs
        fresh = np.stack([scorer.candidate_vector(c).data for c in candidates])
        worst = 0.0
        for qi, q in enumerate(queries):
            res = rank_fn(scorer, q, cache, k=200)
            if kind == "bi":
                y = scorer.context_vector(q).data
                direct = fresh @ y
            else:
                vecs = scorer.poly_vectors(q)
                direct = np.array([
                    poly_score(vecs, T.Tensor(fresh[c])).item() for c in range(200)
                ]) if qi % 50 == 0 else None
                if direct is None:
                    # cheap recompute on the remaining queries: fresh rows,
                    # same attention formula
                    a = fresh @ vecs.data.T
                    e = np.exp(a - a.max(axis=-1, keepdims=True))
                    w = e / e.sum(axis=-1, keepdims=True)
                    direct = ((w @ vecs.data) * fresh).sum(axis=-1)
            expected_order = np.lexsort((np.arange(200), -direct))
            got_ids = [cid for cid, _ in res.ranking]
            assert got_ids == [int(i) for i in expected_order], f"order differs on query {qi}"
            got_scores = np.array([s for _, s in res.ranking])
            worst = max(worst, np.abs(got_scores - direct[expected_order]).max())
        assert worst < 1e-6, f"{kind}: score diff {worst}"
        print(f"  {kind}: max |cached - recomputed| = {worst:.2e}")
    report(4, "cache-equivalence", t0)


@pytest.fixture(scope="module")
def overlap_world():
    """Shared synthetic task + one pre-trained base for the learnability run."""
    train, test = make_overlap_dataset(400, 50, seed=8, cand_len=4)
    vocab = build_vocab(example_token_stream(train + test), 600)
    cfg = ModelConfig(vocab_size=len(vocab))
    base = Model.init_pretrain(cfg, make_rng(3))
    pt = pretraining_config(lr=2e-3, warmup_steps=50, eval_interval=1000)
    pretrain_loop(base, vocab, train, pt, steps=4000, batch_size=12, seed=5)
    return train, test, vocab, base


def _eval_r1(model, vocab, test, kind):
    scorer = Scorer(model, vocab)
    results = []
    for ex in test:
        if kind == "cross":
            results.append(rank_cross(scorer, ex.context, list(ex.candidates),
                                      len(ex.candidates), gold_index=ex.label_index))
        else:
            cache = build_cache(list(ex.candidates), scorer)
            fn = rank_bi if kind == "bi" else rank_poly
            results.append(fn(scorer, ex.context, cache, len(ex.candidates),
                              gold_id=ex.label_index))
    return recall_at_k(results, 1)


@pytest.mark.slow
def test_criterion_5_latency_ordering():
    """t(Bi) <= t(Poly16) <= t(Poly64) <= t(Poly360), Cross >= 10x Poly360,
    Cross linear in candidate count."""
    t0 = time.perf_counter()
    vocab = Vocabulary([f"w{i:04d}" for i in range(252)])
    cfg = ModelConfig(vocab_size=len(vocab))
    rng = make_rng(46)

    cached_archs = ["bi", "poly:16", "poly:64", "poly:360"]
    spec = BenchSpec(architectures=cached_archs, candidate_counts=[1000],
                     n_queries=100, warmup_queries=10, context_tokens=64, candidate_tokens=16)
    models = make_bench_models(cfg, cached_archs + ["cross"], seed=1)
    pool = synthetic_texts(vocab, 1000, spec.candidate_tokens, rng)
    queries = [[q] for q in synthetic_texts(vocab, 32, spec.context_tokens, rng)]
    rep = run_bench(spec, models, vocab, pool, queries)
    means = {c.arch: c.mean_ms for c in rep.cells}

    cross_spec = BenchSpec(architectures=["cross"], candidate_counts=[1000],
                           n_queries=10, warmup_queries=2, context_tokens=64,
                           candidate_tokens=16)
    cross_rep = run_bench(cross_spec, models, vocab, pool, queries)
    means["cross"] = cross_rep.cells[0].mean_ms

    print(f"  mean ms/query @1000: " +
          " ".join(f"{a}={means[a]:.2f}" for a in cached_archs + ["cross"]))
    assert means["bi"] <= means["poly:16"] <= means["poly:64"] <= means["poly:360"], means
    assert means["cross"] >= 10 * means["poly:360"], means

    lin_spec = BenchSpec(architectures=["cross"], candidate_counts=[200, 400],
                         n_queries=10, warmup_queries=2, context_tokens=64,
                         candidate_tokens=16)
    lin = run_bench(lin_spec, models, vocab, pool, queries)
    by_count = {c.candidates: c.mean_ms for c in lin.cells}
    ratio = by_count[400] / by_count[200]
    print(f"  cross 200->400 ratio: {ratio:.2f}")
    assert 1.6 <= ratio <= 2.4, ratio

    elapsed = time.perf_counter() - t0
    assert elapsed < 900, f"latency criterion took {elapsed:.0f}s (budget 900s)"
    report(5, "latency-ordering", t0)


@pytest.mark.slow
def test_criterion_6_learnability(overlap_world):
    """Bi / Poly16 / Cross reach R@1/20 >= 0.60 on the token-overlap task."""
    t0 = time.perf_counter()
    train, test, vocab, base = overlap_world
    budget_s = 600
    r1 = {}

    opt = OptimizerConfig(lr=1e-3, warmup_steps=10, eval_interval=400)

    t_arch = time.perf_counter()
    bi = base.derive("bi", make_rng(0))
    finetune_loop(bi, vocab, train, None, opt,
                  FinetuneSettings(steps=1600, batch_size=16, seed=2))
    assert time.perf_counter() - t_arch < budget_s
    r1["bi"] = _eval_r1(bi, vocab, test, "bi")

    t_arch = time.perf_counter()
    poly = base.derive("poly", make_rng(0), poly_variant="learnt", poly_m=16)
    finetune_loop(poly, vocab, train, None, opt,
                  FinetuneSettings(steps=1000, batch_size=16, seed=2))
    assert time.perf_counter() - t_arch < budget_s
    r1["poly16"] = _eval_r1(poly, vocab, test, "poly")

    t_arch = time.perf_counter()
    cross = base.derive("cross", make_rng(0))
    opt_cross = OptimizerConfig(lr=1e-3, warmup_steps=50, eval_interval=600)
    finetune_loop(cross, vocab, train, None, opt_cross,
                  FinetuneSettings(steps=2400, batch_size=4, n_candidates=8, seed=2))
    assert time.perf_counter() - t_arch < budget_s
    r1["cross"] = _eval_r1(cross, vocab, test, "cross")

    print(f"  R@1/20: bi={r1['bi']:.2f} poly16={r1['poly16']:.2f} cross={r1['cross']:.2f} "
          f"(random baseline 0.05)")
    for arch, value in r1.items():
        assert value >= 0.60, f"{arch} reached only {value:.2f}"
    assert r1["cross"] >= r1["bi"] - 0.02, r1
    report(6, "learnability", t0)


def test_criterion_7_metric_arithmetic():
    t0 = time.perf_counter()
    results = [RankResult([], rank_of_gold=r) for r in (1, 2, 4)]
    assert abs(mrr(results) - (1 + 0.5 + 0.25) / 3) < 1e-12
    assert mrr(results) == pytest.approx(0.5833333333333334)

    rng = make_rng(47)
    uniform = [RankResult([], rank_of_gold=int(rng.integers(1, 21)))
               for _ in range(10000)]
    r1 = recall_at_k(uniform, 1)
    assert abs(r1 - 0.05) < 0.01
    report(7, "metric-arithmetic", t0)


def test_criterion_8_reproducibility(tmp_path):
    """Fixed-seed runs are byte-identical; files round-trip byte-identically."""
    t0 = time.perf_counter()
    train, test = make_overlap_dataset(30, 5, seed=21)
    vocab = build_vocab(example_token_stream(train + test), 400)
    cfg = ModelConfig(vocab_size=len(vocab))

    def pretrain_run(path):
        model = Model.init_pretrain(cfg, make_rng(13))
        pt = pretraining_config(lr=1e-3, warmup_steps=10, eval_interval=25)
        pretrain_loop(model, vocab, train, pt, steps=50, batch_size=4, seed=17)
        save_checkpoint(model, path)
        return model

    pretrain_run(tmp_path / "p1.bin")
    pretrain_run(tmp_path / "p2.bin")
    assert (tmp_path / "p1.bin").read_bytes() == (tmp_path / "p2.bin").read_bytes()

    base = load_checkpoint(tmp_path / "p1.bin")

    def train_run(path):
        model = load_checkpoint(tmp_path / "p1.bin").derive("bi", make_rng(2))
        opt = OptimizerConfig(lr=1e-3, warmup_steps=5, eval_interval=10)
        finetune_loop(model, vocab, train, test, opt,
                      FinetuneSettings(steps=20, batch_size=4, seed=19))
        save_checkpoint(model, path)

    train_run(tmp_path / "t1.bin")
    train_run(tmp_path / "t2.bin")
    assert (tmp_path / "t1.bin").read_bytes() == (tmp_path / "t2.bin").read_bytes()

    # file round trips
    resaved = tmp_path / "resave.bin"
    save_checkpoint(load_checkpoint(tmp_path / "t1.bin"), resaved)
    assert resaved.read_bytes() == (tmp_path / "t1.bin").read_bytes()

    scorer = Scorer(base.derive("bi", make_rng(2)), vocab)
    cache = build_cache([ex.gold for ex in train[:10]], scorer)
    save_cache(cache, tmp_path / "c1.bin")
    save_cache(load_cache(tmp_path / "c1.bin"), tmp_path / "c2.bin")
    assert (tmp_path / "c1.bin").read_bytes() == (tmp_path / "c2.bin").read_bytes()
    report(8, "reproducibility", t0)


def test_criterion_9_pretraining_schedule():
    """Strict MLM/next alternation; corruption and positive fractions."""
    t0 = time.perf_counter()
    kinds = [batch_kind(s) for s in range(1, 1001)]
    assert kinds.count("mlm") == 500 and kinds.count("next") == 500
    assert all(a != b for a, b in zip(kinds, kinds[1:]))

    vocab = Vocabulary([f"w{i}" for i in range(60)])
    rng = make_rng(48)
    total = selected = 0
    while total < 10000:
        text = " ".join(f"w{int(i)}" for i in rng.integers(0, 60, size=40))
        tp = encode_single(text, vocab, 64)
        _, targets = mlm_corrupt(tp, 0.15, rng, len(vocab))
        total += 40
        selected += len(targets)
    frac = selected / total
    assert abs(frac - 0.15) < 0.01, frac

    train, _ = make_overlap_dataset(50, 2, seed=23)
    batch = next_selection_batch(train, rng, 10000)
    pos = sum(label for _, _, label in batch) / len(batch)
    assert abs(pos - 0.5) < 0.02, pos
    print(f"  corruption fraction {frac:.4f}, positive fraction {pos:.4f}")
    report(9, "pretraining-schedule", t0)
