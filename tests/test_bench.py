"""Benchmark harness structure and report rendering."""

import json
import time

import numpy as np
import pytest

from polyscore import bench, retrieval
from polyscore.bench import (
    BenchCell,
    _openblas_thread_calls,
    BenchReport,
    BenchSpec,
    make_bench_models,
    report_table,
    report_to_jsonl,
    run_bench,
    synthetic_texts,
)
from polyscore.cli import build_parser, resolve
from polyscore.encoder import ModelConfig
from polyscore.errors import ConfigError
from polyscore.heads import parse_arch
from polyscore.text import Vocabulary

from conftest import make_rng


class TickingClock:
    """Stands in for the `time` module that polyscore.bench reads: each
    perf_counter() call advances by `tick` seconds."""

    def __init__(self, tick):
        self.tick = tick
        self.now = 0.0

    def perf_counter(self):
        self.now += self.tick
        return self.now

    get_clock_info = staticmethod(time.get_clock_info)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary([f"w{i:03d}" for i in range(60)])


def tiny_spec(**kw):
    defaults = dict(architectures=["bi", "poly:4", "cross"], candidate_counts=[8],
                    n_queries=4, warmup_queries=2, context_tokens=10,
                    candidate_tokens=4)
    defaults.update(kw)
    return BenchSpec(**defaults)


def pool_and_queries(spec, vocab, n_pool, n_queries, rng):
    """A candidate pool then one-turn queries, drawn as `polyscore bench` draws them."""
    pool = synthetic_texts(vocab, n_pool, spec.candidate_tokens, rng)
    return pool, [[q] for q in synthetic_texts(vocab, n_queries, spec.context_tokens, rng)]


class TestSpec:
    def test_parse_arch(self):
        assert parse_arch("bi") == ("bi", None, None)
        assert parse_arch("poly:16") == ("poly", "learnt", 16)
        assert parse_arch("poly:first_m:16") == ("poly", "first_m", 16)
        assert parse_arch("poly:last_m_h1:2") == ("poly", "last_m_h1", 2)
        for bad in ("poly:0", "dual", "poly:x", "poly:", "poly:first_m:x", "poly:mean:4",
                    "poly:first_m:4:1"):
            with pytest.raises(ConfigError):
                parse_arch(bad)
            with pytest.raises(ConfigError):
                tiny_spec(architectures=[bad])

    def test_defaults(self):
        # the settings table is the one home of bench's defaults
        s = resolve(build_parser().parse_args(["bench"]))
        assert s.arch == ["bi", "poly:16", "cross"]
        assert s.candidates == [1000, 10000]
        assert (s.queries, s.warmup, s.context_tokens, s.candidate_tokens) == (100, 10, 64, 16)
        assert (s.extrapolate_cross_from, s.seed, s.vocab_size) == (None, 0, 256)

    def test_synthetic_texts_draw_one_choice_per_text(self, vocab):
        # one rng.choice per text, pool before queries: a seed's pool and
        # queries are fixed by that draw order
        spec = tiny_spec()
        pool, queries = pool_and_queries(spec, vocab, 5, 3, make_rng(4))
        rng, words = make_rng(4), [vocab.token_of(i) for i in range(4, len(vocab))]
        draws = [rng.choice(len(words), size=size)
                 for size in [spec.candidate_tokens] * 5 + [spec.context_tokens] * 3]
        texts = [" ".join(words[int(t)] for t in d) for d in draws]
        assert pool == texts[:5] and queries == [[t] for t in texts[5:]]


class TestRunBench:
    def test_smoke_all_architectures(self, vocab):
        spec = tiny_spec()
        cfg = ModelConfig(vocab_size=len(vocab))
        models = make_bench_models(cfg, spec.architectures, seed=0)
        rng = make_rng(1)
        pool, queries = pool_and_queries(spec, vocab, 8, 6, rng)
        report = run_bench(spec, models, vocab, pool, queries)
        assert len(report.cells) == 3
        for cell in report.cells:
            assert cell.mean_ms > 0
            assert cell.n_queries == 4
            assert cell.min_ms <= cell.median_ms <= cell.p95_ms <= cell.max_ms
        bi_cell = next(c for c in report.cells if c.arch == "bi")
        cross_cell = next(c for c in report.cells if c.arch == "cross")
        assert bi_cell.cache_build_s is not None and bi_cell.cache_build_s > 0
        assert cross_cell.cache_build_s is None  # no cache possible

    def test_blas_pinned_to_one_thread_then_restored(self, vocab):
        calls = _openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle an OpenBLAS here")
        get, put = calls
        before = get()
        put(2)
        try:
            spec = tiny_spec(architectures=["bi"])
            models = make_bench_models(ModelConfig(vocab_size=len(vocab)), ["bi"], seed=0)
            rng = make_rng(1)
            report = run_bench(spec, models, vocab, *pool_and_queries(spec, vocab, 8, 6, rng))
            assert report.threads == 1
            assert get() == 2
        finally:
            put(before)

    def test_unknown_blas_threads_reported_as_unknown(self, vocab, monkeypatch):
        # where BLAS cannot be reached, the count is unknown, not guessed
        monkeypatch.setattr(bench, "_openblas_thread_calls", lambda: None)
        spec = tiny_spec(architectures=["bi"])
        models = make_bench_models(ModelConfig(vocab_size=len(vocab)), ["bi"], seed=0)
        report = run_bench(spec, models, vocab,
                           *pool_and_queries(spec, vocab, 8, 6, make_rng(1)))
        assert report.threads is None
        assert json.loads(report_to_jsonl(report).splitlines()[0])["threads"] is None

    def test_models_use_float32(self, vocab):
        cfg = ModelConfig(vocab_size=len(vocab))
        models = make_bench_models(cfg, ["bi"], seed=0)
        params = models["bi"].named_parameters().values()
        assert all(t.dtype == np.float32 for t in params)

    def test_models_build_the_parsed_variant(self, vocab):
        models = make_bench_models(ModelConfig(vocab_size=len(vocab)),
                                   ["poly:4", "poly:first_m:3"], seed=0)
        assert (models["poly:4"].poly_variant, models["poly:4"].poly_m) == ("learnt", 4)
        assert (models["poly:first_m:3"].poly_variant, models["poly:first_m:3"].poly_m) == \
            ("first_m", 3)

    def test_models_are_inference_only(self, vocab):
        models = make_bench_models(ModelConfig(vocab_size=len(vocab)), ["bi", "poly:4", "cross"],
                                   seed=0)
        assert not any(t.requires_grad for m in models.values()
                       for t in m.named_parameters().values())

    def test_cross_extrapolation_flagged_and_scaled(self, vocab, monkeypatch):
        # a clock that ticks 2**-10 s per read: every timed query reads
        # exactly one tick, so the scaling is checked exactly, not on wall time
        clock = TickingClock(2.0 ** -10)
        monkeypatch.setattr(bench, "time", clock)
        cfg = ModelConfig(vocab_size=len(vocab))
        rng = make_rng(2)
        spec = tiny_spec(architectures=["cross"], candidate_counts=[16],
                         extrapolate_cross_from=4, n_queries=3, warmup_queries=1)
        models = make_bench_models(cfg, spec.architectures, seed=0)
        pool, queries = pool_and_queries(spec, vocab, 16, 4, rng)
        report = run_bench(spec, models, vocab, pool, queries)
        (cell,) = report.cells
        assert cell.extrapolated

        spec2 = tiny_spec(architectures=["cross"], candidate_counts=[4],
                          n_queries=3, warmup_queries=1)
        report2 = run_bench(spec2, models, vocab, pool, queries)
        (measured,) = report2.cells
        # extrapolated 16-candidate times are exactly 16/4 x the measured
        # 4-candidate times
        tick_ms = clock.tick * 1e3
        assert measured.min_ms == measured.max_ms == tick_ms
        for stat in ("mean_ms", "median_ms", "p95_ms", "min_ms", "max_ms"):
            assert getattr(cell, stat) == 4 * getattr(measured, stat), stat

    def test_cells_timed_round_robin(self, vocab, monkeypatch):
        # query i of every (arch, count) cell runs before query i + 1 of any,
        # so a slow spell of the machine cannot fall on one cell alone; the
        # order within a round is reshuffled, so no cell always runs right
        # after the same (possibly cache-evicting) neighbour
        # the rankers are patched in retrieval: retrieval.rank looks them up
        # when called, as the benchmark's tracer needs
        calls = []

        def recording(fn, size):
            def wrapped(scorer, q, pool, k, *rest):
                calls.append((fn.__name__, size(pool)))
                return fn(scorer, q, pool, k, *rest)
            return wrapped

        monkeypatch.setattr(retrieval, "rank_bi",
                            recording(retrieval.rank_bi, lambda c: len(c.ids)))
        monkeypatch.setattr(retrieval, "rank_cross", recording(retrieval.rank_cross, len))
        spec = tiny_spec(architectures=["bi", "cross"], candidate_counts=[4, 8],
                         n_queries=2, warmup_queries=1)
        models = make_bench_models(ModelConfig(vocab_size=len(vocab)), spec.architectures, seed=0)
        rng = make_rng(3)
        report = run_bench(spec, models, vocab, *pool_and_queries(spec, vocab, 8, 4, rng))
        cells = [("rank_bi", 4), ("rank_bi", 8), ("rank_cross", 4), ("rank_cross", 8)]
        rounds = [calls[i:i + len(cells)] for i in range(0, len(calls), len(cells))]
        assert len(rounds) == 3 and all(sorted(r) == cells for r in rounds)
        assert len({tuple(r) for r in rounds}) > 1
        assert [(c.arch, c.candidates) for c in report.cells] == \
            [("bi", 4), ("bi", 8), ("cross", 4), ("cross", 8)]

    def test_pool_too_small_rejected(self, vocab):
        spec = tiny_spec(candidate_counts=[100])
        cfg = ModelConfig(vocab_size=len(vocab))
        models = make_bench_models(cfg, spec.architectures, seed=0)
        from polyscore.errors import ContractError

        with pytest.raises(ContractError):
            run_bench(spec, models, vocab, ["only one"], [["q"]])


class TestRender:
    def make_report(self):
        cells = [
            BenchCell(arch="bi", candidates=1000, n_queries=10, mean_ms=1.25,
                      median_ms=1.2, p95_ms=1.9, min_ms=1.0, max_ms=2.0,
                      extrapolated=False, cache_build_s=0.5),
            BenchCell(arch="cross", candidates=1000, n_queries=10, mean_ms=300.0,
                      median_ms=290.0, p95_ms=500.0, min_ms=250.0, max_ms=600.0,
                      extrapolated=True, cache_build_s=None),
        ]
        return BenchReport(cells=cells, threads=1, precision="float32")

    def test_empty_report(self):
        report = BenchReport(cells=[], threads=1, precision="float32")
        assert report_to_jsonl(report) == ""
        assert "threads=1" in report_table(report)

    def test_single_cell_json_fields(self):
        report = self.make_report()
        line = report_to_jsonl(report).splitlines()[0]
        row = json.loads(line)
        assert set(row) == {"arch", "candidates", "n_queries", "mean_ms", "median_ms",
                            "p95_ms", "min_ms", "max_ms", "extrapolated",
                            "cache_build_s", "threads", "precision"}

    def test_extrapolated_marked_in_table(self):
        table = report_table(self.make_report())
        assert "extrapolated" in table
