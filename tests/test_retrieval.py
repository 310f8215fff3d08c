"""Candidate cache, ranking paths and IR metrics."""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyscore import retrieval
from polyscore.bench import make_bench_models, synthetic_texts
from polyscore.encoder import ModelConfig
from polyscore.errors import ContractError, OldFormatError, ParseError, StaleCacheError
from polyscore.model import Model, Scorer
from polyscore.retrieval import (
    ENCODE_CHUNK,
    CandidateCache,
    RankResult,
    _result,
    build_cache,
    load_cache,
    mrr,
    rank,
    rank_bi,
    rank_cross,
    rank_poly,
    recall_at_k,
    save_cache,
)
from polyscore.tensor import Tensor
from polyscore.text import RESERVED, Vocabulary

from conftest import make_rng
from oracles import brute_force_rank, cache_bytes_reference, lexsort_rank, poly_scores_pooled, \
    rank_poly_block_scores, score_bi, score_poly


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


@pytest.fixture(scope="module")
def world(vocab):
    cfg = ModelConfig(vocab_size=len(vocab))
    base = Model.init_pretrain(cfg, make_rng(17))
    bi = Scorer(base.derive("bi", make_rng(1)), vocab)
    poly = Scorer(base.derive("poly", make_rng(1), poly_variant="learnt", poly_m=4), vocab)
    cross = Scorer(base.derive("cross", make_rng(1)), vocab)
    return bi, poly, cross


def texts(rng, n, length=4):
    return [" ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=length))
            for _ in range(n)]


def mixed_texts(rng, n):
    """n candidates of 0-9 words, so batches mix lengths and pad."""
    return [" ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=int(rng.integers(0, 10))))
            for _ in range(n)]


class TestBuildCache:
    def test_single_candidate(self, world):
        bi, _, _ = world
        cache = build_cache(["w1 w2"], bi)
        assert cache.embeddings.shape == (1, 32)

    def test_duplicates_identical_rows(self, world):
        bi, _, _ = world
        cache = build_cache(["w1 w2", "w1 w2"], bi)
        assert np.array_equal(cache.embeddings[0], cache.embeddings[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_duplicates_past_a_chunk_identical_rows(self, vocab, dtype):
        # 65 rows are two chunks of 32 and 33, not 64 and a lone row that
        # numpy would multiply by GEMV, which rounds apart from GEMM
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(17), dtype)
        bi = Scorer(base.derive("bi", make_rng(1)), vocab)
        n = ENCODE_CHUNK + 1
        cache = build_cache(["w1 w2 w3"] * n, bi)
        assert cache.embeddings.dtype == dtype
        assert len({row.tobytes() for row in cache.embeddings}) == 1
        # one product per row: rank_bi's single GEMV over the cache rounds a
        # tail row apart in float64, whatever the rows hold
        y = bi.context_vector(["w4 w5"]).data
        res = _result(cache.id_array, np.array([row @ y for row in cache.embeddings]), n, None)
        assert [cid for cid, _ in res.ranking] == list(range(n))

    def test_row_equals_direct_encode(self, world):
        bi, _, _ = world
        cache = build_cache(["w3 w4 w5"], bi)
        direct = bi.candidate_vector("w3 w4 w5").data
        assert np.abs(cache.embeddings[0] - direct).max() < 1e-9

    def test_empty_rejected(self, world):
        with pytest.raises(ContractError):
            build_cache([], world[0])

    @pytest.mark.parametrize("reduction", ["first", "avg_all", "avg_first:3"])
    def test_batched_rows_equal_candidate_vector(self, vocab, reduction):
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(17))
        scorer = Scorer(base.derive("bi", make_rng(1), reduction=reduction), vocab)
        cands = mixed_texts(make_rng(10), ENCODE_CHUNK + 1)  # crosses a chunk boundary
        cache = build_cache(cands, scorer)
        assert cache.embeddings.flags.f_contiguous
        direct = np.stack([scorer.candidate_vector(c).data for c in cands])
        assert np.abs(cache.embeddings - direct).max() < 1e-9


class TestRankBi:
    def test_orthonormal_rows_pick_match(self, world):
        bi, _, _ = world
        emb = np.eye(8)[:, :32] if False else np.eye(8, 32)
        cache = CandidateCache(list(range(8)), [f"c{i}" for i in range(8)], emb, "unsaved")
        # craft a context vector equal to row 3 by monkeypatching is overkill;
        # score directly against the cache instead
        scores = cache.embeddings @ emb[3]
        order = np.argsort(-scores, kind="stable")
        assert order[0] == 3

    def test_full_permutation_sorted(self, world):
        bi, _, _ = world
        rng = make_rng(2)
        cache = build_cache(texts(rng, 6), bi)
        res = rank_bi(bi, ["w1 w2"], cache, k=6)
        scores = [s for _, s in res.ranking]
        assert scores == sorted(scores, reverse=True)
        assert sorted(cid for cid, _ in res.ranking) == list(range(6))

    def test_matches_brute_force_oracle(self, world):
        bi, _, _ = world
        rng = make_rng(3)
        cands = texts(rng, 50)
        cache = build_cache(cands, bi)
        res = rank_bi(bi, ["w9 w8 w7"], cache, k=50)
        oracle_scores = [score_bi(bi, ["w9 w8 w7"], c) for c in cands]
        expected = brute_force_rank(list(range(50)), oracle_scores)
        assert [cid for cid, _ in res.ranking] == [cid for cid, _ in expected]
        got = dict(res.ranking)
        assert all(abs(got[cid] - s) < 1e-9 for cid, s in expected)

    def test_gold_rank(self, world):
        bi, _, _ = world
        rng = make_rng(4)
        cands = texts(rng, 10)
        cache = build_cache(cands, bi)
        res = rank_bi(bi, ["w1"], cache, k=3, gold_id=5)
        assert 1 <= res.rank_of_gold <= 10

    def test_deterministic_tie_order(self):
        cache = CandidateCache([0, 1, 2], ["a", "b", "a"],
                               np.zeros((3, 4)), "unsaved")
        scores = cache.embeddings @ np.ones(4)  # all ties
        res = _result(cache.ids, scores, 3, None)
        assert [cid for cid, _ in res.ranking] == [0, 1, 2]  # ascending id on ties

    def test_stale_cache_hard_error(self, world):
        bi, _, _ = world
        cache = build_cache(["w1"], bi)
        cache.fingerprint = "deadbeef"
        with pytest.raises(StaleCacheError):
            rank_bi(bi, ["w1"], cache, k=1)

    @pytest.mark.parametrize("change", ["permuted_vocabulary", "candidate_cap"])
    def test_cache_of_another_binding_is_stale(self, world, change):
        bi, _, _ = world
        cache = build_cache(["w1", "w2 w3"], bi)
        words = [bi.vocab.token_of(i) for i in range(len(RESERVED), len(bi.vocab))]
        other = Scorer(bi.model, Vocabulary(words[::-1]))  # same size, other ids
        if change == "candidate_cap":
            other = Scorer(bi.model, bi.vocab)
            other.binding = (*bi.binding[:2], bi.binding[2] - 1)
        with pytest.raises(StaleCacheError, match="polyscore index"):
            rank_bi(other, ["w1"], cache, k=1)
        unbound = CandidateCache(cache.ids, cache.strings, cache.embeddings, cache.fingerprint)
        assert rank_bi(other, ["w1"], unbound, k=1).ranking

    def test_k_out_of_range(self, world):
        bi, _, _ = world
        cache = build_cache(["w1"], bi)
        with pytest.raises(ContractError):
            rank_bi(bi, ["w1"], cache, k=2)


class TestRankPoly:
    def test_matches_per_candidate_oracle(self, world):
        _, poly, _ = world
        rng = make_rng(5)
        cands = texts(rng, 30)
        cache = build_cache(cands, poly)
        res = rank_poly(poly, ["w2 w4 w6"], cache, k=30)
        oracle = [score_poly(poly, ["w2 w4 w6"], c) for c in cands]
        expected = brute_force_rank(list(range(30)), oracle)
        assert [cid for cid, _ in res.ranking] == [cid for cid, _ in expected]
        got = dict(res.ranking)
        assert all(abs(got[cid] - s) < 1e-9 for cid, s in expected)

    def test_cache_equivalence_fresh_vs_loaded(self, world, tmp_path):
        _, poly, _ = world
        rng = make_rng(6)
        cands = texts(rng, 12)
        cache = build_cache(cands, poly)
        res_mem = rank_poly(poly, ["w3"], cache, k=12)
        path = tmp_path / "c.bin"
        save_cache(cache, path)
        res_file = rank_poly(poly, ["w3"], load_cache(path), k=12)
        assert [c for c, _ in res_mem.ranking] == [c for c, _ in res_file.ranking]
        for (_, a), (_, b) in zip(res_mem.ranking, res_file.ranking):
            assert abs(a - b) < 1e-4  # file rows are float32


@st.composite
def scored_candidates(draw):
    """(ids, scores, gold id or None): ids unordered and sometimes repeated,
    scores float32 or float64, often from only 3-4 values (NaN among them)."""
    c = draw(st.integers(min_value=1, max_value=60))
    if draw(st.booleans()):
        pool = draw(st.lists(st.floats(-4, 4, width=32) | st.just(np.nan),
                             min_size=3, max_size=4))
        values = st.sampled_from(pool)
    else:
        values = st.floats(width=32)  # NaN and infinities included
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scores = np.array(draw(st.lists(values, min_size=c, max_size=c)), dtype=dtype)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=c, max_size=c,
                        unique=draw(st.booleans())))
    gold = draw(st.none() | st.sampled_from(ids))
    return np.array(ids, dtype=np.int64), scores, gold


class TestPartialTopK:
    """_result ranks exactly as a full lexsort of every score."""

    @given(scored_candidates())
    @settings(max_examples=400, deadline=None)
    def test_equals_lexsort_for_every_k(self, case):
        ids, scores, gold = case
        for k in range(1, len(ids) + 1):
            res = _result(ids, scores, k, gold)
            ranking, rank_of_gold = lexsort_rank(ids, scores, k, gold)
            assert [cid for cid, _ in res.ranking] == [cid for cid, _ in ranking]
            np.testing.assert_array_equal([s for _, s in res.ranking],
                                          [s for _, s in ranking])
            assert res.rank_of_gold == rank_of_gold

    def test_large_cache_with_ties(self):
        rng = make_rng(21)
        ids = rng.permutation(10000)
        scores = rng.integers(0, 50, size=10000).astype(np.float32)
        scores[rng.choice(10000, size=30, replace=False)] = np.nan
        for k in (1, 5, 199, 200, 201, 9970, 9971, 10000):
            gold = int(ids[k - 1])
            res = _result(ids, scores, k, gold)
            ranking, rank_of_gold = lexsort_rank(ids, scores, k, gold)
            assert [cid for cid, _ in res.ranking] == [cid for cid, _ in ranking]
            assert res.rank_of_gold == rank_of_gold

    def test_gold_missing_rejected(self):
        with pytest.raises(ContractError):
            _result(np.arange(3), np.zeros(3), 1, 7)


def shift_threshold(dtype):
    """T = ln(1/tiny)/2: rank_poly skips the softmax max shift when B <= T."""
    return -0.5 * np.log(np.finfo(dtype).tiny)


T32, T64 = shift_threshold(np.float32), shift_threshold(np.float64)


class TestRankPolyLayout:
    """rank_poly's blocked [m', C] pass equals the [C, m'] pooled formula,
    computed in float64 from the same inputs, within tol relative to the
    largest score, on either side of its shift threshold."""

    def test_threshold_values(self):
        assert T32 == pytest.approx(43.668, abs=1e-3) and T64 == pytest.approx(354.198, abs=1e-3)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("m", [1, 16, 360])
    @pytest.mark.parametrize("c", [1, 1000])
    def test_matches_pooled_reference(self, vocab, dtype, tol, m, c):
        self.check(vocab, dtype, tol, m, c)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("m", [1, 3, 16, 360])
    def test_blocks_match_pooled_reference(self, vocab, dtype, tol, m, monkeypatch):
        # 50 logits per block: 50, 16, 3 and (at least) 1 rows, none of which
        # divides C=101, so every pass ends on a short block
        monkeypatch.setattr("polyscore.retrieval.POLY_BLOCK_ELEMENTS", 50)
        self.check(vocab, dtype, tol, m, 101)

    @pytest.mark.parametrize("dtype,tol,shifted", [(np.float64, 1e-9, False),
                                                   (np.float32, 1e-5, True)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("block", [None, 50], ids=["one_block", "blocks"])
    def test_peaked_attention_matches_pooled_reference(self, vocab, dtype, tol, shifted, block,
                                                       monkeypatch):
        # logits reach +-100: most of each row's softmax weight sits on one or
        # two codes, and an unshifted float32 e^100 would overflow
        if block:
            monkeypatch.setattr("polyscore.retrieval.POLY_BLOCK_ELEMENTS", block)
        self.check(vocab, dtype, tol, 16, 101, bound=100.0, shifted=shifted)

    @pytest.mark.parametrize("dtype,tol,bound,shifted,nan", [
        (np.float32, 1e-5, 0.999 * T32, False, None),  # e^-B is still a normal float
        (np.float32, 1e-5, 1.001 * T32, True, None),
        (np.float64, 1e-9, 0.999 * T64, False, None),
        (np.float64, 1e-9, 1.001 * T64, True, None),
        (np.float64, 1e-9, 1000.0, True, None),  # an unshifted e^1000 overflows float64
        # a NaN makes B NaN, which keeps the shifted form
        (np.float32, 1e-5, 20.0, True, "row"),
        (np.float64, 1e-9, 20.0, True, "row"),
        (np.float32, 1e-5, 20.0, True, "context"),
        (np.float64, 1e-9, 20.0, True, "context"),
    ], ids=["float32-under", "float32-over", "float64-under", "float64-over", "float64-1000",
            "float32-nan_row", "float64-nan_row", "float32-nan_context", "float64-nan_context"])
    @pytest.mark.parametrize("m", [1, 16])
    def test_either_side_of_the_threshold(self, vocab, dtype, tol, bound, shifted, nan, m):
        self.check(vocab, dtype, tol, m, 101, bound=bound, shifted=shifted, nan=nan)

    @pytest.mark.parametrize("arch,m", [("bi", 1), ("poly", 1), ("poly", 16), ("poly", 360)])
    @pytest.mark.parametrize("c", [1, 1000])
    def test_float32_cache_scored_by_float64_model(self, vocab, arch, m, c, monkeypatch):
        # `rank --precision 64 --cache <float32 file>`: the pass computes in
        # float64, so float32 buffers would miss this bound by orders of magnitude
        monkeypatch.setattr("polyscore.retrieval.POLY_BLOCK_ELEMENTS", 4096)
        self.check(vocab, np.float64, 1e-9, m, c, cache_dtype=np.float32, arch=arch)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["under", "over"])
    @pytest.mark.parametrize("block", [None, 50], ids=["one_block", "short_last_block"])
    @pytest.mark.parametrize("m", [3, 16])
    def test_bit_identical_to_the_inline_block_loop(self, vocab, dtype, side, block, m,
                                                    monkeypatch):
        """rank_poly's scores through tensor.softmax_mean are byte for byte
        those of the block loop it ran inline (kept in oracles), with B just
        under or just over T, in one block or ending on a short one."""
        if block:  # 50 logits per block: 16 or 3 rows, neither divides C=101
            monkeypatch.setattr("polyscore.retrieval.POLY_BLOCK_ELEMENTS", block)
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(17), dtype=dtype)
        scorer = Scorer(base.derive("poly", make_rng(1), poly_variant="learnt", poly_m=m), vocab)
        rng = make_rng(m + 40)
        vecs = rng.normal(0.0, 1.0, size=(m, 32)).astype(dtype)
        emb = rng.normal(0.0, 1.0, size=(101, 32))
        emb *= side * shift_threshold(dtype) / (np.linalg.norm(vecs, axis=1).max()
                                               * np.linalg.norm(emb, axis=1).max())
        scorer.poly_vectors = lambda turns: Tensor(vecs)
        cache = CandidateCache(list(range(101)), [""] * 101, emb.astype(dtype), "unsaved")
        bound = float(np.sqrt(np.einsum("mh,mh->m", vecs, vecs).max())) * cache.max_norm
        assert (bound > shift_threshold(dtype)) == (side > 1.0)
        res = rank_poly(scorer, ["w1"], cache, k=101)
        got = np.empty(101, dtype)
        for cid, score in res.ranking:
            got[cid] = score
        want = rank_poly_block_scores(vecs, cache.embeddings, cache.max_norm,
                                      retrieval.POLY_BLOCK_ELEMENTS)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", ["poly:16", "poly:360"])
    def test_bench_models_fall_under_the_threshold(self, arch):
        # the random-init models that `bench` and criterion 5 time, built as
        # `bench` builds them at its defaults, take the unshifted path
        # (perfbench makes its models the same way)
        rng = make_rng(0)
        vocab = Vocabulary([f"w{i:04d}" for i in range(252)])
        scorer = Scorer(make_bench_models(ModelConfig(vocab_size=len(vocab)), [arch], 0)[arch],
                        vocab)
        cache = build_cache(synthetic_texts(vocab, 1000, 16, rng), scorer)
        for query in synthetic_texts(vocab, 8, 64, rng):
            vecs = scorer.poly_vectors([query]).data
            assert np.linalg.norm(vecs, axis=1).max() * cache.max_norm <= T32

    @staticmethod
    def check(vocab, dtype, tol, m, c, bound=20.0, shifted=False, cache_dtype=None,
              arch="poly", nan=None):
        """Cache rows scaled so that B = max_j |v_j| * max_c |c| is `bound`, with
        rows 0 and 1 against and along the longest context vector, so that
        logits reach -B and +B; `shifted` is the side of the threshold B lies on.
        `nan` puts a NaN into the gold row ("row") or one context vector."""
        base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(17), dtype=dtype)
        context = ["w2 w4 w6 w8 w10 w12", "w1 w9 w3"]
        if arch == "bi":
            scorer = Scorer(base.derive("bi", make_rng(1)), vocab)
            vecs = scorer.context_vector(context).data[None]
        else:
            model = base.derive("poly", make_rng(1), poly_variant="learnt", poly_m=m)
            # unit-scale codes, so the attention is far from uniform
            model.extras["poly.codes"].data[:] = make_rng(m).normal(0.0, 1.0, size=(m, 32))
            scorer = Scorer(model, vocab)
            vecs = scorer.poly_vectors(context).data
            assert vecs.shape[0] == m
        rows = make_rng(m + c).normal(0.0, 1.0, size=(c, 32))
        rows /= np.linalg.norm(rows, axis=1).max()
        longest = vecs[np.linalg.norm(vecs, axis=1).argmax()].astype(np.float64)
        rows[:2] = np.outer([-1.0, 1.0], longest / np.linalg.norm(longest))[:c]
        emb = (rows * (bound / np.linalg.norm(longest))).astype(cache_dtype or dtype)
        gold = c // 2
        if nan == "row":
            emb[gold, 3] = np.nan
        elif nan == "context":  # the encoder rejects NaN, so it enters after the head
            vecs = vecs.copy()
            vecs[m // 2, 3] = np.nan
            scorer.poly_vectors = lambda turns: Tensor(vecs)
        cache = CandidateCache(list(range(c)), [""] * c, emb, "unsaved")
        np.testing.assert_allclose(cache.max_norm, np.linalg.norm(emb, axis=1).max(), rtol=1e-6)
        if arch == "bi":
            res = rank_bi(scorer, context, cache, k=c, gold_id=gold)
            want = emb.astype(np.float64) @ vecs[0].astype(np.float64)
        else:
            b = np.linalg.norm(vecs, axis=1).max() * np.linalg.norm(emb, axis=1).max()
            assert (not b <= shift_threshold(np.result_type(vecs, emb))) == shifted, b
            res = rank_poly(scorer, context, cache, k=c, gold_id=gold)
            want = poly_scores_pooled(vecs.astype(np.float64), emb.astype(np.float64))
        got = np.empty(c)
        for cid, score in res.ranking:
            got[cid] = score
        nans = np.isnan(want)
        assert nans.any() == (nan is not None) and np.array_equal(np.isnan(got), nans)
        err, scale = np.abs(got - want)[~nans], np.abs(want[~nans])
        assert err.max(initial=0) < tol * scale.max(initial=1.0)
        ranking, rank_of_gold = lexsort_rank(np.arange(c), got, c, gold)  # NaN ranks last
        assert [i for i, _ in res.ranking] == [i for i, _ in ranking]
        np.testing.assert_array_equal([s for _, s in res.ranking], [s for _, s in ranking])
        assert res.rank_of_gold == rank_of_gold


class TestRankCross:
    def test_single_candidate(self, world):
        _, _, cross = world
        res = rank_cross(cross, ["w1"], ["w2"], k=1, gold_id=0)
        assert res.rank_of_gold == 1

    def test_deterministic(self, world):
        _, _, cross = world
        cands = texts(make_rng(7), 5)
        a = rank_cross(cross, ["w1 w2"], cands, k=5)
        b = rank_cross(cross, ["w1 w2"], cands, k=5)
        assert a.ranking == b.ranking

    def test_matches_cross_score_oracle(self, world):
        _, _, cross = world
        n = ENCODE_CHUNK + 1  # crosses a chunk boundary
        cands = mixed_texts(make_rng(8), n)
        res = rank_cross(cross, ["w5 w6"], cands, k=n)
        oracle = [cross.score_cross(["w5 w6"], c).item() for c in cands]
        expected = brute_force_rank(list(range(n)), oracle)
        assert [cid for cid, _ in res.ranking] == [cid for cid, _ in expected]
        got = dict(res.ranking)
        assert all(abs(got[cid] - s) < 1e-9 for cid, s in expected)


class TestRank:
    def test_rankers_share_parameter_names(self):
        # all but the pool's: a CandidateCache for bi and poly, strings for cross
        for fn in (rank_bi, rank_poly, rank_cross, rank):
            names = list(inspect.signature(fn).parameters)
            assert names[:2] + names[3:] == ["scorer", "context_turns", "k", "gold_id"], fn

    def test_picks_the_ranker_of_the_model_kind(self, world):
        bi, poly, cross = world
        cands = mixed_texts(make_rng(15), 9)
        for scorer, fn in ((bi, rank_bi), (poly, rank_poly)):
            cache = build_cache(cands, scorer)
            assert rank(scorer, ["w1 w2"], cache, 4, gold_id=3) == \
                fn(scorer, ["w1 w2"], cache, 4, gold_id=3)
        assert rank(cross, ["w1 w2"], cands, 4, gold_id=3) == \
            rank_cross(cross, ["w1 w2"], cands, 4, gold_id=3)

    def test_pretrain_model_rejected(self, vocab):
        model = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)), make_rng(1))
        with pytest.raises(ContractError, match="no ranker"):
            rank(Scorer(model, vocab), ["w1"], ["w2"], 1)


class TestMetrics:
    def res(self, rank):
        return RankResult(ranking=[], rank_of_gold=rank)

    def test_all_rank_one(self):
        results = [self.res(1)] * 5
        assert recall_at_k(results, 1) == 1.0
        assert mrr(results) == 1.0

    def test_hand_arithmetic(self):
        results = [self.res(1), self.res(2), self.res(4)]
        assert mrr(results) == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert recall_at_k(results, 1) == pytest.approx(1 / 3)
        assert recall_at_k(results, 2) == pytest.approx(2 / 3)
        assert recall_at_k(results, 4) == 1.0

    def test_uniform_baseline(self):
        rng = make_rng(9)
        results = [self.res(int(rng.integers(1, 21))) for _ in range(10000)]
        assert recall_at_k(results, 1) == pytest.approx(0.05, abs=0.01)

    def test_recall_monotone_and_bounds(self):
        rng = make_rng(10)
        results = [self.res(int(rng.integers(1, 21))) for _ in range(200)]
        values = [recall_at_k(results, k) for k in range(1, 21)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        m = mrr(results)
        assert recall_at_k(results, 1) <= m <= 1.0
        assert 0.0 < m <= 1.0

    def test_missing_gold_rejected(self):
        with pytest.raises(ContractError):
            mrr([RankResult(ranking=[], rank_of_gold=None)])


class TestCacheFile:
    def test_round_trip_byte_identical(self, world, tmp_path):
        bi, _, _ = world
        cache = build_cache(texts(make_rng(11), 7), bi)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_cache(cache, p1)
        save_cache(load_cache(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_cache(p2).max_norm == load_cache(p1).max_norm

    def test_fields_survive(self, world, tmp_path):
        bi, _, _ = world
        cands = texts(make_rng(12), 4)
        cache = build_cache(cands, bi)
        path = tmp_path / "c.bin"
        save_cache(cache, path)
        back = load_cache(path)
        assert back.strings == cands
        assert back.ids == [0, 1, 2, 3]
        assert back.fingerprint == cache.fingerprint
        assert back.binding == cache.binding == bi.binding
        assert np.abs(back.embeddings - cache.embeddings).max() < 1e-6  # f32 quantization
        assert back.max_norm == pytest.approx(cache.max_norm, rel=1e-6)

    @pytest.mark.parametrize("c", [1, 7])
    def test_loaded_matrix_column_major_owned_writable(self, world, tmp_path, c):
        # at C=1 the [1, H] file view is both C- and F-contiguous
        bi, _, _ = world
        path = tmp_path / "c.bin"
        save_cache(build_cache(texts(make_rng(24), c), bi), path)
        emb = load_cache(path).embeddings
        assert emb.flags.f_contiguous and emb.flags.owndata and emb.flags.writeable

    def test_loads_in_the_scoring_float_width(self, world, tmp_path):
        bi, _, _ = world  # a float64 model
        path = tmp_path / "c.bin"
        save_cache(build_cache(mixed_texts(make_rng(16), 40), bi), path)
        f32, f64 = load_cache(path), load_cache(path, np.float64)
        assert f32.embeddings.dtype == np.float32 and f64.embeddings.dtype == np.float64
        assert f64.embeddings.flags.f_contiguous and f64.embeddings.flags.writeable
        assert np.array_equal(f64.embeddings, f32.embeddings)
        # against the float32 matrix, as float64 ranking read the cache before:
        # a float64 GEMV sums in another order than the mixed product, so
        # scores may move by an ulp while the order stays
        got, want = rank_bi(bi, ["w3 w4"], f64, k=40), rank_bi(bi, ["w3 w4"], f32, k=40)
        assert [i for i, _ in got.ranking] == [i for i, _ in want.ranking]
        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                   for (_, a), (_, b) in zip(got.ranking, want.ranking))

    def test_old_version_is_stale(self, world, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(cache_bytes_reference(build_cache(["w1", "w2"], world[0]), version=1))
        with pytest.raises(OldFormatError, match="polyscore index") as info:
            load_cache(path)
        assert isinstance(info.value, StaleCacheError) and isinstance(info.value, ParseError)

    def test_unbound_cache_is_not_saved(self, world, tmp_path):
        cache = build_cache(["w1"], world[0])
        cache.binding = None
        with pytest.raises(ContractError):
            save_cache(cache, tmp_path / "c.bin")

    def test_trailing_bytes_rejected(self, saved_cache, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(saved_cache + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            load_cache(path)

    @pytest.mark.parametrize("pos", [20, -1], ids=["fingerprint", "candidate_string"])
    def test_undecodable_text_rejected(self, saved_cache, tmp_path, pos):
        raw = bytearray(saved_cache)
        raw[pos] = 0xFF  # never valid in UTF-8
        path = tmp_path / "c.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            load_cache(path)


class TestCacheFormat:
    """The cache bytes match the struct-based writer they replaced."""

    @pytest.fixture
    def cache(self):
        strings = ["plain", "", "café au lait", "日本語のテキスト", "emoji \U0001F600 end"]
        emb = make_rng(21).normal(size=(len(strings), 6)).astype(np.float32)
        return CandidateCache([3, 0, 7, 1, 2**32 - 1], strings, emb, "fp-" + "ä" * 4,
                              ("vocab-" + "ö" * 3, 360, 72))

    def test_writer_matches_reference(self, cache, tmp_path):
        # made from a row-major array, kept column-major, written row-major
        assert cache.embeddings.flags.f_contiguous
        path = tmp_path / "c.bin"
        save_cache(cache, path)
        assert path.read_bytes() == cache_bytes_reference(cache)

    def test_reference_file_loads(self, cache, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(cache_bytes_reference(cache))
        back = load_cache(path)
        assert (back.ids, back.strings, back.fingerprint, back.binding) == \
            (cache.ids, cache.strings, cache.fingerprint, cache.binding)
        assert back.embeddings.dtype == np.float32
        assert np.array_equal(back.embeddings, cache.embeddings)


@pytest.fixture(scope="module")
def saved_cache(world, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "c.bin"
    save_cache(build_cache(texts(make_rng(14), 3), world[0]), path)
    return path.read_bytes()


class TestCacheFuzz:
    """A damaged cache either loads or raises ParseError, never anything
    else; a truncated one always raises ParseError."""

    @given(cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation(self, tmp_path, saved_cache, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(saved_cache[:cut % len(saved_cache)])
        with pytest.raises(ParseError):
            load_cache(path)

    @given(pos=st.integers(min_value=0, max_value=10**6),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_byte_flip(self, tmp_path, saved_cache, pos, flip):
        raw = bytearray(saved_cache)
        raw[pos % len(raw)] ^= flip
        path = tmp_path / "flip.bin"
        path.write_bytes(bytes(raw))
        try:
            load_cache(path)
        except ParseError:
            pass
