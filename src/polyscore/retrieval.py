"""Candidate-embedding cache, exact brute-force ranking and IR metrics.

Bi/Poly score against precomputed candidate embeddings; Cross re-encodes every
(context, candidate) pair. Cache builds and cross reranks encode in padded
batches. All scoring is exact - no approximate nearest-neighbor shortcuts.
Poly attends over the cache in [m', rows] blocks of cache rows, small enough
to stay in cache: softmax max and sum are m' vectorised passes over a block's
logits. A row's score, sum w*l / sum w over its m' logits l, equals its dot
product with the attention-pooled vector. Top k is exact in O(C) plus a sort
of about k: a partition finds the k-th best score, and only rows scoring at
least that (ties included) are sorted, by descending score then ascending id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError, StaleCacheError
from .model import Scorer
from .records import RecordReader, RecordWriter

# Sequences per batched encoder forward in build_cache and rank_cross: large
# enough that per-op interpreter cost is amortised, small enough that the
# [B, heads, L, L] attention arrays stay a few MB for thousands of candidates.
ENCODE_CHUNK = 64

# Elements of one block's [m', rows] logits (and as many weights): rank_poly
# scores this // m' cache rows per pass, 364 at m'=360 and 8192 at m'=16.
POLY_BLOCK_ELEMENTS = 1 << 17

CACHE_MAGIC = b"PLYCACHE"
CACHE_VERSION = 1
NO_FINGERPRINT = "unsaved"


@dataclass
class CandidateCache:
    """Precomputed candidate embeddings, row i belongs to ids[i]."""

    ids: list[int]
    strings: list[str]
    embeddings: np.ndarray  # [C, hidden]
    fingerprint: str
    # ids as an int64 array for ranking, made once: replace the cache, not its ids
    id_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.embeddings.ndim != 2 or len(self.ids) != self.embeddings.shape[0]:
            raise ShapeError(
                f"cache rows {self.embeddings.shape} do not match {len(self.ids)} ids"
            )
        self.id_array = np.asarray(self.ids, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class RankResult:
    """Scored candidates, descending score with ties broken by ascending id."""

    ranking: list[tuple[int, float]]
    rank_of_gold: int | None = None


def _model_fingerprint(scorer: Scorer) -> str:
    return scorer.model.fingerprint or NO_FINGERPRINT


def _chunks(items: list) -> list[list]:
    return [items[i:i + ENCODE_CHUNK] for i in range(0, len(items), ENCODE_CHUNK)]


def build_cache(candidates: list[str], scorer: Scorer) -> CandidateCache:
    """Encode every candidate once through the candidate-side encoder, in
    padded batches of ENCODE_CHUNK."""
    if not candidates:
        raise ContractError("cannot build a cache from an empty candidate list")
    emb = np.concatenate([scorer.candidate_vectors(chunk).data for chunk in _chunks(candidates)])
    return CandidateCache(list(range(len(candidates))), list(candidates), emb,
                          _model_fingerprint(scorer))


def _check_fresh(cache: CandidateCache, scorer: Scorer):
    fp = _model_fingerprint(scorer)
    if cache.fingerprint != fp:
        raise StaleCacheError(
            f"cache was built from checkpoint {cache.fingerprint[:12]}..., "
            f"scoring model is {fp[:12]}..."
        )


def _rank_of(ids: np.ndarray, scores: np.ndarray, gold_id) -> int:
    """1-based position of gold_id's best row in the full order, by counting."""
    gold = scores[ids == gold_id]
    if gold.size == 0:
        raise ContractError(f"gold id {gold_id} not among the candidates")
    g = np.fmax.reduce(gold)  # NaN only when every gold row scores NaN
    nan = np.isnan(scores)
    ahead, tied = (~nan, nan) if np.isnan(g) else (scores > g, scores == g)
    return 1 + int(np.count_nonzero(ahead)) + int(np.count_nonzero(tied & (ids < gold_id)))


def _result(ids, scores: np.ndarray, k: int, gold_id) -> RankResult:
    ids = np.asarray(ids)
    if not 1 <= k <= len(ids):
        raise ContractError(f"k={k} out of range for {len(ids)} candidates")
    neg = -scores  # ascending order of -scores puts NaN last, as a full lexsort does
    kth = np.partition(neg, k - 1)[k - 1]
    near = np.arange(len(neg)) if np.isnan(kth) else np.flatnonzero(neg <= kth)
    top = near[np.lexsort((ids[near], neg[near]))[:k]]
    ranking = list(zip(ids[top].tolist(), scores[top].tolist()))
    return RankResult(ranking, None if gold_id is None else _rank_of(ids, scores, gold_id))


def rank_bi(scorer: Scorer, context_turns, cache: CandidateCache, k: int,
            gold_id=None) -> RankResult:
    """Dot-product of the context vector against every cached row."""
    _check_fresh(cache, scorer)
    y = scorer.context_vector(context_turns).data
    scores = cache.embeddings @ y
    return _result(cache.id_array, scores, k, gold_id)


def rank_poly(scorer: Scorer, context_turns, cache: CandidateCache, k: int,
              gold_id=None) -> RankResult:
    """Candidate-as-query attention over the context vectors, batched across
    blocks of cache rows in single matrix passes."""
    _check_fresh(cache, scorer)
    vecs = scorer.poly_vectors(context_turns).data  # [m', H]
    rows = max(1, POLY_BLOCK_ELEMENTS // vecs.shape[0])
    parts = []
    for start in range(0, cache.size, rows):
        logits = vecs @ cache.embeddings[start:start + rows].T  # [m', rows]
        w = logits - logits.max(axis=0)
        np.exp(w, out=w)
        logits *= w
        parts.append(logits.sum(axis=0) / w.sum(axis=0))
    return _result(cache.id_array, np.concatenate(parts), k, gold_id)


def rank_cross(scorer: Scorer, context_turns, candidates: list[str], k: int,
               gold_index=None) -> RankResult:
    """A full joint forward per (context, candidate) pair, run as padded
    batches of ENCODE_CHUNK pairs; nothing cacheable here beyond the context's
    token ids, which are computed once per query."""
    if not candidates:
        raise ContractError("rank_cross needs at least one candidate")
    pairs = scorer.cross_pairs(context_turns, list(candidates))
    scores = np.concatenate([scorer.cross_scores(chunk).data for chunk in _chunks(pairs)])
    return _result(np.arange(len(candidates)), scores, k, gold_index)


def recall_at_k(results: list[RankResult], k: int) -> float:
    """Fraction of results whose gold candidate ranks in the top k."""
    _need_gold(results)
    return sum(1 for r in results if r.rank_of_gold <= k) / len(results)


def mrr(results: list[RankResult]) -> float:
    """Mean reciprocal rank of the gold candidate."""
    _need_gold(results)
    return sum(1.0 / r.rank_of_gold for r in results) / len(results)


def _need_gold(results):
    if not results:
        raise ContractError("no rank results to aggregate")
    if any(r.rank_of_gold is None for r in results):
        raise ContractError("every rank result needs rank_of_gold for metrics")


# ---- cache file format ----


def save_cache(cache: CandidateCache, path) -> None:
    """Header (fingerprint, C, hidden), float32 LE matrix, then the id/string table."""
    w = RecordWriter(CACHE_MAGIC, CACHE_VERSION)
    w.text(cache.fingerprint)
    w.u32(*cache.embeddings.shape)
    w.floats(cache.embeddings, "<f4")
    w.u32_texts(cache.ids, cache.strings)
    w.save(path)


def load_cache(path) -> CandidateCache:
    """Read a cache written by save_cache; any malformed file raises ParseError."""
    r = RecordReader(path, CACHE_MAGIC, CACHE_VERSION, "cache")
    fingerprint = r.text("fingerprint")
    c, hidden = r.u32("candidate count"), r.u32("hidden size")
    emb = r.floats(c * hidden, "<f4", "embeddings").reshape(c, hidden)
    ids, strings = r.u32_texts(c, "candidate id and string")
    r.end()
    return CandidateCache(ids, strings, emb.copy(), fingerprint)
