"""Candidate-embedding cache, exact brute-force ranking and IR metrics.

Bi/Poly score against precomputed candidate embeddings; Cross re-encodes every
(context, candidate) pair. Cache builds and cross reranks encode in padded
batches. All scoring is exact - no approximate nearest-neighbor shortcuts.
The cache is column-major in memory (row-major on disk), so poly's [m', rows]
logits for a block of cache rows are a plain GEMM into buffers reused across
blocks and small enough to stay in cache; both softmax column sums are GEMVs. A
row's score, sum w*l / sum w over its m' logits l (`tensor.softmax_mean`), is
its dot product with the attention-pooled vector. By Cauchy-Schwarz, |l| <= B =
max_j |v_j| * max_c |c|; while B <= T = ln(1/tiny)/2 (43.7 in float32, 354 in
float64), every e^l and both sums are normal and finite, so softmax skips its
max shift, which runs when B > T or B is not finite. Top k is exact in O(C)
plus a sort of about k: a partition finds the k-th best score, and only rows
scoring at least that (ties included) are sorted, by descending score then
ascending id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError, StaleCacheError
from .model import Scorer
from .records import RecordReader, RecordWriter
from .tensor import softmax_mean

# Sequences per batched encoder forward in build_cache and rank_cross: large
# enough that per-op interpreter cost is amortised, small enough that the
# [B, heads, L, L] attention arrays stay a few MB for thousands of candidates.
ENCODE_CHUNK = 64

# Elements of one block's [m', rows] logits (and as many weights): rank_poly
# scores this // m' cache rows per pass, 364 at m'=360 and 8192 at m'=16.
POLY_BLOCK_ELEMENTS = 1 << 17

CACHE_MAGIC = b"PLYCACHE"
CACHE_VERSION = 2
NO_FINGERPRINT = "unsaved"
REBUILD = "rebuild it with `polyscore index`"


@dataclass
class CandidateCache:
    """Precomputed candidate embeddings, row i belongs to ids[i], column-major in memory."""

    ids: list[int]
    strings: list[str]
    embeddings: np.ndarray  # [C, hidden], column-major
    fingerprint: str
    binding: tuple | None = None  # Scorer.binding it was built under; None: unchecked
    # made once for ranking: replace the cache, not its ids or rows
    id_array: np.ndarray = field(init=False, repr=False, compare=False)  # ids as int64
    max_norm: float = field(init=False, repr=False, compare=False)  # largest row norm

    def __post_init__(self):
        if self.embeddings.ndim != 2 or len(self.ids) != self.embeddings.shape[0]:
            raise ShapeError(
                f"cache rows {self.embeddings.shape} do not match {len(self.ids)} ids"
            )
        e = self.embeddings = np.asfortranarray(self.embeddings)
        self.id_array = np.asarray(self.ids, dtype=np.int64)
        self.max_norm = float(np.sqrt(np.einsum("ch,ch->c", e, e).max(initial=0)))

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
    """ceil(n / ENCODE_CHUNK) chunks of near-equal size, none a lone row of a
    longer list: numpy multiplies one row by GEMV, which rounds apart from GEMM."""
    n = -(-len(items) // ENCODE_CHUNK)
    ends = [len(items) * i // n for i in range(n + 1)]
    return [items[a:b] for a, b in zip(ends, ends[1:])]


def build_cache(candidates: list[str], scorer: Scorer) -> CandidateCache:
    """Encode every candidate once through the candidate-side encoder, in
    padded batches (see _chunks), written into one column-major matrix."""
    if not candidates:
        raise ContractError("cannot build a cache from an empty candidate list")
    tower = scorer.model.candidate_tower()
    emb = np.empty((len(candidates), tower.cfg.hidden), tower.dtype, order="F")
    row = 0
    for chunk in _chunks(candidates):
        emb[row:row + len(chunk)] = scorer.candidate_vectors(chunk).data
        row += len(chunk)
    return CandidateCache(list(range(len(candidates))), list(candidates), emb,
                          _model_fingerprint(scorer), scorer.binding)


def _check_fresh(cache: CandidateCache, scorer: Scorer):
    fp = _model_fingerprint(scorer)
    if cache.fingerprint != fp:
        raise StaleCacheError(
            f"cache was built from checkpoint {cache.fingerprint[:12]}..., "
            f"scoring model is {fp[:12]}..."
        )
    if cache.binding not in (None, scorer.binding):
        raise StaleCacheError("cache was built under another vocabulary or other encode caps; "
                              f"{REBUILD}")


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
    blocks of cache rows in single matrix passes: `softmax_mean` of each
    block's logits under the bound B = max_j |v_j| * cache.max_norm."""
    _check_fresh(cache, scorer)
    vecs = scorer.poly_vectors(context_turns).data  # [m', H]
    rows = max(1, min(cache.size, POLY_BLOCK_ELEMENTS // len(vecs)))
    dtype = np.result_type(vecs, cache.embeddings)
    logits, w = np.empty((2, len(vecs), rows), dtype)  # reused by every block
    scores = np.empty(cache.size, dtype)
    bound = float(np.sqrt(np.einsum("mh,mh->m", vecs, vecs).max())) * cache.max_norm
    for start in range(0, cache.size, rows):
        block = cache.embeddings[start:start + rows].T  # a strided [H, rows] view
        lg, wt = logits[:, :block.shape[1]], w[:, :block.shape[1]]
        softmax_mean(np.matmul(vecs, block, out=lg), wt, bound, out=scores[start:start + rows])
    return _result(cache.id_array, scores, k, gold_id)


def rank_cross(scorer: Scorer, context_turns, candidates: list[str], k: int,
               gold_id=None) -> RankResult:
    """A full joint forward per (context, candidate) pair, run as padded
    batches of at most ENCODE_CHUNK pairs; nothing cacheable here beyond the context's
    token ids, which are computed once per query. A candidate's id is its
    position in `candidates`."""
    if not candidates:
        raise ContractError("rank_cross needs at least one candidate")
    pairs = scorer.cross_pairs(context_turns, list(candidates))
    scores = np.concatenate([scorer.cross_scores(chunk).data for chunk in _chunks(pairs)])
    return _result(np.arange(len(candidates)), scores, k, gold_id)


def rank(scorer: Scorer, context_turns, pool, k: int, gold_id=None) -> RankResult:
    """Rank `pool` with the ranker of the scorer's model kind: rank_bi or
    rank_poly over a CandidateCache, rank_cross over a list of candidate
    strings. The rankers are looked up when called, so a rebound module
    attribute (a tracing wrapper, say) is the one that runs."""
    rankers = {"bi": rank_bi, "poly": rank_poly, "cross": rank_cross}
    if scorer.model.kind not in rankers:
        raise ContractError(f"no ranker for a {scorer.model.kind} model")
    return rankers[scorer.model.kind](scorer, context_turns, pool, k, gold_id)


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
    """Header (fingerprint, vocabulary hash, context and candidate caps, C,
    hidden), float32 LE matrix, then the id/string table."""
    if cache.binding is None:
        raise ContractError("a cache file needs the binding of the Scorer that built it")
    w = RecordWriter(CACHE_MAGIC, CACHE_VERSION)
    w.text(cache.fingerprint)
    w.text(cache.binding[0])
    w.u32(*cache.binding[1:])
    w.u32(*cache.embeddings.shape)
    w.floats(cache.embeddings, "<f4")
    w.u32_texts(cache.ids, cache.strings)
    w.save(path)


def load_cache(path, dtype=np.float32) -> CandidateCache:
    """Read a cache written by save_cache, its matrix cast once to `dtype`
    (the scoring model's float width); any malformed file raises ParseError,
    one of an older version its OldFormatError subclass."""
    r = RecordReader(path, CACHE_MAGIC, CACHE_VERSION, "cache", REBUILD)
    fingerprint = r.text("fingerprint")
    binding = (r.text("vocabulary hash"), r.u32("context cap"), r.u32("candidate cap"))
    c, hidden = r.u32("candidate count"), r.u32("hidden size")
    # a writable copy: asfortranarray keeps the read-only view of a 1xH matrix
    emb = np.array(r.floats(c * hidden, "<f4", "embeddings").reshape(c, hidden), dtype,
                   order="F")
    ids, strings = r.u32_texts(c, "candidate id and string")
    r.end()
    return CandidateCache(ids, strings, emb, fingerprint, binding)
