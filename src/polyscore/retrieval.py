"""Candidate-embedding cache, exact brute-force ranking and IR metrics.

Bi/Poly score against precomputed candidate embeddings; Cross re-encodes
every (context, candidate) pair. Cache builds and cross reranks encode in
padded batches. All scoring is exact - no approximate nearest-neighbor
shortcuts. Poly final attention over the cache is batched
as one matrix pass per query rather than a per-candidate loop.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, ShapeError, StaleCacheError
from .model import Scorer

# Sequences per batched encoder forward in build_cache and rank_cross: large
# enough that per-op interpreter cost is amortised, small enough that the
# [B, heads, L, L] attention arrays stay a few MB for thousands of candidates.
ENCODE_CHUNK = 64

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

    def __post_init__(self):
        if self.embeddings.ndim != 2 or len(self.ids) != self.embeddings.shape[0]:
            raise ShapeError(
                f"cache rows {self.embeddings.shape} do not match {len(self.ids)} ids"
            )

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


def _order(ids, scores) -> np.ndarray:
    # lexsort: last key is primary, so order by descending score then ascending id
    return np.lexsort((np.asarray(ids), -np.asarray(scores)))


def _result(ids, scores, k: int, gold_id) -> RankResult:
    if not 1 <= k <= len(ids):
        raise ContractError(f"k={k} out of range for {len(ids)} candidates")
    order = _order(ids, scores)
    ranking = [(int(ids[i]), float(scores[i])) for i in order[:k]]
    rank_of_gold = None
    if gold_id is not None:
        positions = np.nonzero(np.asarray(ids)[order] == gold_id)[0]
        if positions.size == 0:
            raise ContractError(f"gold id {gold_id} not among the candidates")
        rank_of_gold = int(positions[0]) + 1
    return RankResult(ranking, rank_of_gold)


def _softmax_rows_in_place(x: np.ndarray) -> np.ndarray:
    """Row softmax of x, computed in x's own buffer: at C x m' = 1000 x 360
    each temporary would be another 1.4 MB to allocate and page in."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def rank_bi(scorer: Scorer, context_turns, cache: CandidateCache, k: int,
            gold_id=None) -> RankResult:
    """Dot-product of the context vector against every cached row."""
    _check_fresh(cache, scorer)
    y = scorer.context_vector(context_turns).data
    scores = cache.embeddings @ y
    return _result(cache.ids, scores, k, gold_id)


def rank_poly(scorer: Scorer, context_turns, cache: CandidateCache, k: int,
              gold_id=None) -> RankResult:
    """Candidate-as-query attention over the context vectors, batched across
    the whole cache in single matrix passes."""
    _check_fresh(cache, scorer)
    vecs = scorer.poly_vectors(context_turns).data  # [m', H]
    attn = _softmax_rows_in_place(cache.embeddings @ vecs.T)  # [C, m']
    pooled = attn @ vecs  # [C, H]
    scores = np.einsum("ch,ch->c", pooled, cache.embeddings)
    return _result(cache.ids, scores, k, gold_id)


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
    blob = bytearray()
    blob += CACHE_MAGIC
    blob += struct.pack("<I", CACHE_VERSION)
    fp = cache.fingerprint.encode()
    blob += struct.pack("<I", len(fp))
    blob += fp
    c, hidden = cache.embeddings.shape
    blob += struct.pack("<II", c, hidden)
    blob += np.ascontiguousarray(cache.embeddings, dtype="<f4").tobytes()
    for cid, s in zip(cache.ids, cache.strings):
        sb = s.encode()
        blob += struct.pack("<II", cid, len(sb))
        blob += sb
    with open(path, "wb") as f:
        f.write(bytes(blob))


def load_cache(path) -> CandidateCache:
    with open(path, "rb") as f:
        raw = f.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(raw):
            raise ParseError(f"{path}: cache truncated while reading {what}")
        piece = raw[off:off + n]
        off += n
        return piece

    if take(len(CACHE_MAGIC), "magic") != CACHE_MAGIC:
        raise ParseError(f"{path}: not a cache file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CACHE_VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    (fplen,) = struct.unpack("<I", take(4, "fingerprint length"))
    fingerprint = take(fplen, "fingerprint").decode()
    c, hidden = struct.unpack("<II", take(8, "dimensions"))
    emb = np.frombuffer(take(4 * c * hidden, "embeddings"), dtype="<f4").reshape(c, hidden)
    ids, strings = [], []
    for _ in range(c):
        cid, slen = struct.unpack("<II", take(8, "id/string header"))
        ids.append(cid)
        strings.append(take(slen, "candidate string").decode())
    return CandidateCache(ids, strings, emb.copy(), fingerprint)
