"""Workload definitions and seeded input generation.

Every input is made here from the run's seed. Nothing goes through
`polyscore.synth` or `polyscore.bench`, so later changes to those modules
cannot move the workloads. The program only ever sees the generated text.

Each workload runs every measured path (index build, cached serving, cross
reranking, fine-tuning and pre-training) so that every end-to-end metric is
reported on every workload; what differs is the input population and the
share of the run each path gets. The `why` of each workload says which layer
it is meant to stress and what a change to that layer should do to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from polyscore.text import Example

LEXICON_SIZE = 400  # distinct words the generator draws from
ZIPF_EXPONENT = 1.0  # word frequencies; the rare tail falls outside the vocabulary

# distinct random streams, so that no two paths or warm-up share a query
_POOL, _TRAIN, _QUERY, _SHORTLIST, _LEXICON = range(5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cache_size: int  # candidates in the index, all served from one cache
    candidate_words: tuple[int, int]  # inclusive range, words per candidate
    context_turns: tuple[int, int]  # inclusive range, turns per query context
    context_words: tuple[int, int]  # inclusive range, words over all turns
    cross_shortlist: int  # candidates the cross-encoder reranks per query
    cached_share: float  # shares of the timed region per path
    cross_share: float
    train_share: float
    index_share: float
    train_examples: int = 400


WORKLOADS = {
    # Retrieval dominates: at C=10000 the cache matmul, the poly attention and
    # the top-k over 10000 scores outweigh an 8-token context encode (bi
    # ~1.8 ms/query, of which top-k ~1.1 ms; poly:360 ~24 ms, nearly all cache
    # attention). Retrieval changes show here; encoder changes barely move
    # query latency but do move index throughput (10000 encodes in set-up).
    "serve-bigcache": Workload(
        name="serve-bigcache",
        why="10000-candidate cache, short contexts: retrieval (cache matmul, "
            "poly attention, top-k) dominates query latency",
        cache_size=10000, candidate_words=(14, 18), context_turns=(1, 2),
        context_words=(6, 9), cross_shortlist=16,
        cached_share=0.35, cross_share=0.10, train_share=0.40, index_share=0.15,
    ),
    # The encoder and tokenizer dominate: 48-120-word contexts over 3-6 turns
    # (most truncate at the 64-position cap) make the context encode
    # ~1.2-1.4 ms of a 1.3-2.8 ms cached query against only 1000 rows, and
    # cross runs 64 full joint forwards per query. Encoder and batching
    # changes show here; top-k changes should not move these numbers.
    "rerank-longctx": Workload(
        name="rerank-longctx",
        why="long 3-6 turn contexts, 1000-candidate cache, cross reranks 64: "
            "encoder and tokenizer dominate",
        cache_size=1000, candidate_words=(14, 18), context_turns=(3, 6),
        context_words=(48, 120), cross_shortlist=64,
        cached_share=0.15, cross_share=0.35, train_share=0.35, index_share=0.15,
    ),
    # Training runs the same encoder with a tape: forward, backward and the
    # optimizer make up a step. An inference-only change (batched forward,
    # weights loaded without gradients) that slows training shows here.
    "train-finetune": Workload(
        name="train-finetune",
        why="fine-tuning bi/poly:16/cross and pre-training on overlap-style "
            "examples: the encoder under a tape, backward and optimizer",
        cache_size=1000, candidate_words=(6, 10), context_turns=(2, 3),
        context_words=(8, 24), cross_shortlist=16,
        cached_share=0.15, cross_share=0.10, train_share=0.65, index_share=0.10,
    ),
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *stream]))


class Inputs:
    """Everything one run feeds the program, derived from (workload, seed).

    The candidate pool and training examples are built eagerly; queries and
    cross shortlists are made on demand from their index, so a run never
    serves the same query twice however long it lasts.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = _rng(seed, _LEXICON)
        self.words = [f"t{i:03d}" for i in rng.permutation(LEXICON_SIZE)]
        ranks = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64)
        p = ranks ** -ZIPF_EXPONENT
        self._p = p / p.sum()
        pool_rng = _rng(seed, _POOL)
        self.pool = [self._sentence(pool_rng, *workload.candidate_words)
                     for _ in range(workload.cache_size)]
        train_rng = _rng(seed, _TRAIN)
        self.train = [self._example(train_rng) for _ in range(workload.train_examples)]

    def _words(self, rng, n: int) -> list[str]:
        return [self.words[int(i)] for i in rng.choice(LEXICON_SIZE, size=n, p=self._p)]

    def _sentence(self, rng, lo: int, hi: int) -> str:
        return " ".join(self._words(rng, int(rng.integers(lo, hi + 1))))

    def _context(self, rng) -> tuple[str, ...]:
        w = self.workload
        turns = int(rng.integers(w.context_turns[0], w.context_turns[1] + 1))
        total = max(turns, int(rng.integers(w.context_words[0], w.context_words[1] + 1)))
        cuts = np.sort(rng.choice(np.arange(1, total), size=turns - 1, replace=False))
        words = self._words(rng, total)
        bounds = [0, *cuts.tolist(), total]
        return tuple(" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:]))

    def _example(self, rng) -> Example:
        """Overlap-style pair: the gold reuses about half its words from the context."""
        context = self._context(rng)
        ctx_words = " ".join(context).split()
        n = int(rng.integers(self.workload.candidate_words[0],
                             self.workload.candidate_words[1] + 1))
        shared = min(len(ctx_words), n // 2)
        picked = [ctx_words[int(i)] for i in rng.choice(len(ctx_words), size=shared,
                                                         replace=False)]
        gold = picked + self._words(rng, n - shared)
        rng.shuffle(gold)
        return Example(context=context, candidates=(" ".join(gold),), label_index=0)

    def query(self, stream: int, j: int) -> tuple[str, ...]:
        """Context turns of query j of one query stream (one per path and warm-up)."""
        return self._context(_rng(self.seed, _QUERY, stream, j))

    def shortlist(self, stream: int, j: int) -> list[str]:
        """The cross-encoder's candidates for query j: distinct pool entries."""
        rng = _rng(self.seed, _SHORTLIST, stream, j)
        idx = rng.choice(len(self.pool), size=self.workload.cross_shortlist, replace=False)
        return [self.pool[int(i)] for i in idx]
