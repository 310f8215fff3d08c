"""Vocabulary, tokenization and dataset ingestion.

Tokenization is lowercase whitespace word-level. Dialogue context turns are
flattened into one token stream joined by the ordinary vocab word
``__turn__``; truncation always keeps the most recent context tokens.
Encoding gives one unpadded TokenizedPair per sequence; TokenBatch.of pads a
list of them into the [B, L] arrays the encoder takes, so one sequence is a
batch of one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ContractError, ParseError

PAD_ID = 0
S_ID = 1
MASK_ID = 2
UNK_ID = 3
RESERVED = ("<pad>", "<s>", "<mask>", "<unk>")
TURN_SEP = "__turn__"


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def flatten_context(turns: list[str]) -> str:
    """Join dialogue turns into one string with the turn separator word."""
    return f" {TURN_SEP} ".join(turns)


class Vocabulary:
    """Dense token ids with four reserved slots (PAD=0, S=1, MASK=2, UNK=3)."""

    def __init__(self, words: list[str]):
        self._id_to_token = list(RESERVED) + list(words)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ContractError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        get = self._token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def save(self, path) -> None:
        """One non-reserved token per line; line number = id - 4."""
        with open(path, "w", encoding="utf-8") as f:
            for token in self._id_to_token[len(RESERVED):]:
                f.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        words = [line.rstrip("\n") for line in read_lines(path)]
        return cls([w for w in words if w])


def read_lines(path) -> Iterator[str]:
    """Lines of a UTF-8 text file; anything else raises ParseError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from f
    except (UnicodeDecodeError, IsADirectoryError) as e:
        raise ParseError(f"{path}: not a UTF-8 text file ({e})") from e


def build_vocab(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Frequency-ordered word vocab; ties broken lexicographically.

    `max_size` counts the four reserved ids.
    """
    if max_size < 5:
        raise ContractError(f"max_size must be >= 5, got {max_size}")
    counts = Counter()
    seen_any = False
    for line in corpus:
        seen_any = True
        counts.update(tokenize(line))
    if not seen_any:
        raise ParseError("empty corpus: no lines to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    words = [w for w, _ in ranked[: max_size - len(RESERVED)]]
    return Vocabulary(words)


@dataclass(frozen=True)
class TokenizedPair:
    """Aligned token and segment ids of one encoder input, unpadded; the
    encoder takes a list of them padded by TokenBatch.of."""

    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_ids)


def encode_pair(input_text: str, label_text: str, vocab: Vocabulary, max_len: int) -> TokenizedPair:
    """Layout [S, input..., S, label...] within max_len.

    The input side is truncated first (oldest tokens dropped); if the label
    alone still does not fit, its tail is cut.
    """
    return encode_pairs(input_text, [label_text], vocab, max_len)[0]


def encode_pairs(input_text: str, label_texts: list[str], vocab: Vocabulary,
                 max_len: int) -> list[TokenizedPair]:
    """encode_pair(input_text, label, vocab, max_len) for each label in turn,
    tokenizing the input once."""
    if max_len < 4:
        raise ContractError(f"max_len must be >= 4, got {max_len}")
    inp = vocab.encode_tokens(tokenize(input_text))
    budget = max_len - 2
    pairs = []
    for label_text in label_texts:
        lab = vocab.encode_tokens(tokenize(label_text))
        keep_inp = min(len(inp), max(budget - len(lab), 1 if inp else 0))
        keep_lab = min(len(lab), budget - keep_inp)
        kept = inp[len(inp) - keep_inp:]
        ids = [S_ID] + kept + [S_ID] + lab[:keep_lab]
        segments = [0] * (1 + len(kept)) + [1] * (1 + keep_lab)
        pairs.append(TokenizedPair(tuple(ids), tuple(segments)))
    return pairs


def encode_single(text: str, vocab: Vocabulary, max_len: int) -> TokenizedPair:
    """One-side encoding [S, tokens...], all in segment 0."""
    if max_len < 2:
        raise ContractError(f"max_len must be >= 2, got {max_len}")
    toks = vocab.encode_tokens(tokenize(text))
    ids = (S_ID, *toks[max(0, len(toks) - (max_len - 1)):])
    return TokenizedPair(ids, (0,) * len(ids))


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """B encoder inputs as [B, L] arrays, each row right-padded to the longest
    one with PAD tokens, pad_mask False and the row's last segment id; every
    row's positions are 0..L-1. len() counts every token slot, pads included,
    and n_real the non-pad ones."""

    token_ids: np.ndarray
    segment_ids: np.ndarray
    pad_mask: np.ndarray

    @classmethod
    def of(cls, pairs: list[TokenizedPair]) -> "TokenBatch":
        if not pairs:
            raise ContractError("a batch needs at least one sequence")
        length = max(len(tp) for tp in pairs)
        shape = (len(pairs), length)
        token_ids = np.full(shape, PAD_ID, dtype=np.int64)
        last_segments = np.array([tp.segment_ids[-1] for tp in pairs], dtype=np.int64)
        segment_ids = np.repeat(last_segments[:, None], length, axis=1)
        pad_mask = np.zeros(shape, dtype=bool)
        for row, tp in enumerate(pairs):
            n = len(tp)
            token_ids[row, :n] = tp.token_ids
            segment_ids[row, :n] = tp.segment_ids
            pad_mask[row, :n] = True
        return cls(token_ids, segment_ids, pad_mask)

    def __len__(self) -> int:
        return self.token_ids.size

    @property
    def n_real(self) -> int:
        return int(np.count_nonzero(self.pad_mask))


@dataclass(frozen=True)
class Example:
    """One (context, candidates, gold index) selection example."""

    context: tuple[str, ...]
    candidates: tuple[str, ...]
    label_index: int

    @property
    def gold(self) -> str:
        return self.candidates[self.label_index]

    @property
    def context_text(self) -> str:
        return flatten_context(list(self.context))


def parse_example(obj, where: str) -> Example:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for field in ("context", "candidates", "label"):
        if field not in obj:
            raise ParseError(f"{where}: missing field '{field}'")
    context = obj["context"]
    candidates = obj["candidates"]
    label = obj["label"]
    if not isinstance(context, list) or not all(isinstance(t, str) for t in context):
        raise ParseError(f"{where}: 'context' must be an array of strings")
    if not isinstance(candidates, list) or not candidates or not all(
        isinstance(c, str) for c in candidates
    ):
        raise ParseError(f"{where}: 'candidates' must be a non-empty array of strings")
    if not isinstance(label, int) or isinstance(label, bool) or not 0 <= label < len(candidates):
        raise ParseError(
            f"{where}: 'label' must be an integer in [0, {len(candidates)}), got {label!r}"
        )
    return Example(tuple(context), tuple(candidates), label)


def load_jsonl(path) -> Iterator[Example]:
    """Stream Examples from a JSON-lines file; errors carry line numbers."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
        yield parse_example(obj, f"{path}:{lineno}")


def example_token_stream(examples: Iterable[Example]) -> Iterator[str]:
    """Text stream for vocabulary building: flattened contexts plus candidates."""
    for ex in examples:
        yield ex.context_text
        for cand in ex.candidates:
            yield cand
