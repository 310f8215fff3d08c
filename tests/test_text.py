"""Vocabulary, encoding and dataset ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscore.errors import ContractError, ParseError
from polyscore.text import (
    MASK_ID,
    PAD_ID,
    S_ID,
    UNK_ID,
    Example,
    TokenBatch,
    TokenizedPair,
    Vocabulary,
    build_vocab,
    encode_pair,
    encode_single,
    example_token_stream,
    flatten_context,
    load_jsonl,
)

from oracles import pad_to


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary(["a"])
        assert (PAD_ID, S_ID, MASK_ID, UNK_ID) == (0, 1, 2, 3)
        assert v.encode_tokens(["a"]) == [4]

    def test_frequency_order_with_reserved_offset(self):
        v = build_vocab(["a b a"], 10)
        assert v.encode_tokens(["a", "b"]) == [4, 5]

    def test_max_size_truncates(self):
        v = build_vocab(["a b a", "c c c c"], 5)
        assert len(v) == 5  # 4 reserved + 1 word
        assert v.encode_tokens(["c"]) == [4]  # most frequent survives

    def test_ties_broken_lexicographically(self):
        v = build_vocab(["z y x"], 10)
        assert v.encode_tokens(["x", "y", "z"]) == [4, 5, 6]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ParseError):
            build_vocab([], 10)

    def test_max_size_floor(self):
        with pytest.raises(ContractError):
            build_vocab(["a"], 4)

    def test_determinism_across_builds(self, rng):
        words = [f"t{i}" for i in range(200)]
        lines = [" ".join(words[int(i)] for i in rng.integers(0, 200, size=12))
                 for _ in range(300)]
        v1 = build_vocab(lines, 150)
        v2 = build_vocab(lines, 150)
        assert all(v1.token_of(i) == v2.token_of(i) for i in range(len(v1)))

    def test_round_trip_identity(self):
        v = build_vocab(["alpha beta gamma"], 10)
        tokens = ["alpha", "beta", "gamma"]
        assert [v.token_of(i) for i in v.encode_tokens(tokens)] == tokens

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab(["a b c a"], 10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        v2 = Vocabulary.load(path)
        assert len(v2) == len(v)
        assert all(v2.token_of(i) == v.token_of(i) for i in range(len(v)))
        # line number = id - 4
        lines = path.read_text().splitlines()
        assert lines[0] == v.token_of(4)


@pytest.fixture
def vocab():
    return Vocabulary(["hi", "yo", "how", "are", "you", "fine", "thanks", "__turn__"])


class TestEncodePair:
    def test_layout_and_segments(self, vocab):
        tp = encode_pair("hi", "yo", vocab, 16)
        hi, yo = vocab.encode_tokens(["hi", "yo"])
        assert tp.token_ids == (S_ID, hi, S_ID, yo)
        assert tp.segment_ids == (0, 0, 1, 1)
        assert TokenBatch.of([tp]).pad_mask.tolist() == [[True] * 4]

    def test_empty_label(self, vocab):
        tp = encode_pair("hi yo", "", vocab, 16)
        assert tp.token_ids == (S_ID, *vocab.encode_tokens(["hi", "yo"]), S_ID)

    def test_overlong_input_keeps_label(self, vocab):
        text = " ".join(["how"] * 50) + " you"
        tp = encode_pair(text, "fine thanks", vocab, 12)
        assert len(tp) == 12
        # label fully retained, input truncated from the front (oldest dropped)
        fine, thanks, you = vocab.encode_tokens(["fine", "thanks", "you"])
        assert tp.token_ids[-2:] == (fine, thanks)
        assert tp.token_ids[-4] == you  # most recent input token kept

    def test_overlong_label_tail_cut(self, vocab):
        tp = encode_pair("hi", " ".join(["are"] * 30), vocab, 8)
        assert len(tp) == 8
        assert tp.token_ids[1] == vocab.encode_tokens(["hi"])[0]  # input keeps its one token

    def test_unknown_tokens_map_to_unk(self, vocab):
        tp = encode_pair("zzz", "yo", vocab, 8)
        assert tp.token_ids[1] == UNK_ID

    def test_max_len_floor(self, vocab):
        with pytest.raises(ContractError):
            encode_pair("hi", "yo", vocab, 3)

    @given(st.text(alphabet="ab c", max_size=120), st.text(alphabet="xy z", max_size=120),
           st.integers(4, 20))
    @settings(max_examples=300, deadline=None)
    def test_never_exceeds_max_len(self, a, b, max_len):
        v = Vocabulary(["a", "b", "x", "y"])
        tp = encode_pair(a, b, v, max_len)
        assert 2 <= len(tp) <= max_len
        assert len(tp.token_ids) == len(tp.segment_ids)

    def test_concatenation_consistency(self, vocab):
        a, b = "hi how are", "fine thanks"
        pair = encode_pair(a, b, vocab, 32)
        left = encode_single(a, vocab, 32)
        right = encode_single(b, vocab, 32)
        assert pair.token_ids == left.token_ids + right.token_ids
        assert pair.segment_ids == left.segment_ids + (1,) * len(right)

    def test_determinism(self, vocab):
        assert encode_pair("hi yo", "fine", vocab, 10) == encode_pair("hi yo", "fine", vocab, 10)


class TestEncodeSingle:
    def test_basic(self, vocab):
        tp = encode_single("hi", vocab, 8)
        assert tp.token_ids == (S_ID, *vocab.encode_tokens(["hi"]))
        assert tp.segment_ids == (0, 0)

    def test_empty_text(self, vocab):
        tp = encode_single("", vocab, 8)
        assert tp.token_ids == (S_ID,)

    def test_first_token_always_s(self, vocab):
        for text in ("", "hi", "how are you fine thanks " * 20):
            assert encode_single(text, vocab, 6).token_ids[0] == S_ID

    def test_segment_one(self, vocab):
        # segment 1 is a pair's label side only; a single side is all segment 0
        assert set(encode_single("yo", vocab, 8).segment_ids) == {0}
        pair = encode_pair("hi", "yo", vocab, 8)
        assert pair.segment_ids[pair.segment_ids.index(1):] == (1, 1)

    def test_truncation_keeps_most_recent(self, vocab):
        tp = encode_single("hi yo how are you", vocab, 4)
        assert tp.token_ids == (S_ID, *vocab.encode_tokens(["how", "are", "you"]))


class TestPadTo:
    def test_pads_tail(self, vocab):
        batch = pad_to(encode_single("hi", vocab, 8), 5)
        assert batch.token_ids.tolist() == [[S_ID, *vocab.encode_tokens(["hi"]), PAD_ID, PAD_ID,
                                             PAD_ID]]
        assert batch.pad_mask.tolist() == [[True, True, False, False, False]]
        assert batch.n_real == 2 and len(batch) == 5


@st.composite
def tokenized_pairs(draw):
    """A TokenizedPair of 1-12 tokens: any ids and segments."""
    n = draw(st.integers(1, 12))
    return TokenizedPair(tuple(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))),
                         tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))


class TestTokenBatch:
    @given(st.lists(tokenized_pairs(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_pad_to(self, pairs):
        batch = TokenBatch.of(pairs)
        length = max(len(tp) for tp in pairs)
        padded = [pad_to(tp, length) for tp in pairs]
        for field, dtype in (("token_ids", np.int64), ("segment_ids", np.int64),
                             ("pad_mask", bool)):
            want = np.concatenate([getattr(row, field) for row in padded])
            got = getattr(batch, field)
            assert got.dtype == dtype and np.array_equal(got, want), field
        assert len(batch) == len(pairs) * length
        assert batch.n_real == sum(len(tp) for tp in pairs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            TokenBatch.of([])


class TestLoadJsonl:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(
            {"context": ["a"], "candidates": ["x", "y"], "label": 1})])
        (ex,) = list(load_jsonl(path))
        assert ex.label_index == 1 and ex.gold == "y"

    def test_label_out_of_range_reports_line(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"context": ["a"], "candidates": ["x", "y"], "label": 0}),
            json.dumps({"context": ["a"], "candidates": ["x", "y"], "label": 5}),
        ])
        with pytest.raises(ParseError, match=":2"):
            list(load_jsonl(path))

    def test_missing_field_reports_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"context": ["a"], "label": 0})])
        with pytest.raises(ParseError, match="candidates"):
            list(load_jsonl(path))

    def test_bad_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, ["{not json"])
        with pytest.raises(ParseError, match=":1"):
            list(load_jsonl(path))

    def test_thousand_lines_order_preserved(self, tmp_path, rng):
        lines = [json.dumps({"context": [f"c{i}"], "candidates": [f"g{i}"], "label": 0})
                 for i in range(1000)]
        path = self.write(tmp_path, lines)
        examples = list(load_jsonl(path))
        assert len(examples) == 1000
        assert all(ex.context == (f"c{i}",) for i, ex in enumerate(examples))

    def test_token_stream_includes_turn_separator(self):
        ex = Example(context=("a", "b"), candidates=("x",), label_index=0)
        stream = list(example_token_stream([ex]))
        assert stream[0] == "a __turn__ b"
        assert flatten_context(["a", "b"]) == "a __turn__ b"
