"""Model containers, checkpoint round-trips and the text-level scorer."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyscore.encoder import ModelConfig
from polyscore.errors import ConfigError, ParseError
from polyscore.heads import parse_arch
from polyscore.model import Model, Scorer, load_checkpoint, save_checkpoint
from polyscore.text import Vocabulary

from conftest import make_rng, rewrite_header
from oracles import checkpoint_bytes_reference, score_bi, score_poly


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(28)])


@pytest.fixture
def pretrain_model(vocab):
    cfg = ModelConfig(vocab_size=len(vocab))
    return Model.init_pretrain(cfg, make_rng(1))


class TestModel:
    def test_pretrain_param_names(self, pretrain_model):
        names = set(pretrain_model.named_parameters())
        assert "enc.embeddings.token" in names
        assert "mlm.transform.weight" in names
        assert "next.w" in names

    def test_derive_bi_duplicates_towers(self, pretrain_model):
        model = pretrain_model.derive("bi", make_rng(2))
        a = model.towers["ctxt"].params["embeddings.token"].data
        b = model.towers["cand"].params["embeddings.token"].data
        assert np.array_equal(a, b)
        assert a is not b  # separate copies so fine-tuning can diverge

    def test_derive_poly_learnt_has_codes(self, pretrain_model):
        model = pretrain_model.derive("poly", make_rng(2), poly_variant="learnt", poly_m=4)
        assert model.extras["poly.codes"].shape == (4, model.cfg.hidden)

    def test_derive_poly_first_m_has_no_codes(self, pretrain_model):
        model = pretrain_model.derive("poly", make_rng(2), poly_variant="first_m", poly_m=4)
        assert "poly.codes" not in model.extras

    def test_derive_cross_single_tower(self, pretrain_model):
        model = pretrain_model.derive("cross", make_rng(2))
        assert set(model.towers) == {"enc"}
        assert model.extras["cross.w"].shape == (model.cfg.hidden, 1)

    @pytest.mark.parametrize("kind,variant,m,digest", [
        ("pretrain", None, None, "1e5a234d255a75cd18686b32fa3b92aa7b2fcb14560a9d3ce3b034b8a1a704ac"),
        ("bi", None, None, "c4af73dc3d80b8892c71ba63c44728b02eb3b66adcbeb2edec9526adc657e601"),
        ("poly", "learnt", 4, "899571aaca2d22e36c01622bb51406fefd71c4aa4f453a7d744d745a87b74216"),
        ("cross", None, None, "82f0938b4f9c8e8b56e167b1fe8e20453d2aca5621e7a43671370f7ec172f63d"),
    ])
    def test_seeded_init_checkpoint_bytes_pinned(self, tmp_path, kind, variant, m, digest):
        """Seeded init_pretrain + derive draws the same numbers in the same
        order as every earlier release, so seeded runs keep their checkpoints."""
        rng = make_rng(7)
        model = Model.init_pretrain(ModelConfig(vocab_size=40), rng)
        if kind != "pretrain":
            model = model.derive(kind, rng, poly_variant=variant, poly_m=m)
        assert save_checkpoint(model, tmp_path / "c.bin") == digest

    def test_derive_from_finetuned_rejected(self, pretrain_model):
        bi = pretrain_model.derive("bi", make_rng(2))
        with pytest.raises(ConfigError):
            bi.derive("cross", make_rng(2))

    def test_astype_round_trip(self, pretrain_model):
        f32 = pretrain_model.astype(np.float32)
        assert f32.dtype == np.float32
        assert pretrain_model.dtype == np.float64


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path, pretrain_model):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(pretrain_model, p1)
        reloaded = load_checkpoint(p1)
        save_checkpoint(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_values_exact(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        reloaded = load_checkpoint(path)
        for name, t in pretrain_model.named_parameters().items():
            assert np.array_equal(t.data, reloaded.named_parameters()[name].data)

    def test_fingerprint_stable(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        fp1 = save_checkpoint(pretrain_model, path)
        fp2 = save_checkpoint(pretrain_model, path)
        assert fp1 == fp2
        assert load_checkpoint(path).fingerprint == fp1

    def test_head_metadata_survives(self, tmp_path, pretrain_model):
        model = pretrain_model.derive("poly", make_rng(3), reduction="avg_first:2",
                                      poly_variant="learnt", poly_m=8)
        path = tmp_path / "poly.bin"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert (back.kind, back.poly_variant, back.poly_m, back.reduction) == \
            ("poly", "learnt", 8, "avg_first:2")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(path)

    def test_undecodable_header_rejected(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        raw = bytearray(path.read_bytes())
        raw[len(b"PLYSCKPT") + 8] = 0xFF  # first header byte: invalid UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("kind"),
        lambda h: h["config"].update(heads=3),
        lambda h: h["config"].update(layrs=2),
        lambda h: h.update(reduction="avg_first:x"),
        lambda h: h.update(kind="cross"),
    ], ids=["missing_kind", "heads_not_dividing_hidden", "unknown_config_key",
            "bad_reduction", "kind_without_its_head"])
    def test_bad_header_fields_rejected(self, tmp_path, pretrain_model, edit):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        rewrite_header(path, edit)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("poly_variant", "bogus"), ("poly_m", 0),
                                             ("poly_m", None), ("poly_m", 2.5)])
    def test_bad_poly_head_rejected(self, tmp_path, pretrain_model, field, value):
        # a first_m head has no parameters whose shapes could catch a bad header
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model.derive("poly", make_rng(2), poly_variant="first_m",
                                              poly_m=4), path)
        load_checkpoint(path)
        rewrite_header(path, lambda h: h.update({field: value}))
        with pytest.raises(ParseError, match="poly head"):
            load_checkpoint(path)

    def test_loaded_weights_build_no_tape(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        model = load_checkpoint(path)
        assert not any(t.requires_grad for t in model.named_parameters().values())

    def test_load_as_float32(self, tmp_path, pretrain_model):
        path = tmp_path / "m.bin"
        save_checkpoint(pretrain_model, path)
        f32 = load_checkpoint(path, dtype=np.float32)
        assert f32.dtype == np.float32


class TestCheckpointFormat:
    """The checkpoint bytes match the struct-based writer they replaced."""

    @pytest.fixture
    def poly_model(self, pretrain_model):
        return pretrain_model.derive("poly", make_rng(3), reduction="avg_first:2",
                                     poly_variant="learnt", poly_m=5)

    def test_writer_matches_reference(self, tmp_path, poly_model):
        path = tmp_path / "m.bin"
        save_checkpoint(poly_model, path)
        assert path.read_bytes() == checkpoint_bytes_reference(poly_model)

    def test_reference_file_loads(self, tmp_path, poly_model):
        path = tmp_path / "m.bin"
        path.write_bytes(checkpoint_bytes_reference(poly_model))
        back = load_checkpoint(path)
        assert (back.kind, back.poly_variant, back.poly_m, back.reduction, back.cfg) == \
            ("poly", "learnt", 5, "avg_first:2", poly_model.cfg)
        want = poly_model.named_parameters()
        got = back.named_parameters()
        assert sorted(got) == sorted(want)
        for name, t in want.items():
            assert np.array_equal(got[name].data, t.data), name


@pytest.fixture(scope="module")
def saved_poly(tmp_path_factory):
    cfg = ModelConfig(layers=1, vocab_size=8, hidden=4, heads=2, ffn_hidden=4, max_positions=4)
    model = Model.init_pretrain(cfg, make_rng(5)).derive("poly", make_rng(6),
                                                         poly_variant="learnt", poly_m=2)
    path = tmp_path_factory.mktemp("ckpt") / "poly.bin"
    save_checkpoint(model, path)
    return path.read_bytes()


class TestCheckpointFuzz:
    """A damaged checkpoint either loads or raises ParseError, never anything
    else; a truncated one always raises ParseError."""

    @given(cut=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation(self, tmp_path, saved_poly, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(saved_poly[:cut % len(saved_poly)])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @given(pos=st.integers(min_value=0, max_value=10**6),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_byte_flip(self, tmp_path, saved_poly, pos, flip):
        raw = bytearray(saved_poly)
        raw[pos % len(raw)] ^= flip
        path = tmp_path / "flip.bin"
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except ParseError:
            pass


class TestScorer:
    def test_vocab_size_checked(self, pretrain_model):
        with pytest.raises(ConfigError):
            Scorer(pretrain_model.derive("bi", make_rng(0)), Vocabulary(["a"]))

    def test_context_caps_clamped_to_positions(self, pretrain_model, vocab):
        scorer = Scorer(pretrain_model.derive("bi", make_rng(0)), vocab)
        assert scorer.max_context == pretrain_model.cfg.max_positions  # 64 < 360
        assert scorer.max_candidate == pretrain_model.cfg.max_positions

    def test_bi_scoring_runs(self, pretrain_model, vocab):
        scorer = Scorer(pretrain_model.derive("bi", make_rng(0)), vocab)
        s = score_bi(scorer, ["w1 w2", "w3"], "w4 w5")
        assert np.isfinite(s)

    def test_poly_scoring_runs(self, pretrain_model, vocab):
        model = pretrain_model.derive("poly", make_rng(0), poly_variant="learnt", poly_m=4)
        s = score_poly(Scorer(model, vocab), ["w1 w2"], "w4")
        assert np.isfinite(s)

    def test_cross_scoring_runs(self, pretrain_model, vocab):
        model = pretrain_model.derive("cross", make_rng(0))
        s = Scorer(model, vocab).score_cross(["w1 w2"], "w4").item()
        assert np.isfinite(s)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", ["bi", "poly:learnt:6", "poly:first_m:6", "cross"])
    def test_single_sequence_shapes(self, pretrain_model, vocab, arch, dtype):
        # the shapes perfbench's gates read: row 0 of a batch of one, batch axis gone
        kind, variant, m = parse_arch(arch)
        model = pretrain_model.derive(kind, make_rng(0), poly_variant=variant, poly_m=m)
        scorer = Scorer(model.astype(dtype), vocab)
        hidden, turns = model.cfg.hidden, ["w1 w2", "w3"]
        if kind == "cross":
            score = scorer.score_cross(turns, "w4 w5")
            assert score.shape == () and score.dtype == dtype
            assert isinstance(score.item(), float)
            return
        for vec in (scorer.context_vector(turns), scorer.candidate_vector("w4 w5")):
            assert vec.shape == (hidden,) and vec.dtype == dtype
        if kind == "poly":
            n = len(scorer.encode_context(turns))
            assert n < m  # a context shorter than m
            vecs = scorer.poly_vectors(turns)
            assert vecs.shape == (m if variant == "learnt" else min(m, n), hidden)
            assert vecs.dtype == dtype
