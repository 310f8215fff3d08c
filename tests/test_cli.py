"""End-to-end command-line runs: training, indexing, ranking, benchmarking."""

import json
import platform
import signal
from pathlib import Path

import numpy as np
import pytest

import polyscore
from polyscore import retrieval
from polyscore.bench import _openblas_thread_calls
from polyscore.cli import COMMANDS, build_parser, main
from polyscore.model import load_checkpoint, save_checkpoint
from polyscore.synth import make_chain_corpus, make_overlap_dataset, write_jsonl
from polyscore.text import Example

from conftest import make_rng, rewrite_header
from oracles import cache_bytes_reference


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared corpus/dataset files plus a small pre-trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = make_chain_corpus(60, seed=4)
    write_jsonl(corpus, root / "corpus.jsonl")
    train, test = make_overlap_dataset(120, 30, seed=8)
    write_jsonl(train, root / "train.jsonl")
    write_jsonl(test, root / "test.jsonl")
    rc = main(["pretrain", "--corpus", str(root / "corpus.jsonl"),
               "--out-dir", str(root / "base"), "--seed", "3", "--steps", "6",
               "--batch-size", "4", "--vocab-size", "600", "--eval-interval", "3"])
    assert rc == 0
    # fine-tune base: a short pre-training pass over the overlap task's pairs,
    # which also builds a vocabulary covering its words
    rc = main(["pretrain", "--corpus", str(root / "train.jsonl"),
               "--out-dir", str(root / "ft_base"), "--seed", "3", "--steps", "300",
               "--batch-size", "8", "--lr", "2e-3", "--warmup", "50",
               "--eval-interval", "100", "--vocab-size", "600"])
    assert rc == 0
    return root


class TestPretrain:
    def test_outputs_exist(self, workdir):
        base = workdir / "base"
        assert (base / "checkpoint.bin").exists()
        assert (base / "vocab.txt").exists()
        assert (base / "metrics.jsonl").exists()
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert manifest["outputs"]  # filled in after completion
        assert str(workdir / "corpus.jsonl") in manifest["inputs"]

    def test_manifest_records_environment(self, workdir):
        manifest = json.loads((workdir / "base" / "manifest.json").read_text())
        calls = _openblas_thread_calls()
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__,
                                           "blas_threads": calls[0]() if calls else None,
                                           "malloc": polyscore.MALLOC}

    def test_missing_corpus_exit_2(self, workdir, capsys):
        rc = main(["pretrain", "--corpus", str(workdir / "nope.jsonl"),
                   "--out-dir", str(workdir / "x"), "--seed", "1"])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["corpus", "valid"])
    def test_no_maskable_word_exits_2_before_writing(self, workdir, tmp_path, capsys, side):
        # a vocabulary that lacks the side's words: every token encodes to
        # <unk>, so no batch could ever pick a token to mask
        unknown = tmp_path / "unknown.jsonl"
        write_jsonl([Example((f"zq{i} zq{i + 1}",), (f"zq{i + 2}",), 0) for i in range(3)],
                    unknown)
        corpus, valid = workdir / "corpus.jsonl", workdir / "corpus.jsonl"
        if side == "corpus":
            corpus = unknown
        else:
            valid = unknown
        out = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(corpus), "--valid", str(valid),
                   "--vocab", str(workdir / "base" / "vocab.txt"), "--out-dir", str(out),
                   "--seed", "1", "--steps", "2", "--batch-size", "2"])
        assert rc == 2
        assert "no word in the vocabulary to mask" in capsys.readouterr().err
        assert not (out / "manifest.json").exists() and not (out / "vocab.txt").exists()

    def test_batch_whose_draw_masks_nothing_draws_again(self, tmp_path):
        # one maskable word per example: a batch of four picks no target in
        # about half its corruption draws, and such a draw exited 2 mid-run
        corpus = tmp_path / "c.jsonl"
        write_jsonl([Example(("",), (w,), 0) for w in ("alpha", "beta", "gamma", "delta")],
                    corpus)
        rc = main(["pretrain", "--corpus", str(corpus), "--valid", str(corpus),
                   "--out-dir", str(tmp_path / "run"), "--seed", "1", "--steps", "4",
                   "--batch-size", "4", "--eval-interval", "2"])
        assert rc == 0

    def test_seed_required(self, workdir, capsys):
        rc = main(["pretrain", "--corpus", str(workdir / "corpus.jsonl"),
                   "--out-dir", str(workdir / "x")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_mlm_loss_decreases(self, tmp_path):
        corpus = make_chain_corpus(100, seed=6)
        write_jsonl(corpus, tmp_path / "c.jsonl")
        rc = main(["pretrain", "--corpus", str(tmp_path / "c.jsonl"),
                   "--out-dir", str(tmp_path / "run"), "--seed", "5", "--steps", "50",
                   "--batch-size", "6", "--lr", "1e-3", "--warmup", "10",
                   "--eval-interval", "5"])
        assert rc == 0
        rows = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert rows[-1]["train_loss"] < rows[0]["train_loss"]

    def test_fixed_seed_byte_identical(self, tmp_path):
        corpus = make_chain_corpus(40, seed=6)
        write_jsonl(corpus, tmp_path / "c.jsonl")
        args = ["pretrain", "--corpus", str(tmp_path / "c.jsonl"), "--seed", "9",
                "--steps", "8", "--batch-size", "4", "--eval-interval", "4"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert a == b

    def test_resume_reproduces_next_loss(self, tmp_path, workdir):
        corpus_path = workdir / "corpus.jsonl"
        base_ckpt = workdir / "base" / "checkpoint.bin"
        vocab = workdir / "base" / "vocab.txt"

        def resume(out):
            rc = main(["pretrain", "--corpus", str(corpus_path), "--out-dir", str(out),
                       "--seed", "12", "--steps", "2", "--batch-size", "4",
                       "--eval-interval", "1", "--init-checkpoint", str(base_ckpt),
                       "--vocab", str(vocab)])
            assert rc == 0
            rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
            return rows[0]["train_loss"], (out / "checkpoint.bin").read_bytes()

        loss1, bytes1 = resume(tmp_path / "r1")
        loss2, bytes2 = resume(tmp_path / "r2")
        assert loss1 == loss2  # bit-for-bit in 64-bit mode
        assert bytes1 == bytes2


class TestTrain:
    def train(self, workdir, out, arch, extra=()):
        return main(["train", "--data", str(workdir / "train.jsonl"),
                     "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                     "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                     "--out-dir", str(out), "--seed", "2", "--arch", arch,
                     "--steps", "60", "--batch-size", "8", "--lr", "2e-3",
                     "--warmup", "5", *extra])

    def test_bi_beats_random_baseline(self, workdir, tmp_path, capsys):
        assert self.train(workdir, tmp_path / "bi", "bi") == 0
        rc = main(["eval", "--data", str(workdir / "test.jsonl"),
                   "--checkpoint", str(tmp_path / "bi" / "checkpoint.bin"),
                   "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                   "--k", "1,5", "--out", str(tmp_path / "metrics.json")])
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["r_at_k"]["1"] > 0.05  # clears the 1/20 random baseline
        assert 0.0 < metrics["mrr"] <= 1.0

    def test_freeze_embeddings_bit_identical(self, workdir, tmp_path):
        import numpy as np

        from polyscore.model import load_checkpoint

        assert self.train(workdir, tmp_path / "fr", "bi",
                          extra=("--freeze", "all_but_embeddings", "--steps", "6")) == 0
        base = load_checkpoint(workdir / "ft_base" / "checkpoint.bin")
        tuned = load_checkpoint(tmp_path / "fr" / "checkpoint.bin")
        for table in ("embeddings.token", "embeddings.position", "embeddings.segment"):
            for tower in ("ctxt", "cand"):
                assert np.array_equal(base.towers["enc"].params[table].data,
                                      tuned.towers[tower].params[table].data)

    def test_poly_m_zero_is_config_error(self, workdir, tmp_path, capsys):
        rc = self.train(workdir, tmp_path / "p0", "poly:learnt:0")
        assert rc == 2
        assert "m" in capsys.readouterr().err

    def test_arch_mismatch_with_checkpoint(self, workdir, tmp_path, capsys):
        assert self.train(workdir, tmp_path / "bi2", "bi", extra=("--steps", "4")) == 0
        rc = main(["train", "--data", str(workdir / "train.jsonl"),
                   "--checkpoint", str(tmp_path / "bi2" / "checkpoint.bin"),
                   "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                   "--out-dir", str(tmp_path / "bad"), "--seed", "2",
                   "--arch", "cross", "--steps", "2"])
        assert rc == 2

    def test_rescale_flag_runs(self, workdir, tmp_path):
        assert self.train(workdir, tmp_path / "rs", "bi",
                          extra=("--rescale-std", "1.0", "--steps", "4")) == 0

    def test_augment_history_and_config_file(self, workdir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=4\nbatch_size=4\nseed=2\narch=bi\n")
        rc = main(["train", "--config", str(cfg),
                   "--data", str(workdir / "train.jsonl"),
                   "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                   "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                   "--out-dir", str(tmp_path / "aug"), "--augment-history"])
        assert rc == 0
        manifest = json.loads((tmp_path / "aug" / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 4
        assert manifest["config"]["augment_history"] is True


@pytest.fixture(scope="module")
def ranked_world(workdir, tmp_path_factory):
    """A bi checkpoint plus candidate/query files for index/rank tests."""
    root = tmp_path_factory.mktemp("rank")
    rc = main(["train", "--data", str(workdir / "train.jsonl"),
               "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
               "--vocab", str(workdir / "ft_base" / "vocab.txt"),
               "--out-dir", str(root / "bi"), "--seed", "2", "--arch", "bi",
               "--steps", "8", "--batch-size", "6"])
    assert rc == 0
    _, test = make_overlap_dataset(40, 20, seed=13)
    cands = sorted({ex.gold for ex in test})
    (root / "cands.txt").write_text("\n".join(cands) + "\n")
    with open(root / "queries.jsonl", "w") as f:
        for ex in test[:5]:
            f.write(json.dumps({"context": list(ex.context)}) + "\n")
    return root, workdir


class TestIndexAndRank:
    def test_index_rank_equals_no_cache(self, ranked_world, tmp_path):
        root, workdir = ranked_world
        ckpt = root / "bi" / "checkpoint.bin"
        vocab = workdir / "ft_base" / "vocab.txt"
        assert main(["index", "--candidates", str(root / "cands.txt"),
                     "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--out", str(tmp_path / "cache.bin")]) == 0
        assert main(["rank", "--queries", str(root / "queries.jsonl"),
                     "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--cache", str(tmp_path / "cache.bin"), "--k", "5",
                     "--out", str(tmp_path / "with_cache.jsonl")]) == 0
        assert main(["rank", "--queries", str(root / "queries.jsonl"),
                     "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--no-cache", "--candidates", str(root / "cands.txt"), "--k", "5",
                     "--out", str(tmp_path / "no_cache.jsonl")]) == 0
        a = (tmp_path / "with_cache.jsonl").read_text()
        b = (tmp_path / "no_cache.jsonl").read_text()
        assert a == b

    def test_precision_64_casts_the_cache_once(self, ranked_world, tmp_path, monkeypatch):
        # the float32 file is loaded as float64 for a float64 model, not
        # promoted again on every query
        root, workdir = ranked_world
        ckpt, vocab = root / "bi" / "checkpoint.bin", workdir / "ft_base" / "vocab.txt"
        assert main(["index", "--candidates", str(root / "cands.txt"), "--checkpoint",
                     str(ckpt), "--vocab", str(vocab), "--out", str(tmp_path / "c.bin")]) == 0
        loaded, load = [], retrieval.load_cache

        def recording(*args):
            cache = load(*args)
            loaded.append(cache.embeddings.dtype)
            return cache

        monkeypatch.setattr(retrieval, "load_cache", recording)
        assert main(["rank", "--queries", str(root / "queries.jsonl"), "--checkpoint",
                     str(ckpt), "--vocab", str(vocab), "--cache", str(tmp_path / "c.bin"),
                     "--precision", "64", "--k", "5", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert loaded == [np.float64]

    def test_rank_output_schema(self, ranked_world, tmp_path):
        root, workdir = ranked_world
        out = tmp_path / "r.jsonl"
        assert main(["rank", "--queries", str(root / "queries.jsonl"),
                     "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                     "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                     "--no-cache", "--candidates", str(root / "cands.txt"),
                     "--k", "3", "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 5
        for i, row in enumerate(rows):
            assert row["query_id"] == i
            assert len(row["ranking"]) == 3
            assert set(row["ranking"][0]) == {"id", "score"}
            scores = [e["score"] for e in row["ranking"]]
            assert scores == sorted(scores, reverse=True)

    def test_k_clamped_with_warning(self, ranked_world, tmp_path, capsys):
        root, workdir = ranked_world
        assert main(["rank", "--queries", str(root / "queries.jsonl"),
                     "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                     "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                     "--no-cache", "--candidates", str(root / "cands.txt"),
                     "--k", "100000", "--out", str(tmp_path / "r.jsonl")]) == 0
        assert "clamped" in capsys.readouterr().err

    @pytest.mark.parametrize("context", ["w1 w2 w3", ["w1", 2], None],
                             ids=["string", "non_string_turn", "null"])
    def test_context_not_a_string_list_exit_2(self, ranked_world, tmp_path, capsys, context):
        root, workdir = ranked_world
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"context": context}) + "\n")
        rc = main(["rank", "--queries", str(queries),
                   "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                   "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                   "--no-cache", "--candidates", str(root / "cands.txt"),
                   "--k", "3", "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "array of strings" in capsys.readouterr().err

    def test_stale_cache_exit_3(self, ranked_world, workdir, tmp_path):
        root, wd = ranked_world
        vocab = wd / "ft_base" / "vocab.txt"
        assert main(["index", "--candidates", str(root / "cands.txt"),
                     "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                     "--vocab", str(vocab), "--out", str(tmp_path / "cache.bin")]) == 0
        # retrain a different bi checkpoint -> different fingerprint
        assert main(["train", "--data", str(wd / "train.jsonl"),
                     "--checkpoint", str(wd / "ft_base" / "checkpoint.bin"),
                     "--vocab", str(vocab), "--out-dir", str(tmp_path / "other"),
                     "--seed", "99", "--arch", "bi", "--steps", "4",
                     "--batch-size", "4"]) == 0
        rc = main(["rank", "--queries", str(root / "queries.jsonl"),
                   "--checkpoint", str(tmp_path / "other" / "checkpoint.bin"),
                   "--vocab", str(vocab), "--cache", str(tmp_path / "cache.bin"),
                   "--k", "2", "--out", str(tmp_path / "r.jsonl")])
        assert rc == 3

    @pytest.mark.parametrize("stale", ["permuted_vocabulary", "old_version"])
    def test_cache_of_another_vocabulary_or_version_exit_3(self, ranked_world, tmp_path, capsys,
                                                           stale):
        root, wd = ranked_world
        ckpt, vocab = root / "bi" / "checkpoint.bin", wd / "ft_base" / "vocab.txt"
        cache = tmp_path / "cache.bin"
        assert main(["index", "--candidates", str(root / "cands.txt"), "--checkpoint",
                     str(ckpt), "--vocab", str(vocab), "--out", str(cache)]) == 0
        if stale == "permuted_vocabulary":  # same size, so the model accepts it
            permuted = tmp_path / "vocab.txt"
            permuted.write_text("".join(vocab.read_text().splitlines(keepends=True)[::-1]))
            vocab = permuted
        else:
            cache.write_bytes(cache_bytes_reference(retrieval.load_cache(cache), version=1))
        rc = main(["rank", "--queries", str(root / "queries.jsonl"), "--checkpoint", str(ckpt),
                   "--vocab", str(vocab), "--cache", str(cache), "--k", "2",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 3
        assert "rebuild it with `polyscore index`" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["trailing_bytes", "undecodable_string"])
    def test_corrupt_cache_exit_2(self, ranked_world, tmp_path, capsys, damage):
        root, wd = ranked_world
        ckpt, vocab = root / "bi" / "checkpoint.bin", wd / "ft_base" / "vocab.txt"
        cache = tmp_path / "cache.bin"
        assert main(["index", "--candidates", str(root / "cands.txt"), "--checkpoint",
                     str(ckpt), "--vocab", str(vocab), "--out", str(cache)]) == 0
        raw = bytearray(cache.read_bytes())
        if damage == "trailing_bytes":
            raw += b"\x00"
        else:
            raw[-1] = 0xFF  # inside the last candidate string; never valid UTF-8
        cache.write_bytes(bytes(raw))
        rc = main(["rank", "--queries", str(root / "queries.jsonl"), "--checkpoint", str(ckpt),
                   "--vocab", str(vocab), "--cache", str(cache), "--k", "2",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert str(cache) in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("poly_variant", "bogus"), ("poly_m", 0)])
    def test_bad_poly_head_exit_2_writes_nothing(self, ranked_world, tmp_path, capsys,
                                                 field, value):
        root, wd = ranked_world
        ckpt, vocab = tmp_path / "poly.bin", wd / "ft_base" / "vocab.txt"
        base = load_checkpoint(wd / "ft_base" / "checkpoint.bin")
        save_checkpoint(base.derive("poly", make_rng(0), poly_variant="first_m", poly_m=2), ckpt)
        rewrite_header(ckpt, lambda h: h.update({field: value}))
        model_args = ["--checkpoint", str(ckpt), "--vocab", str(vocab)]
        for i, argv in enumerate([
                ["index", "--candidates", str(root / "cands.txt")],
                ["rank", "--queries", str(root / "queries.jsonl"), "--no-cache",
                 "--candidates", str(root / "cands.txt")],
                ["eval", "--data", str(wd / "test.jsonl")]]):
            out = tmp_path / f"out{i}"
            assert main([*argv, *model_args, "--out", str(out)]) == 2, argv[0]
            assert "poly head" in capsys.readouterr().err
            assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("bad", ["candidates", "queries", "vocab", "config", "dataset",
                                     "candidates_directory"])
    def test_undecodable_or_non_file_input_exit_2(self, ranked_world, tmp_path, capsys, bad):
        root, wd = ranked_world
        good = {"candidates": root / "cands.txt", "queries": root / "queries.jsonl",
                "vocab": wd / "ft_base" / "vocab.txt", "config": None,
                "dataset": wd / "test.jsonl"}
        if bad == "candidates_directory":
            path = tmp_path / "dir"
            path.mkdir()
            bad = "candidates"
        else:
            # a 0xFF byte is never valid UTF-8
            prefix = good[bad].read_bytes() if good[bad] else b"k=3\n"
            path = tmp_path / f"bad_{bad}"
            path.write_bytes(prefix + b"\xff\n")
        given = {**good, bad: path}
        ckpt = ["--checkpoint", str(root / "bi" / "checkpoint.bin"), "--vocab", str(given["vocab"])]
        config = ["--config", str(given["config"])] if given["config"] else []
        if bad == "dataset":
            argv = ["eval", "--data", str(path), *ckpt]
        else:
            argv = ["rank", "--queries", str(given["queries"]), *ckpt, "--no-cache",
                    "--candidates", str(given["candidates"]), "--out", str(tmp_path / "r.jsonl")]
        rc = main(argv + config)
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    def test_index_with_cross_checkpoint_rejected(self, ranked_world, workdir, tmp_path):
        root, wd = ranked_world
        assert main(["train", "--data", str(wd / "train.jsonl"),
                     "--checkpoint", str(wd / "ft_base" / "checkpoint.bin"),
                     "--vocab", str(wd / "ft_base" / "vocab.txt"),
                     "--out-dir", str(tmp_path / "cross"), "--seed", "2",
                     "--arch", "cross", "--steps", "2", "--batch-size", "2",
                     "--n-candidates", "4"]) == 0
        rc = main(["index", "--candidates", str(root / "cands.txt"),
                   "--checkpoint", str(tmp_path / "cross" / "checkpoint.bin"),
                   "--vocab", str(wd / "ft_base" / "vocab.txt"),
                   "--out", str(tmp_path / "c.bin")])
        assert rc == 2


class TestBenchCommand:
    def test_smoke_and_jsonl(self, tmp_path):
        out = tmp_path / "bench.jsonl"
        rc = main(["bench", "--arch", "bi,poly:4", "--candidates", "16",
                   "--queries", "3", "--warmup", "1", "--context-tokens", "8",
                   "--candidate-tokens", "4", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["arch"] for r in rows} == {"bi", "poly:4"}

    def test_poly_variant_runs(self, tmp_path):
        out = tmp_path / "bench.jsonl"
        rc = main(["bench", "--arch", "poly:first_m:4", "--candidates", "16",
                   "--queries", "2", "--warmup", "0", "--context-tokens", "8",
                   "--candidate-tokens", "4", "--out", str(out)])
        assert rc == 0
        assert [json.loads(l)["arch"] for l in out.read_text().splitlines()] == ["poly:first_m:4"]

    @pytest.mark.parametrize("arch", ["poly:x", "poly:mean:4", "poly:first_m:0", "dual"])
    def test_malformed_arch_exit_2(self, arch, capsys):
        rc = main(["bench", "--arch", arch, "--candidates", "8", "--queries", "2",
                   "--warmup", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_arch_list(self, tmp_path):
        rc = main(["bench", "--arch", "", "--candidates", "8", "--queries", "2",
                   "--warmup", "0"])
        assert rc == 0


class TestSynthCommand:
    def test_overlap_files(self, tmp_path):
        rc = main(["synth", "--task", "overlap", "--out-dir", str(tmp_path / "d"),
                   "--n-train", "10", "--n-test", "5", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "d" / "train.jsonl").exists()
        assert (tmp_path / "d" / "test.jsonl").exists()

    def synth_with_config(self, tmp_path, text):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(text)
        return main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])

    def test_config_with_read_keys_only(self, tmp_path):
        assert self.synth_with_config(tmp_path, "task=chain\nn_train=6\nn_test=3\nseed=4\n") == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["config"]["task"] == "chain" and manifest["config"]["n_train"] == 6

    @pytest.mark.parametrize("text", ["bogus_key=3\n", "n_train=6\nbogus_key=3\n",
                                      "precision=64\nbogus_key=3\n"])
    def test_unread_config_key_exit_2(self, tmp_path, text, capsys):
        assert self.synth_with_config(tmp_path, text) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestPrecisionFlag:
    @pytest.mark.parametrize("command", ["bench", "synth"])
    def test_rejected_where_unread(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--precision", "64"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train", "eval", "index", "rank"])
    def test_accepted_where_read(self, command):
        assert build_parser().parse_args([command, "--precision", "32"]).precision == 32


# One argv per command, in flag form; {data}, {rank} and {run} stand for the
# workdir, ranked_world and the run's own output path.
MODEL_ARGS = ["--checkpoint", "{rank}/bi/checkpoint.bin", "--vocab", "{data}/ft_base/vocab.txt"]
SETTINGS_ARGV = {
    "pretrain": ["--corpus", "{data}/corpus.jsonl", "--out-dir", "{run}", "--seed", "3",
                 "--steps", "0", "--batch-size", "4", "--vocab-size", "600", "--hidden", "16",
                 "--dropout", "0.0", "--valid", "{data}/corpus.jsonl", "--precision", "32"],
    "train": ["--data", "{data}/train.jsonl", "--checkpoint", "{data}/ft_base/checkpoint.bin",
              "--vocab", "{data}/ft_base/vocab.txt", "--out-dir", "{run}", "--seed", "2",
              "--arch", "poly:first_m:4", "--steps", "2", "--batch-size", "4",
              "--freeze", "top_layer", "--optimizer", "adamax_nodecay",
              "--reduction", "avg_first:2", "--augment-history"],
    "eval": ["--data", "{data}/test.jsonl", *MODEL_ARGS, "--k", "5,1", "--max-examples", "3",
             "--out", "{run}"],
    "index": ["--candidates", "{rank}/cands.txt", *MODEL_ARGS, "--out", "{run}",
              "--precision", "64"],
    "rank": ["--queries", "{rank}/queries.jsonl", *MODEL_ARGS, "--no-cache",
             "--candidates", "{rank}/cands.txt", "--k", "3", "--out", "{run}"],
    "bench": ["--arch", "bi,poly:2", "--candidates", "8", "--queries", "2", "--warmup", "0",
              "--context-tokens", "8", "--candidate-tokens", "4",
              "--extrapolate-cross-from", "4", "--out", "{run}"],
    "synth": ["--task", "chain", "--n-train", "6", "--seed", "4", "--out-dir", "{run}"],
}
# The manifest `config` blocks those argvs resolved to before the settings
# became one table per command.
GOLDEN_CONFIG = {
    "pretrain": {"batch_size": 4, "batch_tokens": None, "beta1": 0.9, "beta2": 0.98,
                 "corpus": "{data}/corpus.jsonl", "dropout": 0.0, "eval_interval": 10,
                 "ffn_hidden": 64, "heads": 2, "hidden": 16, "init_checkpoint": None,
                 "layers": 2, "lr": 0.0002, "max_positions": 64, "out_dir": "{run}",
                 "precision": 32, "seed": 3, "steps": 0, "valid": "{data}/corpus.jsonl",
                 "vocab": None, "vocab_size": 600, "warmup": 100, "weight_decay": 0.0},
    "train": {"arch": "poly:first_m:4", "augment_history": True, "batch_size": 4,
              "checkpoint": "{data}/ft_base/checkpoint.bin", "data": "{data}/train.jsonl",
              "eval_interval": None, "freeze": "top_layer", "lr": 5e-05, "n_candidates": 16,
              "neg_mode": "sampled", "optimizer": "adamax_nodecay", "out_dir": "{run}",
              "precision": 64, "reduction": "avg_first:2", "rescale_std": None, "seed": 2,
              "steps": 2, "valid": None, "vocab": "{data}/ft_base/vocab.txt", "warmup": None},
    "eval": {"checkpoint": "{rank}/bi/checkpoint.bin", "data": "{data}/test.jsonl", "k": "5,1",
             "max_examples": 3, "out": "{run}", "precision": 64,
             "vocab": "{data}/ft_base/vocab.txt"},
    "index": {"candidates": "{rank}/cands.txt", "checkpoint": "{rank}/bi/checkpoint.bin",
              "out": "{run}", "precision": 64, "vocab": "{data}/ft_base/vocab.txt"},
    "rank": {"cache": None, "candidates": "{rank}/cands.txt",
             "checkpoint": "{rank}/bi/checkpoint.bin", "k": 3, "no_cache": True,
             "out": "{run}", "precision": 32, "queries": "{rank}/queries.jsonl",
             "vocab": "{data}/ft_base/vocab.txt"},
    "bench": {"arch": "bi,poly:2", "candidate_file": None, "candidate_tokens": 4,
              "candidates": "8", "context_tokens": 8, "extrapolate_cross_from": 4,
              "out": "{run}", "queries": 2, "seed": 0, "vocab_size": 256, "warmup": 0},
    "synth": {"n_test": 50, "n_train": 6, "out_dir": "{run}", "seed": 4, "task": "chain"},
}
GOLDEN_SEED = {"pretrain": 3, "train": 2, "eval": None, "index": None, "rank": None,
               "bench": 0, "synth": 4}


class TestSettingsTable:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flags_are_the_table_keys(self, command):
        args = vars(build_parser().parse_args([command]))
        assert set(args) - {"command", "config", "fn"} == {s.key for s in COMMANDS[command][2]}

    @pytest.mark.parametrize("command", ["eval", "index", "rank"])
    def test_seed_rejected_where_unread(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @staticmethod
    def run(command, ranked_world, run, argv, config_file=None):
        """Run argv (placeholders filled in); returns the manifest, with the
        fixture and run paths put back as placeholders."""
        root, workdir = ranked_world
        places = {"data": str(workdir), "rank": str(root), "run": str(run)}
        argv = [a.format(**places) for a in argv]
        if config_file is not None:
            argv += ["--config", str(config_file)]
        assert main([command, *argv]) == 0
        out_dir = "--out-dir" in argv or command in ("pretrain", "train", "synth")
        doc = json.loads((run / "manifest.json" if out_dir
                          else Path(str(run) + ".manifest.json")).read_text())
        for key, value in doc["config"].items():
            for name, path in places.items():
                if isinstance(value, str):
                    value = value.replace(path, "{" + name + "}")
            doc["config"][key] = value
        return doc

    @pytest.mark.parametrize("command", list(SETTINGS_ARGV))
    def test_config_matches_golden(self, command, ranked_world, tmp_path):
        doc = self.run(command, ranked_world, tmp_path / "run", SETTINGS_ARGV[command])
        assert doc["config"] == GOLDEN_CONFIG[command]
        assert doc["seed"] == GOLDEN_SEED[command]

    @pytest.mark.parametrize("command", list(SETTINGS_ARGV))
    def test_config_file_resolves_like_flags(self, command, ranked_world, tmp_path):
        """Every setting but the output path moved into --config resolves to
        the same manifest config as the flags."""
        argv, lines, rest = list(SETTINGS_ARGV[command]), [], []
        while argv:
            flag = argv.pop(0)
            key = flag[2:].replace("-", "_")
            if key in ("out", "out_dir"):
                rest += [flag, argv.pop(0)]
            elif argv and not argv[0].startswith("--"):
                lines.append(f"{key}={argv.pop(0)}")
            else:
                lines.append(f"{key}=true")
        root, workdir = ranked_world
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("\n".join(lines).format(data=workdir, rank=root) + "\n")
        flags = self.run(command, ranked_world, tmp_path / "run", SETTINGS_ARGV[command])
        filed = self.run(command, ranked_world, tmp_path / "run", rest, config_file=cfg)
        assert filed["config"] == flags["config"]
        assert filed["seed"] == flags["seed"]

    @pytest.mark.parametrize("command,extra,key", [
        ("train", ["--reduction", "avg_first:x"], "reduction"),
        ("train", ["--reduction", "avg_first:"], "reduction"),
        ("train", ["--steps", "-3"], "steps"),
        ("train", ["--batch-size", "0"], "batch_size"),
        ("train", ["--n-candidates", "1"], "n_candidates"),
        ("train", ["--warmup", "0"], "warmup"),
        ("train_from_bi", ["--reduction", "avg_all"], "reduction"),
        ("eval", ["--max-examples", "0"], "max_examples"),
        ("eval", ["--max-examples", "-1"], "max_examples"),
        ("bench", ["--extrapolate-cross-from", "0"], "extrapolate_cross_from"),
        ("bench", ["--extrapolate-cross-from", "-1"], "extrapolate_cross_from"),
        ("rank", ["--k", "0"], "k"),
        ("pretrain", ["--hidden", "30", "--heads", "4"], "hidden"),
        ("pretrain", ["--dropout", "1"], "dropout"),
        ("pretrain", ["--lr", "-1"], "lr"),
        ("train", ["--lr", "-1"], "lr"),
        ("rank_without_candidates", [], "--cache"),
        ("index_from_pretrain", [], "not pretrain"),
        ("eval_from_pretrain", [], "not pretrain"),
    ])
    def test_bad_setting_exit_2_writes_nothing(self, ranked_world, tmp_path, capsys,
                                               command, extra, key):
        root, workdir = ranked_world
        out = tmp_path / "out"
        vocab = ["--vocab", str(workdir / "ft_base" / "vocab.txt")]
        base = {
            "pretrain": ["pretrain", "--corpus", str(workdir / "corpus.jsonl"),
                         "--out-dir", str(out), "--seed", "3", "--steps", "1"],
            "train": ["train", "--data", str(workdir / "train.jsonl"), *vocab,
                      "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                      "--out-dir", str(out), "--seed", "2", "--steps", "2"],
            "train_from_bi": ["train", "--data", str(workdir / "train.jsonl"), *vocab,
                              "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                              "--out-dir", str(out), "--seed", "2", "--steps", "2"],
            "eval": ["eval", "--data", str(workdir / "test.jsonl"), *vocab,
                     "--checkpoint", str(root / "bi" / "checkpoint.bin"), "--out", str(out)],
            "bench": ["bench", "--candidates", "8", "--queries", "2", "--warmup", "0",
                      "--out", str(out)],
            "rank": ["rank", "--queries", str(root / "queries.jsonl"), *vocab,
                     "--checkpoint", str(root / "bi" / "checkpoint.bin"), "--no-cache",
                     "--candidates", str(root / "cands.txt"), "--out", str(out)],
            "rank_without_candidates": ["rank", "--queries", str(root / "queries.jsonl"), *vocab,
                                        "--checkpoint", str(root / "bi" / "checkpoint.bin"),
                                        "--out", str(out)],
            "index_from_pretrain": ["index", "--candidates", str(root / "cands.txt"), *vocab,
                                    "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                                    "--out", str(out)],
            "eval_from_pretrain": ["eval", "--data", str(workdir / "test.jsonl"), *vocab,
                                   "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                                   "--out", str(out)],
        }[command]
        assert main(base + extra) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("argv,key", [
        (["pretrain", "--corpus", "{same}"], "distinct golds"),
        (["pretrain", "--corpus", "{data}/corpus.jsonl", "--valid", "{same}"], "distinct golds"),
        (["train", "--arch", "cross", "--data", "{one}"], "distinct golds"),
        (["train", "--arch", "cross", "--neg-mode", "provided", "--data", "{same}"],
         "distinct golds"),
        (["pretrain", "--corpus", "{one}"], "too few"),
        (["pretrain", "--corpus", "{data}/corpus.jsonl", "--valid", "{one}"], "too few"),
        (["train", "--arch", "bi", "--data", "{one}"], "too few"),
        (["train", "--arch", "bi", "--data", "{data}/train.jsonl", "--valid", "{one}"],
         "too few"),
        (["train", "--arch", "cross", "--data", "{empty}"], "too few"),
    ], ids=["pretrain_same_gold", "pretrain_valid_same_gold", "cross_one_example",
            "cross_provided_same_gold", "pretrain_one_example", "pretrain_valid_one_example",
            "bi_one_example", "bi_valid_one_example", "cross_empty"])
    def test_bad_training_data_exit_2_writes_nothing(self, workdir, tmp_path, capsys, argv,
                                                     key):
        """Data a training loop could not draw a batch from exits 2 before
        writing anything; each of these hung, or wrote a manifest and then
        failed, and an empty cross set raised a bare ValueError (exit 1)."""
        golds = ["w1 w2", "w1 w2", "w1 w2"]
        for name, rows in (("empty", []), ("one", golds[:1]), ("same", golds)):
            (tmp_path / f"{name}.jsonl").write_text("".join(
                json.dumps({"context": [f"c{i}"], "candidates": [gold], "label": 0}) + "\n"
                for i, gold in enumerate(rows)))
        places = {"data": workdir, **{name: tmp_path / f"{name}.jsonl"
                                      for name in ("empty", "one", "same")}}
        argv = [a.format(**places) for a in argv]
        if argv[0] == "train":
            argv += ["--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                     "--vocab", str(workdir / "ft_base" / "vocab.txt")]
        out = tmp_path / "out"
        argv += ["--out-dir", str(out), "--seed", "1", "--steps", "4", "--eval-interval", "1"]

        def hung(signum, frame):
            raise TimeoutError("training data hung the loop")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            assert main(argv) == 2
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_bad_choice_in_config_file_writes_nothing(self, ranked_world, tmp_path, capsys):
        root, workdir = ranked_world
        cfg = tmp_path / "train.cfg"
        cfg.write_text("freeze=bogus\n")
        out_dir = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--data", str(workdir / "train.jsonl"),
                   "--checkpoint", str(workdir / "ft_base" / "checkpoint.bin"),
                   "--vocab", str(workdir / "ft_base" / "vocab.txt"),
                   "--out-dir", str(out_dir), "--seed", "2"])
        assert rc == 2
        assert "freeze" in capsys.readouterr().err
        assert not out_dir.exists()
