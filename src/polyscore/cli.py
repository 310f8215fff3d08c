"""Command-line entry point: pretrain, train, eval, index, rank, bench, synth.

Every command resolves its configuration (defaults < config file < flags),
writes a RunManifest before doing any work, and finishes by recording output
hashes into the same manifest. Exit codes: 0 success, 1 internal error,
2 config/input error, 3 stale artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, ContractError, ParseError, PolyscoreError, StaleCacheError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_STALE = 3


def load_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    from .text import read_lines

    out = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


class Resolver:
    """Merges defaults, config file and CLI flags; flags win.

    Collects every validation failure instead of stopping at the first, and
    the input files named by path settings, for the run manifest.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
        self.resolved: dict = {}
        self.errors: list[str] = []
        self.inputs: list[str] = []

    def get(self, key: str, default=None, cast=str, required=False):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            value = flag_value
        elif key in self.file_values:
            raw = self.file_values[key]
            try:
                value = _cast(raw, cast)
            except (TypeError, ValueError):
                self.errors.append(f"config key {key}: cannot parse {raw!r} as {cast.__name__}")
                value = default
        else:
            value = default
        if required and value is None:
            self.errors.append(f"missing required setting: {key}")
        self.resolved[key] = value
        return value

    def get_list(self, key: str, default: str, cast=str) -> list:
        """A comma-separated setting; records an error if an item does not parse."""
        raw = self.get(key, default)
        try:
            return [cast(x.strip()) for x in str(raw).split(",") if x.strip()]
        except ValueError:
            self.errors.append(f"cannot parse {key} list {raw!r}")
            return []

    def dtype(self, default: int):
        """The float dtype the precision setting names: 32 or 64 bits."""
        import numpy as np

        bits = self.get("precision", default, int)
        if bits not in (32, 64):
            self.errors.append(f"precision must be 32 or 64, got {bits}")
        return np.float32 if bits == 32 else np.float64

    def path(self, key: str, what: str, required=False):
        """An input file setting; records an error unless it names a file."""
        value = self.get(key, required=required)
        if value:
            self.inputs.append(value)
            if not Path(value).is_file():
                problem = "is not a file" if Path(value).exists() else "not found"
                self.errors.append(f"{what} {problem}: {value}")
        return value

    def fail_if_errors(self):
        """Call once every setting is read: a config-file key that none of the
        reads named is an error too."""
        self.errors += [f"config key {key}: not a setting of this command"
                        for key in self.file_values if key not in self.resolved]
        if self.errors:
            raise ConfigError("configuration errors:\n  " + "\n  ".join(self.errors))


def _cast(raw: str, cast):
    if cast is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValueError(raw)
    return cast(raw)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Reproducibility record: resolved config, environment, input/output hashes."""

    def __init__(self, path, command: str, r: Resolver):
        from .bench import environment

        self.path = Path(path)
        self.doc = {
            "command": command,
            "tool_version": __version__,
            "seed": r.resolved.get("seed"),
            "config": dict(sorted(r.resolved.items())),
            "environment": environment(),
            "inputs": {str(p): _sha256(p) for p in r.inputs},
            "outputs": None,
        }
        self._write()

    def _write(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as f:
            json.dump(self.doc, f, indent=2, sort_keys=True)
            f.write("\n")

    def finish(self, outputs: list):
        self.doc["outputs"] = {str(p): _sha256(p) for p in outputs if Path(p).exists()}
        self._write()


def _read_candidates(path) -> list[str]:
    """A candidate file: one candidate per line, blank lines skipped."""
    from .text import read_lines

    return [line.rstrip("\n") for line in read_lines(path) if line.strip()]


def _load_scorer(command: str, ckpt_path, vocab_path, dtype, kinds: tuple):
    """A checkpoint of one of `kinds`, as `dtype`, with its vocabulary as a Scorer."""
    from .model import Scorer, load_checkpoint
    from .text import Vocabulary

    model = load_checkpoint(ckpt_path, dtype=dtype)
    if model.kind not in kinds:
        raise ConfigError(f"{command} needs a {'/'.join(kinds)} checkpoint, not {model.kind}")
    return Scorer(model, Vocabulary.load(vocab_path))


def _augment_history(examples):
    """Opt-in ingestion expansion: every context turn becomes a response with
    the preceding turns as its context."""
    from .text import Example

    out = []
    for ex in examples:
        out.append(ex)
        for i in range(1, len(ex.context)):
            out.append(Example(context=ex.context[:i], candidates=(ex.context[i],),
                               label_index=0))
    return out


# ---- commands ----


def cmd_pretrain(args) -> int:
    import numpy as np

    from .encoder import ModelConfig
    from .model import Model, save_checkpoint
    from .optim import pretraining_config
    from .text import Vocabulary, build_vocab, example_token_stream, load_jsonl
    from .training import pretrain_loop

    r = Resolver(args)
    corpus_path = r.path("corpus", "corpus", required=True)
    out_dir = Path(r.get("out_dir", required=True) or ".")
    seed = r.get("seed", cast=int, required=True)
    steps = r.get("steps", 50, int)
    batch_size = r.get("batch_size", 8, int)
    vocab_size = r.get("vocab_size", 256, int)
    layers = r.get("layers", 2, int)
    heads = r.get("heads", 2, int)
    hidden = r.get("hidden", 32, int)
    ffn_hidden = r.get("ffn_hidden", 64, int)
    max_positions = r.get("max_positions", 64, int)
    dropout = r.get("dropout", 0.1, float)
    lr = r.get("lr", 2e-4, float)
    warmup = r.get("warmup", 100, int)
    beta1 = r.get("beta1", 0.9, float)
    beta2 = r.get("beta2", 0.98, float)
    weight_decay = r.get("weight_decay", 0.0, float)
    eval_interval = r.get("eval_interval", 10, int)
    batch_tokens = r.get("batch_tokens", None, int)
    valid_path = r.path("valid", "valid set")
    vocab_path_in = r.path("vocab", "vocab")
    init_checkpoint = r.path("init_checkpoint", "init checkpoint")
    dtype = r.dtype(64)
    if steps is not None and steps < 0:
        r.errors.append(f"steps must be >= 0, got {steps}")
    if batch_size is not None and batch_size < 1:
        r.errors.append(f"batch_size must be >= 1, got {batch_size}")
    r.fail_if_errors()

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_out = out_dir / "checkpoint.bin"
    vocab_out = out_dir / "vocab.txt"
    metrics_out = out_dir / "metrics.jsonl"
    manifest = Manifest(out_dir / "manifest.json", "pretrain", r)

    examples = list(load_jsonl(corpus_path))
    if vocab_path_in:
        vocab = Vocabulary.load(vocab_path_in)
    else:
        vocab = build_vocab(example_token_stream(examples), vocab_size)
    vocab.save(vocab_out)

    if init_checkpoint:
        from .model import load_checkpoint

        model = load_checkpoint(init_checkpoint, dtype=dtype)
        if model.kind != "pretrain":
            raise ConfigError(f"init checkpoint has kind {model.kind}, expected pretrain")
        cfg = model.cfg
    else:
        cfg = ModelConfig(layers=layers, heads=heads, hidden=hidden, ffn_hidden=ffn_hidden,
                          vocab_size=len(vocab), max_positions=max_positions,
                          dropout_p=dropout)
        model = Model.init_pretrain(cfg, np.random.Generator(np.random.PCG64(seed)),
                                    dtype=dtype)
    if cfg.vocab_size != len(vocab):
        raise ConfigError(f"vocab size {len(vocab)} does not match model config {cfg.vocab_size}")

    metrics_out.unlink(missing_ok=True)
    valid_examples = list(load_jsonl(valid_path)) if valid_path else None
    opt_cfg = replace(pretraining_config(lr=lr, warmup_steps=warmup, eval_interval=eval_interval),
                      beta1=beta1, beta2=beta2, weight_decay=weight_decay)
    if steps > 0:
        pretrain_loop(model, vocab, examples, opt_cfg, steps, batch_size, seed,
                      metrics_path=metrics_out, valid_examples=valid_examples,
                      batch_tokens=batch_tokens)
    save_checkpoint(model, ckpt_out)
    manifest.finish([ckpt_out, vocab_out, metrics_out])
    print(f"pretrain done: {steps} steps, checkpoint {ckpt_out}")
    return EXIT_OK


def cmd_train(args) -> int:
    import numpy as np

    from .heads import parse_arch
    from .model import KINDS, save_checkpoint
    from .optim import OptimizerConfig
    from .text import load_jsonl
    from .training import FinetuneSettings, finetune_loop, rescale_final_layer

    r = Resolver(args)
    data_path = r.path("data", "data", required=True)
    base_path = r.path("checkpoint", "checkpoint", required=True)
    vocab_path = r.path("vocab", "vocab", required=True)
    out_dir = Path(r.get("out_dir", required=True) or ".")
    seed = r.get("seed", cast=int, required=True)
    arch = r.get("arch", "bi")
    steps = r.get("steps", 200, int)
    batch_size = r.get("batch_size", 32, int)
    freeze = r.get("freeze", "every_layer")
    optimizer = r.get("optimizer", "adam_decay")
    lr = r.get("lr", 5e-5, float)
    warmup = r.get("warmup", None, int)
    eval_interval = r.get("eval_interval", None, int)
    neg_mode = r.get("neg_mode", "sampled")
    n_candidates = r.get("n_candidates", 16, int)
    reduction = r.get("reduction", "first")
    rescale_std = r.get("rescale_std", None, float)
    valid_path = r.path("valid", "valid set")
    augment = bool(r.get("augment_history", False, bool))
    dtype = r.dtype(64)
    kind = variant = m = None
    if arch:
        try:
            kind, variant, m = parse_arch(arch)
        except ConfigError as e:
            r.errors.append(str(e))
    r.fail_if_errors()

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_out = out_dir / "checkpoint.bin"
    metrics_out = out_dir / "metrics.jsonl"
    manifest = Manifest(out_dir / "manifest.json", "train", r)

    scorer = _load_scorer("train", base_path, vocab_path, dtype, KINDS)
    base, vocab = scorer.model, scorer.vocab
    train_examples = list(load_jsonl(data_path))
    if augment:
        train_examples = _augment_history(train_examples)
    if valid_path:
        valid_examples = list(load_jsonl(valid_path))
    else:
        # hold out a deterministic tail slice when no valid set is supplied
        n_valid = max(2, len(train_examples) // 10)
        if len(train_examples) > n_valid + 2:
            valid_examples = train_examples[-n_valid:]
            train_examples = train_examples[:-n_valid]
        else:
            valid_examples = train_examples

    rng = np.random.Generator(np.random.PCG64(seed))
    if base.kind == "pretrain":
        if rescale_std is not None:
            probes = [scorer.encode_cross(ex.context, ex.gold) for ex in train_examples[:8]]
            base.towers["enc"], factor = rescale_final_layer(base.towers["enc"],
                                                             rescale_std, probes)
            print(f"rescaled final layer by {factor:.4f}")
        model = base.derive(kind, rng, reduction=reduction, poly_variant=variant, poly_m=m)
    elif base.kind == kind and (kind != "poly" or (base.poly_variant == variant
                                                   and base.poly_m == m)):
        model = base  # continue fine-tuning
    else:
        raise ConfigError(
            f"checkpoint architecture {base.kind!r} does not match requested {arch!r}"
        )

    epoch_steps = max(1, math.ceil(len(train_examples) / max(1, batch_size)))
    opt_cfg = OptimizerConfig(
        kind=optimizer, lr=lr,
        beta2=0.999,
        weight_decay=0.01 if optimizer == "adam_decay" else 0.0,
        warmup_steps=warmup if warmup is not None else (1000 if kind == "cross" else 100),
        schedule="plateau",
        eval_interval=eval_interval if eval_interval is not None else max(1, epoch_steps // 2),
    )
    settings = FinetuneSettings(steps=steps, batch_size=batch_size, freeze=freeze,
                                neg_mode=neg_mode, n_candidates=n_candidates, seed=seed)
    metrics_out.unlink(missing_ok=True)
    finetune_loop(model, vocab, train_examples, valid_examples, opt_cfg, settings,
                  metrics_path=metrics_out)
    save_checkpoint(model, ckpt_out)
    manifest.finish([ckpt_out, metrics_out])
    print(f"train done: arch {arch}, {steps} steps, checkpoint {ckpt_out}")
    return EXIT_OK


def _rank_examples(scorer, examples, ks):
    """Per-example candidate ranking for metric evaluation."""
    from .retrieval import build_cache, mrr, rank_bi, rank_cross, rank_poly, recall_at_k

    results = []
    for ex in examples:
        if scorer.model.kind == "cross":
            res = rank_cross(scorer, ex.context, list(ex.candidates),
                             len(ex.candidates), gold_index=ex.label_index)
        else:
            cache = build_cache(list(ex.candidates), scorer)
            rank = rank_bi if scorer.model.kind == "bi" else rank_poly
            res = rank(scorer, ex.context, cache, len(ex.candidates), gold_id=ex.label_index)
        results.append(res)
    metrics = {"n_examples": len(results),
               "r_at_k": {str(k): recall_at_k(results, k) for k in ks},
               "mrr": mrr(results)}
    return metrics


def cmd_eval(args) -> int:
    from .text import load_jsonl

    r = Resolver(args)
    data_path = r.path("data", "data", required=True)
    ckpt_path = r.path("checkpoint", "checkpoint", required=True)
    vocab_path = r.path("vocab", "vocab", required=True)
    out_path = r.get("out", None)
    ks = sorted(set(r.get_list("k", "1,2,5", int)))
    max_examples = r.get("max_examples", None, int)
    dtype = r.dtype(64)
    r.fail_if_errors()

    manifest = Manifest(str(out_path) + ".manifest.json", "eval", r) if out_path else None
    scorer = _load_scorer("eval", ckpt_path, vocab_path, dtype, ("bi", "poly", "cross"))
    examples = list(load_jsonl(data_path))
    if max_examples:
        examples = examples[:max_examples]
    metrics = _rank_examples(scorer, examples, ks)
    text = json.dumps(metrics, indent=2, sort_keys=True)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        manifest.finish([out_path])
    return EXIT_OK


def cmd_index(args) -> int:
    from .retrieval import build_cache, save_cache

    r = Resolver(args)
    cand_path = r.path("candidates", "candidates", required=True)
    ckpt_path = r.path("checkpoint", "checkpoint", required=True)
    vocab_path = r.path("vocab", "vocab", required=True)
    out_path = r.get("out", required=True)
    dtype = r.dtype(32)
    r.fail_if_errors()

    manifest = Manifest(str(out_path) + ".manifest.json", "index", r)
    scorer = _load_scorer("index", ckpt_path, vocab_path, dtype, ("bi", "poly"))
    cache = build_cache(_read_candidates(cand_path), scorer)
    save_cache(cache, out_path)
    manifest.finish([out_path])
    print(f"indexed {cache.size} candidates -> {out_path}")
    return EXIT_OK


def cmd_rank(args) -> int:
    from .retrieval import build_cache, load_cache, rank_bi, rank_cross, rank_poly
    from .text import read_lines

    r = Resolver(args)
    queries_path = r.path("queries", "queries", required=True)
    ckpt_path = r.path("checkpoint", "checkpoint", required=True)
    vocab_path = r.path("vocab", "vocab", required=True)
    cache_path = r.path("cache", "cache")
    cand_path = r.path("candidates", "candidates")
    no_cache = bool(r.get("no_cache", False, bool))
    k = r.get("k", 10, int)
    out_path = r.get("out", required=True)
    dtype = r.dtype(32)
    r.fail_if_errors()

    manifest = Manifest(str(out_path) + ".manifest.json", "rank", r)
    scorer = _load_scorer("rank", ckpt_path, vocab_path, dtype, ("bi", "poly", "cross"))
    kind = scorer.model.kind

    candidates = cache = None
    if kind != "cross" and not no_cache and cache_path is not None:
        cache = load_cache(cache_path)
    elif not cand_path:
        raise ConfigError("cross ranking needs --candidates (no cache possible)" if kind == "cross"
                          else "rank needs --cache, or --candidates for the no-cache path")
    else:
        candidates = _read_candidates(cand_path)
        if kind != "cross":
            cache = build_cache(candidates, scorer)

    n_cands = cache.size if cache is not None else len(candidates)
    if k > n_cands:
        print(f"warning: k={k} clamped to {n_cands} candidates", file=sys.stderr)
        k = n_cands

    with open(out_path, "w", encoding="utf-8") as out:
        for lineno, line in enumerate(read_lines(queries_path)):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                turns = obj["context"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ParseError(f"{queries_path}:{lineno + 1}: bad query line ({e})") from e
            if not isinstance(turns, list) or not all(isinstance(t, str) for t in turns):
                raise ParseError(f"{queries_path}:{lineno + 1}: 'context' must be an array "
                                 f"of strings, got {turns!r}")
            if kind == "cross":
                res = rank_cross(scorer, turns, candidates, k)
            elif kind == "bi":
                res = rank_bi(scorer, turns, cache, k)
            else:
                res = rank_poly(scorer, turns, cache, k)
            out.write(json.dumps({
                "query_id": obj.get("query_id", lineno),
                "ranking": [{"id": cid, "score": score} for cid, score in res.ranking],
            }) + "\n")
    manifest.finish([out_path])
    print(f"ranked queries -> {out_path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    import numpy as np

    from .bench import (BenchSpec, make_bench_models, report_table, report_to_jsonl,
                        run_bench, synthetic_candidates, synthetic_queries)
    from .encoder import ModelConfig
    from .text import Vocabulary

    r = Resolver(args)
    architectures = r.get_list("arch", "bi,poly:16,cross")
    counts = r.get_list("candidates", "1000,10000", int)
    n_queries = r.get("queries", 100, int)
    warmup = r.get("warmup", 10, int)
    extrapolate = r.get("extrapolate_cross_from", None, int)
    out_path = r.get("out", None)
    seed = r.get("seed", 0, int)
    context_tokens = r.get("context_tokens", 64, int)
    candidate_tokens = r.get("candidate_tokens", 16, int)
    vocab_size = r.get("vocab_size", 256, int)
    cand_file = r.path("candidate_file", "candidate file")
    r.fail_if_errors()

    spec = BenchSpec(architectures=architectures, candidate_counts=counts,
                     n_queries=n_queries, warmup_queries=warmup,
                     context_tokens=context_tokens, candidate_tokens=candidate_tokens,
                     extrapolate_cross_from=extrapolate, seed=seed)
    manifest = Manifest(str(out_path) + ".manifest.json", "bench", r) if out_path else None
    rng = np.random.Generator(np.random.PCG64(seed))
    words = [f"w{i:04d}" for i in range(max(5, vocab_size - 4))]
    vocab = Vocabulary(words)
    cfg = ModelConfig(vocab_size=len(vocab))
    models = make_bench_models(cfg, spec.architectures, seed)
    if cand_file:
        pool = _read_candidates(cand_file)
    else:
        pool = synthetic_candidates(spec, vocab, max(spec.candidate_counts, default=1), rng)
    queries = synthetic_queries(spec, vocab, min(spec.n_queries + spec.warmup_queries, 64), rng)
    report = run_bench(spec, models, vocab, pool, queries)
    print(report_table(report))
    if out_path:
        Path(out_path).write_text(report_to_jsonl(report), encoding="utf-8")
        manifest.finish([out_path])
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import make_chain_corpus, make_overlap_dataset, write_jsonl

    r = Resolver(args)
    task = r.get("task", "overlap")
    out_dir = Path(r.get("out_dir", required=True) or ".")
    seed = r.get("seed", 0, int)
    n_train = r.get("n_train", 200, int)
    n_test = r.get("n_test", 50, int)
    if task not in ("overlap", "chain"):
        r.errors.append(f"unknown synth task {task!r} (overlap or chain)")
    r.fail_if_errors()

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir / "manifest.json", "synth", r)
    outputs = []
    if task == "overlap":
        train, test = make_overlap_dataset(n_train, n_test, seed=seed)
        write_jsonl(train, out_dir / "train.jsonl")
        write_jsonl(test, out_dir / "test.jsonl")
        outputs = [out_dir / "train.jsonl", out_dir / "test.jsonl"]
    else:
        corpus = make_chain_corpus(n_train, seed=seed)
        write_jsonl(corpus, out_dir / "corpus.jsonl")
        outputs = [out_dir / "corpus.jsonl"]
    manifest.finish(outputs)
    print(f"wrote {task} dataset to {out_dir}")
    return EXIT_OK


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyscore",
                                     description="Candidate-selection engine: train, "
                                                 "index, rank and benchmark bi/poly/cross scorers.")
    parser.add_argument("--version", action="version", version=f"polyscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision=True):  # only commands that read the setting take --precision
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--seed", type=int)
        if precision:
            p.add_argument("--precision", type=int, choices=(32, 64))

    p = sub.add_parser("pretrain", help="alternating masked-token / next-utterance pre-training")
    common(p)
    p.add_argument("--corpus", help="JSONL of consecutive (input, next) pairs")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--batch-tokens", dest="batch_tokens", type=int,
                   help="optional length-bucketed token-count batching")
    p.add_argument("--vocab", help="reuse an existing vocabulary file")
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--valid")
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--ffn-hidden", dest="ffn_hidden", type=int)
    p.add_argument("--max-positions", dest="max_positions", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--eval-interval", dest="eval_interval", type=int)
    p.add_argument("--init-checkpoint", dest="init_checkpoint")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="fine-tune a bi/poly/cross scorer from a base checkpoint")
    common(p)
    p.add_argument("--data")
    p.add_argument("--valid")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--arch", help="bi | cross | poly:<m> | poly:<variant>:<m>")
    p.add_argument("--freeze", choices=("top_layer", "top4_layers", "all_but_embeddings",
                                        "every_layer"))
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--optimizer", choices=("adam_decay", "adamax_nodecay"))
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup", type=int)
    p.add_argument("--eval-interval", dest="eval_interval", type=int)
    p.add_argument("--neg-mode", dest="neg_mode", choices=("sampled", "provided"))
    p.add_argument("--n-candidates", dest="n_candidates", type=int)
    p.add_argument("--reduction", help="first | avg_all | avg_first:<m>")
    p.add_argument("--rescale-std", dest="rescale_std", type=float)
    p.add_argument("--augment-history", dest="augment_history", action="store_const",
                   const=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="R@k and MRR over a candidates dataset")
    common(p)
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--k", help="comma-separated k list, default 1,2,5")
    p.add_argument("--max-examples", dest="max_examples", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("index", help="precompute a candidate-embedding cache")
    common(p)
    p.add_argument("--candidates", help="text file, one candidate per line")
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("rank", help="rank candidates for each query")
    common(p)
    p.add_argument("--queries", help='JSONL, {"context": [...]} per line')
    p.add_argument("--checkpoint")
    p.add_argument("--vocab")
    p.add_argument("--cache")
    p.add_argument("--candidates")
    p.add_argument("--no-cache", dest="no_cache", action="store_const", const=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("bench", help="latency by architecture and candidate count")
    common(p, precision=False)
    p.add_argument("--arch", help="comma-separated: bi,poly:16,cross")
    p.add_argument("--candidates", help="comma-separated candidate counts")
    p.add_argument("--queries", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--extrapolate-cross-from", dest="extrapolate_cross_from", type=int)
    p.add_argument("--context-tokens", dest="context_tokens", type=int)
    p.add_argument("--candidate-tokens", dest="candidate_tokens", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--candidate-file", dest="candidate_file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    common(p, precision=False)
    p.add_argument("--task", choices=("overlap", "chain"))
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StaleCacheError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STALE
    except (ConfigError, ParseError, ContractError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except PolyscoreError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
