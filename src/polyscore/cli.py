"""Command-line entry point: pretrain, train, eval, index, rank, bench, synth.

Each command's settings are declared once, in COMMANDS: the table generates
the flags and resolves defaults < config file < flags, checking both sources
alike before anything is written. A command then writes a run manifest before
doing any work, and finishes by recording output hashes into the same
manifest. Exit codes: 0 success, 1 internal error, 2 config/input error,
3 stale artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, ContractError, ParseError, PolyscoreError, StaleCacheError
from .heads import parse_arch, parse_reduction
from .optim import ADAM_DECAY, OPTIMIZER_KINDS
from .training import FREEZE_SPECS, NEG_MODES

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


class Setting(NamedTuple):
    """One setting of a command: the flag `--a-b` and the config key `a_b`."""

    key: str
    type: str = "str"  # a key of _CASTS
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple | None = None
    minimum: int | None = None
    check: Callable[[str], object] | None = None  # raises ConfigError for a bad value


def _flag(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes"):
        return True
    if raw.lower() in ("0", "false", "no"):
        return False
    raise ValueError(raw)


# what a flag or config-file string becomes; the "ints"/"strs" lists and the
# precision are turned into the values commands read by _value
_CASTS = {"int": int, "float": float, "str": str, "path": str, "flag": _flag,
          "precision": int, "ints": str, "strs": str}


@dataclass
class Settings:
    """A command's resolved settings: attributes by key, and what the run
    manifest records."""

    values: dict
    config: dict  # as given: lists stay comma-separated, precision stays bits
    given: set  # keys a flag or the config file set
    inputs: list  # the files path settings name

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None


def resolve(args: argparse.Namespace) -> Settings:
    """Each setting of the command: its flag, else its config-file value, else
    its default; cast, range- and choice-checked, with every error collected,
    before the command writes anything."""
    table = COMMANDS[args.command][2]
    file_values = load_config_file(args.config) if args.config else {}
    settings, errors = Settings({}, {}, set(), []), []
    for s in table:
        value = getattr(args, s.key)
        if value is None and s.key in file_values:
            raw = file_values[s.key]
            try:
                value = _CASTS[s.type](raw)
            except ValueError:
                errors.append(f"config key {s.key}: cannot parse {raw!r} as {s.type}")
        if value is None:
            value = s.default
        else:
            settings.given.add(s.key)
        settings.config[s.key] = value
        try:
            settings.values[s.key] = _value(s, value, settings.inputs)
        except ConfigError as e:
            errors.append(str(e))
    keys = {s.key for s in table}
    errors += [f"config key {key}: not a setting of this command"
               for key in file_values if key not in keys]
    if errors:
        raise ConfigError("configuration errors:\n  " + "\n  ".join(errors))
    return settings


def _value(s: Setting, value, inputs: list):
    """The value a command reads for setting s; a ConfigError names the key."""
    if value is None:
        if s.required:
            raise ConfigError(f"missing required setting: {s.key}")
        return None
    if s.choices and value not in s.choices:
        raise ConfigError(f"{s.key} must be one of {', '.join(map(str, s.choices))}, "
                          f"got {value!r}")
    if s.minimum is not None and value < s.minimum:
        raise ConfigError(f"{s.key} must be >= {s.minimum}, got {value}")
    if s.check:
        try:
            s.check(value)
        except ConfigError as e:
            raise ConfigError(f"{s.key}: {e}") from None
    if s.type == "path" and value:
        inputs.append(value)
        if not Path(value).is_file():
            problem = "is not a file" if Path(value).exists() else "not found"
            raise ConfigError(f"{s.key} {problem}: {value}")
    if s.type in ("ints", "strs"):
        item = int if s.type == "ints" else str
        try:
            return [item(x.strip()) for x in value.split(",") if x.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse {s.key} list {value!r}") from None
    if s.type == "precision":
        return np.float32 if value == 32 else np.float64
    return value


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Reproducibility record: resolved config, environment, input/output hashes."""

    def __init__(self, path, command: str, s: Settings):
        from .bench import environment

        self.path = Path(path)
        self.doc = {
            "command": command,
            "tool_version": __version__,
            "seed": s.config.get("seed"),
            "config": dict(sorted(s.config.items())),
            "environment": environment(),
            "inputs": {str(p): _sha256(p) for p in s.inputs},
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


def _train_and_save(s: Settings, command: str, model, train, outputs: dict) -> int:
    """The training commands' tail: the manifest, `outputs` by their writers, the
    metrics log that `train(metrics_path)` fills, the checkpoint, the hashes."""
    from .model import save_checkpoint

    out_dir = Path(s.out_dir)
    ckpt_out, metrics_out = out_dir / "checkpoint.bin", out_dir / "metrics.jsonl"
    manifest = Manifest(out_dir / "manifest.json", command, s)
    for path, write in outputs.items():
        write(path)
    metrics_out.unlink(missing_ok=True)
    train(metrics_out)
    save_checkpoint(model, ckpt_out)
    manifest.finish([ckpt_out, metrics_out, *outputs])
    print(f"{command} done: {s.steps} steps, checkpoint {ckpt_out}")
    return EXIT_OK


# ---- commands ----


def cmd_pretrain(s: Settings) -> int:
    from .encoder import ModelConfig
    from .model import Model
    from .optim import pretraining_config
    from .text import RESERVED, Vocabulary, build_vocab, encode_pair, example_token_stream, \
        load_jsonl
    from .training import pretrain_loop, training_data

    examples = list(load_jsonl(s.corpus))
    if s.vocab:
        vocab = Vocabulary.load(s.vocab)
    else:
        vocab = build_vocab(example_token_stream(examples), s.vocab_size)

    if s.init_checkpoint:
        from .model import load_checkpoint

        model = load_checkpoint(s.init_checkpoint, dtype=s.precision)
        if model.kind != "pretrain":
            raise ConfigError(f"init checkpoint has kind {model.kind}, expected pretrain")
        cfg = model.cfg
    else:
        cfg = ModelConfig(layers=s.layers, heads=s.heads, hidden=s.hidden,
                          ffn_hidden=s.ffn_hidden, vocab_size=len(vocab),
                          max_positions=s.max_positions, dropout_p=s.dropout)
        model = Model.init_pretrain(cfg, np.random.Generator(np.random.PCG64(s.seed)),
                                    dtype=s.precision)
    if cfg.vocab_size != len(vocab):
        raise ConfigError(f"vocab size {len(vocab)} does not match model config {cfg.vocab_size}")
    valid_examples = list(load_jsonl(s.valid)) if s.valid else None
    train, sample = training_data("pretrain", examples, valid_examples, "sampled")
    for what, data in (("corpus", train), ("validation sample", sample)):
        if data and not any(max(encode_pair(ex.context_text, ex.gold, vocab, cfg.max_positions)
                                .token_ids) >= len(RESERVED) for ex in data):
            raise ContractError(f"pretrain {what} has no word in the vocabulary to mask")
    opt_cfg = replace(pretraining_config(lr=s.lr, warmup_steps=s.warmup,
                                         eval_interval=s.eval_interval),
                      beta1=s.beta1, beta2=s.beta2, weight_decay=s.weight_decay)
    return _train_and_save(s, "pretrain", model, lambda metrics_out: pretrain_loop(
        model, vocab, examples, opt_cfg, s.steps, s.batch_size, s.seed, metrics_path=metrics_out,
        valid_examples=valid_examples, batch_tokens=s.batch_tokens),
        {Path(s.out_dir) / "vocab.txt": vocab.save})


def cmd_train(s: Settings) -> int:
    from .model import KINDS
    from .optim import OptimizerConfig
    from .text import load_jsonl
    from .training import FinetuneSettings, finetune_loop, rescale_final_layer, training_data

    kind, variant, m = parse_arch(s.arch)
    scorer = _load_scorer("train", s.checkpoint, s.vocab, s.precision, KINDS)
    base, vocab = scorer.model, scorer.vocab
    if base.kind != "pretrain":  # continue fine-tuning: the checkpoint fixes the head
        if (base.kind, base.poly_variant, base.poly_m) != (kind, variant, m):
            raise ConfigError(f"checkpoint architecture {base.kind!r} does not match "
                              f"requested {s.arch!r}")
        if "reduction" in s.given and s.reduction != base.reduction:
            raise ConfigError(f"reduction {s.reduction!r} does not match the checkpoint's "
                              f"{base.reduction!r}")

    train_examples = list(load_jsonl(s.data))
    if s.augment_history:
        train_examples = _augment_history(train_examples)
    if s.valid:
        valid_examples = list(load_jsonl(s.valid))
    else:
        # hold out a deterministic tail slice when no valid set is supplied
        n_valid = max(2, len(train_examples) // 10)
        if len(train_examples) > n_valid + 2:
            valid_examples = train_examples[-n_valid:]
            train_examples = train_examples[:-n_valid]
        else:
            valid_examples = train_examples
    training_data(kind, train_examples, valid_examples, s.neg_mode)

    rng = np.random.Generator(np.random.PCG64(s.seed))
    model = base
    if base.kind == "pretrain":
        if s.rescale_std is not None:
            probes = [scorer.encode_cross(ex.context, ex.gold) for ex in train_examples[:8]]
            base.towers["enc"], factor = rescale_final_layer(base.towers["enc"],
                                                             s.rescale_std, probes)
            print(f"rescaled final layer by {factor:.4f}")
        model = base.derive(kind, rng, reduction=s.reduction, poly_variant=variant, poly_m=m)

    epoch_steps = max(1, math.ceil(len(train_examples) / max(1, s.batch_size)))
    opt_cfg = OptimizerConfig(
        kind=s.optimizer, lr=s.lr,
        weight_decay=0.01 if s.optimizer == ADAM_DECAY else 0.0,
        warmup_steps=s.warmup if s.warmup is not None else (1000 if kind == "cross" else 100),
        eval_interval=(s.eval_interval if s.eval_interval is not None
                       else max(1, epoch_steps // 2)),
    )
    settings = FinetuneSettings(steps=s.steps, batch_size=s.batch_size, freeze=s.freeze,
                                neg_mode=s.neg_mode, n_candidates=s.n_candidates, seed=s.seed)
    return _train_and_save(s, "train", model, lambda metrics_out: finetune_loop(
        model, vocab, train_examples, valid_examples, opt_cfg, settings,
        metrics_path=metrics_out), {})


def _rank_examples(scorer, examples, ks):
    """Per-example candidate ranking for metric evaluation."""
    from .retrieval import build_cache, mrr, rank, recall_at_k

    results = []
    for ex in examples:
        pool = list(ex.candidates)
        if scorer.model.kind != "cross":
            pool = build_cache(pool, scorer)
        results.append(rank(scorer, ex.context, pool, len(ex.candidates), gold_id=ex.label_index))
    metrics = {"n_examples": len(results),
               "r_at_k": {str(k): recall_at_k(results, k) for k in ks},
               "mrr": mrr(results)}
    return metrics


def cmd_eval(s: Settings) -> int:
    from .text import load_jsonl

    scorer = _load_scorer("eval", s.checkpoint, s.vocab, s.precision, ("bi", "poly", "cross"))
    examples = list(load_jsonl(s.data))[:s.max_examples]
    manifest = Manifest(str(s.out) + ".manifest.json", "eval", s) if s.out else None
    metrics = _rank_examples(scorer, examples, sorted(set(s.k)))
    text = json.dumps(metrics, indent=2, sort_keys=True)
    print(text)
    if s.out:
        Path(s.out).write_text(text + "\n", encoding="utf-8")
        manifest.finish([s.out])
    return EXIT_OK


def cmd_index(s: Settings) -> int:
    from .retrieval import build_cache, save_cache

    scorer = _load_scorer("index", s.checkpoint, s.vocab, s.precision, ("bi", "poly"))
    candidates = _read_candidates(s.candidates)
    manifest = Manifest(str(s.out) + ".manifest.json", "index", s)
    cache = build_cache(candidates, scorer)
    save_cache(cache, s.out)
    manifest.finish([s.out])
    print(f"indexed {cache.size} candidates -> {s.out}")
    return EXIT_OK


def cmd_rank(s: Settings) -> int:
    from .retrieval import build_cache, load_cache, rank
    from .text import read_lines

    scorer = _load_scorer("rank", s.checkpoint, s.vocab, s.precision, ("bi", "poly", "cross"))
    kind = scorer.model.kind

    if kind != "cross" and not s.no_cache and s.cache is not None:
        pool = load_cache(s.cache, s.precision)
    elif not s.candidates:
        raise ConfigError("cross ranking needs --candidates (no cache possible)" if kind == "cross"
                          else "rank needs --cache, or --candidates for the no-cache path")
    else:
        pool = _read_candidates(s.candidates)
        if kind != "cross":
            pool = build_cache(pool, scorer)

    manifest = Manifest(str(s.out) + ".manifest.json", "rank", s)
    k = s.k
    n_cands = len(pool) if kind == "cross" else pool.size
    if k > n_cands:
        print(f"warning: k={k} clamped to {n_cands} candidates", file=sys.stderr)
        k = n_cands

    with open(s.out, "w", encoding="utf-8") as out:
        for lineno, line in enumerate(read_lines(s.queries)):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                turns = obj["context"]
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ParseError(f"{s.queries}:{lineno + 1}: bad query line ({e})") from e
            if not isinstance(turns, list) or not all(isinstance(t, str) for t in turns):
                raise ParseError(f"{s.queries}:{lineno + 1}: 'context' must be an array "
                                 f"of strings, got {turns!r}")
            res = rank(scorer, turns, pool, k)
            out.write(json.dumps({
                "query_id": obj.get("query_id", lineno),
                "ranking": [{"id": cid, "score": score} for cid, score in res.ranking],
            }) + "\n")
    manifest.finish([s.out])
    print(f"ranked queries -> {s.out}")
    return EXIT_OK


def cmd_bench(s: Settings) -> int:
    from .bench import (BenchSpec, make_bench_models, report_table, report_to_jsonl,
                        run_bench, synthetic_texts)
    from .encoder import ModelConfig
    from .text import Vocabulary

    spec = BenchSpec(architectures=s.arch, candidate_counts=s.candidates,
                     n_queries=s.queries, warmup_queries=s.warmup,
                     context_tokens=s.context_tokens, candidate_tokens=s.candidate_tokens,
                     extrapolate_cross_from=s.extrapolate_cross_from, seed=s.seed)
    manifest = Manifest(str(s.out) + ".manifest.json", "bench", s) if s.out else None
    rng = np.random.Generator(np.random.PCG64(s.seed))
    words = [f"w{i:04d}" for i in range(max(5, s.vocab_size - 4))]
    vocab = Vocabulary(words)
    cfg = ModelConfig(vocab_size=len(vocab))
    models = make_bench_models(cfg, spec.architectures, s.seed)
    if s.candidate_file:
        pool = _read_candidates(s.candidate_file)
    else:
        pool = synthetic_texts(vocab, max(spec.candidate_counts, default=1),
                               spec.candidate_tokens, rng)
    n_queries = min(spec.n_queries + spec.warmup_queries, 64)
    queries = [[q] for q in synthetic_texts(vocab, n_queries, spec.context_tokens, rng)]
    report = run_bench(spec, models, vocab, pool, queries)
    print(report_table(report))
    if s.out:
        Path(s.out).write_text(report_to_jsonl(report), encoding="utf-8")
        manifest.finish([s.out])
    return EXIT_OK


def cmd_synth(s: Settings) -> int:
    from .synth import make_chain_corpus, make_overlap_dataset, write_jsonl

    out_dir = Path(s.out_dir)
    manifest = Manifest(out_dir / "manifest.json", "synth", s)
    if s.task == "overlap":
        train, test = make_overlap_dataset(s.n_train, s.n_test, seed=s.seed)
        write_jsonl(train, out_dir / "train.jsonl")
        write_jsonl(test, out_dir / "test.jsonl")
        outputs = [out_dir / "train.jsonl", out_dir / "test.jsonl"]
    else:
        corpus = make_chain_corpus(s.n_train, seed=s.seed)
        write_jsonl(corpus, out_dir / "corpus.jsonl")
        outputs = [out_dir / "corpus.jsonl"]
    manifest.finish(outputs)
    print(f"wrote {s.task} dataset to {out_dir}")
    return EXIT_OK


# ---- settings: one table per command drives its flags, config keys and checks ----


def _precision(default: int) -> Setting:
    return Setting("precision", "precision", default, "float width in bits", choices=(32, 64))


_MODEL = (Setting("checkpoint", "path", required=True),
          Setting("vocab", "path", required=True, help="the checkpoint's vocabulary file"))

COMMANDS = {  # name: (function, help, settings)
    "pretrain": (cmd_pretrain, "alternating masked-token / next-utterance pre-training", (
        Setting("corpus", "path", required=True, help="JSONL of consecutive (input, next) pairs"),
        Setting("out_dir", required=True),
        Setting("seed", "int", required=True),
        Setting("steps", "int", 50, minimum=0),
        Setting("batch_size", "int", 8, minimum=1),
        Setting("batch_tokens", "int", help="optional length-bucketed token-count batching"),
        Setting("vocab", "path", help="reuse an existing vocabulary file"),
        Setting("vocab_size", "int", 256),
        Setting("valid", "path", help="JSONL for the validation loss"),
        Setting("layers", "int", 2, minimum=1),
        Setting("heads", "int", 2, minimum=1),
        Setting("hidden", "int", 32, minimum=1),
        Setting("ffn_hidden", "int", 64, minimum=1),
        Setting("max_positions", "int", 64, minimum=1),
        Setting("dropout", "float", 0.1),
        Setting("lr", "float", 2e-4),
        Setting("warmup", "int", 100, minimum=1),
        Setting("beta1", "float", 0.9),
        Setting("beta2", "float", 0.98),
        Setting("weight_decay", "float", 0.0),
        Setting("eval_interval", "int", 10, minimum=1),
        Setting("init_checkpoint", "path", help="continue from this pretrain checkpoint"),
        _precision(64),
    )),
    "train": (cmd_train, "fine-tune a bi/poly/cross scorer from a base checkpoint", (
        Setting("data", "path", required=True),
        Setting("valid", "path", help="validation JSONL; default a tail slice of --data"),
        *_MODEL,
        Setting("out_dir", required=True),
        Setting("seed", "int", required=True),
        Setting("arch", "str", "bi", "bi | cross | poly:<m> | poly:<variant>:<m>",
                check=parse_arch),
        Setting("freeze", "str", "every_layer", choices=FREEZE_SPECS),
        Setting("steps", "int", 200, minimum=0),
        Setting("batch_size", "int", 32, minimum=1),
        Setting("optimizer", "str", ADAM_DECAY, choices=OPTIMIZER_KINDS),
        Setting("lr", "float", 5e-5),
        Setting("warmup", "int", help="default 1000 for cross, 100 otherwise", minimum=1),
        Setting("eval_interval", "int", help="default half an epoch", minimum=1),
        Setting("neg_mode", "str", "sampled", choices=NEG_MODES),
        Setting("n_candidates", "int", 16, "cross: gold plus negatives", minimum=2),
        Setting("reduction", "str", "first", "first | avg_all | avg_first:<m>",
                check=parse_reduction),
        Setting("rescale_std", "float"),
        Setting("augment_history", "flag", False),
        _precision(64),
    )),
    "eval": (cmd_eval, "R@k and MRR over a candidates dataset", (
        Setting("data", "path", required=True),
        *_MODEL,
        Setting("k", "ints", "1,2,5", "comma-separated k list"),
        Setting("max_examples", "int", minimum=1, help="evaluate the first N examples only"),
        Setting("out"),
        _precision(64),
    )),
    "index": (cmd_index, "precompute a candidate-embedding cache", (
        Setting("candidates", "path", required=True, help="text file, one candidate per line"),
        *_MODEL,
        Setting("out", required=True),
        _precision(32),
    )),
    "rank": (cmd_rank, "rank candidates for each query", (
        Setting("queries", "path", required=True, help='JSONL, {"context": [...]} per line'),
        *_MODEL,
        Setting("cache", "path"),
        Setting("candidates", "path"),
        Setting("no_cache", "flag", False),
        Setting("k", "int", 10, minimum=1),
        Setting("out", required=True),
        _precision(32),
    )),
    "bench": (cmd_bench, "latency by architecture and candidate count", (
        Setting("arch", "strs", "bi,poly:16,cross", "comma-separated architectures"),
        Setting("candidates", "ints", "1000,10000", "comma-separated candidate counts"),
        Setting("queries", "int", 100),
        Setting("warmup", "int", 10),
        Setting("extrapolate_cross_from", "int", help="time cross at this many candidates "
                                                      "and scale linearly"),
        Setting("context_tokens", "int", 64),
        Setting("candidate_tokens", "int", 16),
        Setting("vocab_size", "int", 256),
        Setting("candidate_file", "path", help="candidate pool, one per line; default synthetic"),
        Setting("seed", "int", 0),
        Setting("out"),
    )),
    "synth": (cmd_synth, "generate synthetic datasets", (
        Setting("task", "str", "overlap", choices=("overlap", "chain")),
        Setting("out_dir", required=True),
        Setting("seed", "int", 0),
        Setting("n_train", "int", 200),
        Setting("n_test", "int", 50),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyscore",
                                     description="Candidate-selection engine: train, "
                                                 "index, rank and benchmark bi/poly/cross scorers.")
    parser.add_argument("--version", action="version", version=f"polyscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, table) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for s in table:
            extra = (f" (default {s.default})" if s.default is not None and s.type != "flag"
                     else " (required)" if s.required else "")
            kwargs = ({"action": "store_const", "const": True} if s.type == "flag"
                      else {"type": _CASTS[s.type], "choices": s.choices})
            p.add_argument("--" + s.key.replace("_", "-"), dest=s.key,
                           help=(s.help + extra).strip(), **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(resolve(args))
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
