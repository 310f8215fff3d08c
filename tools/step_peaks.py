"""The tracemalloc peak of one training step of each kind, at given batch sizes.

    python3 tools/step_peaks.py DATA [--seed N] [--batch B ...] [--kinds K ...]

For each kind (`bi`, `poly16` with learnt codes, `cross` and `pretrain`) and
each batch size, it runs one 1-step `finetune_loop` (one `pretrain_loop`
step for `pretrain`) under `tracemalloc`, and prints the step's peak above
the bytes held before it, in MB, as one JSON object.

DATA is `probe` or a benchmark workload name:
  - `probe`: `make_overlap_dataset(600, 10, seed=8)`, a 600-word
    vocabulary and the default ModelConfig, the in-batch peak probe of the
    ROADMAP (bounded-memory in-batch steps);
  - `serve-bigcache`, `rerank-longctx` or `train-finetune`: that workload's
    training examples at `--seed` from perfbench/workloads.py, with the
    benchmark's 256-word vocabulary and its training settings.
Without `--batch`, each kind runs at the benchmark's batch size (bi and
poly:16 16, cross 4, pre-training 12). Cross steps sample 16 candidates per
example, as the benchmark does. Models are random-init and float64, and
every measurement starts from a freshly made model. Set
POLYSCORE_THREADS=1 (or the BLAS thread variables) for repeatable numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# polyscore first: it applies POLYSCORE_THREADS before numpy loads BLAS
from polyscore import optim, synth, text, training  # noqa: E402
from polyscore.encoder import ModelConfig  # noqa: E402
from polyscore.model import Model  # noqa: E402

import numpy as np  # noqa: E402

KINDS = {"bi": ("bi", None), "poly16": ("poly", 16), "cross": ("cross", None),
         "pretrain": ("pretrain", None)}
BENCH_BATCH = {"bi": 16, "poly16": 16, "cross": 4, "pretrain": 12}
CROSS_CANDIDATES = 16


def examples(data: str, seed: int) -> tuple[list, int]:
    """(training examples, vocabulary size) of DATA."""
    if data == "probe":
        return synth.make_overlap_dataset(600, 10, seed=8)[0], 600
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Inputs
    return Inputs(WORKLOADS[data], seed).train, 256


def peak_mb(call) -> float:
    """Peak traced bytes of call() above those traced before it, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def step(kind: str, base: Model, vocab, train, batch: int, seed: int):
    """One 1-step training call of `kind` on a fresh model, with the benchmark's settings."""
    arch, m = KINDS[kind]
    if arch == "pretrain":
        model = Model.init_pretrain(base.cfg, np.random.Generator(np.random.PCG64(seed)))
        cfg = optim.pretraining_config(lr=2e-4, warmup_steps=100, eval_interval=1)
        return lambda: training.pretrain_loop(model, vocab, train, cfg, 1, batch, seed)
    model = base.derive(arch, np.random.Generator(np.random.PCG64(seed)),
                        poly_variant="learnt" if m else None, poly_m=m)
    cfg = optim.OptimizerConfig(lr=5e-5, warmup_steps=1000 if arch == "cross" else 100,
                                eval_interval=1)
    settings = training.FinetuneSettings(steps=1, batch_size=batch, seed=seed,
                                         n_candidates=CROSS_CANDIDATES)
    return lambda: training.finetune_loop(model, vocab, train, None, cfg, settings)


def peaks(data: str, seed: int, batches: list[int] | None, kinds: list[str]) -> dict:
    train, vocab_size = examples(data, seed)
    vocab = text.build_vocab(text.example_token_stream(train), vocab_size)
    base = Model.init_pretrain(ModelConfig(vocab_size=len(vocab)),
                               np.random.Generator(np.random.PCG64([seed, 1])))
    out = {}
    for kind in kinds:
        for batch in batches or [BENCH_BATCH[kind]]:
            call = step(kind, base, vocab, train, batch, seed)
            out.setdefault(kind, {})[str(batch)] = round(peak_mb(call), 2)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("data", choices=["probe", "serve-bigcache", "rerank-longctx",
                                     "train-finetune"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--batch", type=int, nargs="+", help="batch sizes (default: the benchmark's)")
    ap.add_argument("--kinds", nargs="+", choices=list(KINDS), default=list(KINDS))
    args = ap.parse_args(argv)
    result = peaks(args.data, args.seed, args.batch, args.kinds)
    print(json.dumps({"data": args.data, "seed": args.seed, "peak_mb": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
