"""Pre-training and fine-tuning: task batch construction, parameter freezing,
final-layer rescaling and the one step loop both run on.

Pre-training strictly alternates masked-token batches with next-utterance
batches (M, N, M, N, ...). Fine-tuning trains one of the three scoring
architectures; Bi/Poly use in-batch negatives, Cross uses external negatives.
The step loop backpropagates a step's loss parts one at a time and sums them:
one part, or for Cross parts of at most CROSS_PART_PAIRS pairs. Every batch
loss runs dropout exactly when it is given a dropout rng.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import TransformerWeights, forward
from .errors import ConfigError, ContractError
from .heads import cross_score
from .losses import cross_entropy_rows, in_batch_loss, masked_token_loss
from .model import Model, Scorer
from .optim import Optimizer, OptimizerConfig
from .tensor import Tensor, backward
from .text import MASK_ID, RESERVED, TokenBatch, TokenizedPair, encode_pair

MLM_RATE = 0.15
MLM_MASK_FRACTION = 0.8
MLM_RANDOM_FRACTION = 0.1  # remaining 0.1 keeps the original token
VALID_SAMPLE = 64  # the validation losses read the first this many examples
# Pairs per Cross part, so a step's peak memory does not grow with its batch:
# a part's float64 [16, heads, 64, 64] attention arrays (1 MB) fit a 2 MiB L2.
# One example a part cost 34-50% per step on small examples; 16 pairs, -3% to +7%.
CROSS_PART_PAIRS = 16

FREEZE_SPECS = ("top_layer", "top4_layers", "all_but_embeddings", "every_layer")
NEG_MODES = ("sampled", "provided")  # cross negatives: from the train golds, or the example's own
EMBEDDING_TABLES = ("embeddings.token", "embeddings.position", "embeddings.segment")

_LAYER_RE = re.compile(r"(?:^|\.)layers\.(\d+)\.")


def batch_kind(step: int) -> str:
    """Strict M, N, M, N alternation; steps are 1-based."""
    if step < 1:
        raise ContractError(f"step must be >= 1, got {step}")
    return "mlm" if step % 2 == 1 else "next"


def mlm_corrupt(tp: TokenizedPair, rate: float, rng: np.random.Generator,
                vocab_size: int) -> tuple[TokenizedPair, list[tuple[int, int]]]:
    """BERT-style corruption: select non-special tokens with prob `rate`;
    of those 80% become MASK, 10% a random word, 10% stay put.

    Returns the corrupted pair and (position, original id) targets.
    """
    if not 0.0 < rate < 1.0:
        raise ContractError(f"corruption rate must be in (0,1), got {rate}")
    n_reserved = len(RESERVED)
    ids = list(tp.token_ids)
    targets = []
    picks = rng.random(len(ids))
    for pos, tok in enumerate(ids):
        if tok < n_reserved or picks[pos] >= rate:
            continue
        targets.append((pos, tok))
        action = rng.random()
        if action < MLM_MASK_FRACTION:
            ids[pos] = MASK_ID
        elif action < MLM_MASK_FRACTION + MLM_RANDOM_FRACTION:
            ids[pos] = int(rng.integers(n_reserved, vocab_size))
    return TokenizedPair(tuple(ids), tp.segment_ids), targets


def next_selection_batch(examples, rng: np.random.Generator,
                         batch_size: int) -> list[tuple[str, str, int]]:
    """Balanced positive/negative (input, candidate, label) triples.

    Negatives are other examples' gold labels, resampled on collision with
    the true continuation.
    """
    examples = list(examples)
    if len(examples) < 2:
        raise ContractError(f"next-selection batches need >= 2 examples, got {len(examples)}")
    golds = [ex.gold for ex in examples]
    batch = []
    for _ in range(batch_size):
        ex = examples[int(rng.integers(len(examples)))]
        if rng.random() < 0.5:
            batch.append((ex.context_text, ex.gold, 1))
        else:
            batch.append((ex.context_text, _sample_negatives(ex.gold, golds, rng, 1)[0], 0))
    return batch


def freeze_filter(spec: str, names) -> set[str]:
    """Trainable parameter names under a freezing policy.

    Head parameters (anything outside the towers' layers/embeddings) are
    always trainable; `all_but_embeddings` freezes exactly the three
    embedding tables.
    """
    names = list(names)
    if spec not in FREEZE_SPECS:
        raise ConfigError(f"unknown freeze spec {spec!r}; choose from {FREEZE_SPECS}")
    if spec == "every_layer":
        return set(names)
    if spec == "all_but_embeddings":
        return {n for n in names if not n.endswith(EMBEDDING_TABLES)}
    layer_ids = [int(m.group(1)) for n in names for m in [_LAYER_RE.search(n)] if m]
    n_layers = max(layer_ids) + 1 if layer_ids else 0
    keep = 1 if spec == "top_layer" else min(4, n_layers)
    kept_layers = set(range(n_layers - keep, n_layers))
    out = set()
    for n in names:
        m = _LAYER_RE.search(n)
        if m:
            if int(m.group(1)) in kept_layers:
                out.add(n)
        elif ".embeddings." not in n and not n.startswith("embeddings."):
            out.add(n)  # head parameter
    return out


def apply_freeze(model: Model, spec: str) -> set[str]:
    """Mark trainable params per the spec; frozen ones never receive grads."""
    params = model.named_parameters()
    trainable = freeze_filter(spec, params)
    for name, t in params.items():
        t.requires_grad = name in trainable
    return trainable


def rescale_final_layer(w: TransformerWeights, target_std: float,
                        probes: list[TokenizedPair]) -> tuple[TransformerWeights, float]:
    """Scale the last block's FFN output projection so its output std on the
    probe batch (real positions only, one padded forward) equals target_std.
    Returns (new weights, applied factor)."""
    if target_std <= 0:
        raise ContractError(f"target_std must be positive, got {target_std}")
    if not probes:
        raise ContractError("rescaling needs a non-empty probe batch")
    batch = TokenBatch.of(probes)
    taps: dict = {}
    forward(batch, w, taps=taps)
    std = float(taps["last_ffn_out"].data[batch.pad_mask.ravel()].std())
    if std <= 0 or not np.isfinite(std):
        raise ContractError("probe output has zero variance; cannot rescale")
    factor = target_std / std
    last = w.cfg.layers - 1
    scaled = w.copy()
    scaled.params[f"layers.{last}.ffn.out.weight"].data *= factor
    scaled.params[f"layers.{last}.ffn.out.bias"].data *= factor
    return scaled, factor


class MetricsLog:
    """JSON-lines eval log: {step, train_loss, valid_loss, lr, wall_clock_s}."""

    def __init__(self, path=None):
        self.path = path
        self.rows: list[dict] = []
        self._start = time.perf_counter()

    def log(self, step: int, train_loss: float, valid_loss, lr: float) -> None:
        row = {
            "step": step,
            "train_loss": float(train_loss),
            "valid_loss": None if valid_loss is None else float(valid_loss),
            "lr": float(lr),
            "wall_clock_s": time.perf_counter() - self._start,
        }
        self.rows.append(row)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(json.dumps(row) + "\n")


def training_data(kind: str, examples, valid_examples, neg_mode: str) -> tuple[list, list]:
    """The training examples and the validation sample the step loop reads,
    checked before step 1: pre-training and in-batch sets need two examples
    (a run may have no validation set), and an example that draws negatives
    from golds needs a gold other than its own (next-utterance batches draw
    from their own set, cross_batch_loss from the training golds)."""
    train, sample = list(examples), list(valid_examples or [])[:VALID_SAMPLE]
    for what, data in (("training", train), ("validation", sample)):
        if len(data) < (1 if kind == "cross" else 2) and (data or what == "training"):
            raise ContractError(f"{kind} {what} data has too few examples: {len(data)}")
        golds = {ex.gold for ex in (train if kind == "cross" else data)}
        if len(golds) < 2 and any(len(golds) <= (ex.gold in golds)  # no gold but its own
                                  for ex in data if kind == "pretrain" or kind == "cross"
                                  and (neg_mode == "sampled" or len(ex.candidates) < 2)):
            raise ContractError(f"{kind} {what} data: negatives drawn from golds need "
                                "two distinct golds")
    return train, sample


def _step_gradients(parts, params) -> tuple[dict, float]:
    """A step's gradients and loss from the scalar parts its loss sums: each
    part's backward runs before the next part's forward, so one part's tape
    is alive at a time. One part's gradients are taken as they come; sums are
    new arrays, as backward may hand two parameters one array."""
    grads, loss = None, 0.0
    for part in parts:
        part_grads = backward(part, params)
        loss += part.item()
        del part  # freed before the next part's forward
        grads = part_grads if grads is None else {t: grads[t] + g for t, g in part_grads.items()}
    return grads, loss


def _train(model: Model, opt_cfg: OptimizerConfig, steps: int, seed: int, freeze: str,
           step_loss, metrics_path, sample, valid_loss) -> MetricsLog:
    """The step loop both trainers share, over the parameters `freeze` marks:
    each step the summed parts of `step_loss(step, data_rng, drop_rng)` (see
    _step_gradients), and at each eval a log row with `valid_loss(sample, rng)`,
    which the plateau schedule observes, on the validation sample and one rng
    seed per run."""
    data_rng, drop_rng, valid_seed_rng = [np.random.Generator(np.random.PCG64(s))
                                          for s in np.random.SeedSequence(seed).spawn(3)]
    valid_seed = int(valid_seed_rng.integers(2**31))
    params = model.named_parameters()
    opt = Optimizer(opt_cfg, {n: params[n] for n in sorted(apply_freeze(model, freeze))})
    log = MetricsLog(metrics_path)
    running = []
    for step in range(1, steps + 1):
        grads, loss = _step_gradients(step_loss(step, data_rng, drop_rng),
                                      opt.trainable.values())
        lr = opt.step({n: grads[t] for n, t in opt.trainable.items()}, step)
        running.append(loss)
        if step % opt_cfg.eval_interval == 0 or step == steps:
            valid = None
            if sample:
                valid = valid_loss(sample, np.random.Generator(np.random.PCG64(valid_seed)))
                opt.plateau.observe(valid)
            log.log(step, np.mean(running), valid, lr)
            running = []
    return log


# ---- pre-training ----


def mlm_logits(model: Model, rows: Tensor) -> Tensor:
    """Masked-token head: dense + GELU + layer norm, tied output projection."""
    e = model.extras
    x = T.linear(rows, e["mlm.transform.weight"], e["mlm.transform.bias"])
    x = T.layer_norm(T.gelu(x), e["mlm.norm.gain"], e["mlm.norm.bias"])
    tok = model.towers["enc"]["embeddings.token"]
    return T.add(T.matmul(x, T.transpose(tok)), e["mlm.out_bias"])


def mlm_batch_loss(model: Model, vocab, examples, data_rng, drop_rng=None) -> Tensor:
    """Mean masked-token loss over a batch of (context, gold) pairs, from one
    padded forward that stops at the target positions; examples left with no
    target are skipped, and a draw that leaves the whole batch none is drawn
    again."""
    pairs = [encode_pair(ex.context_text, ex.gold, vocab, model.cfg.max_positions)
             for ex in examples]
    if all(tok < len(RESERVED) for tp in pairs for tok in tp.token_ids):
        raise ContractError("no maskable tokens in batch")
    targets = []  # per kept row, its (position, original id) pairs
    while not targets:
        corrupted = []
        for pair in pairs:
            tp, found = mlm_corrupt(pair, MLM_RATE, data_rng, len(vocab))
            if found:
                targets.append(found)
                corrupted.append(tp)
    r = max(map(len, targets))  # a row's spare slots repeat its last target
    rows = np.array([[pos for pos, _ in t] + [t[-1][0]] * (r - len(t)) for t in targets])
    out = forward(TokenBatch.of(corrupted), model.towers["enc"], rng=drop_rng, rows=rows)
    slots = [i * r + j for i, t in enumerate(targets) for j in range(len(t))]
    states = T.reshape(out.hidden_states, (len(targets) * r, model.cfg.hidden))
    picked = T.gather_rows(states, slots)
    return masked_token_loss(mlm_logits(model, picked), [tok for t in targets for _, tok in t])


def next_batch_loss(model: Model, vocab, triples, drop_rng=None) -> Tensor:
    """Mean binary next-utterance loss over (input, candidate, label) triples,
    from one padded forward. Each score is a logit against a fixed 0, so label
    1 is column 1 of the [B, 2] logits."""
    pairs = [encode_pair(inp, cand, vocab, model.cfg.max_positions) for inp, cand, _ in triples]
    scores = cross_score(TokenBatch.of(pairs), model.towers["enc"], model.extras["next.w"],
                         rng=drop_rng)
    logits = T.transpose(T.stack([np.zeros(scores.shape, dtype=scores.dtype), scores]))
    return cross_entropy_rows(logits, [label for _, _, label in triples])


def _token_buckets(examples, vocab, max_positions: int, batch_tokens: int):
    """Group length-sorted examples into batches of at most batch_tokens tokens."""
    lengths = []
    for idx, ex in enumerate(examples):
        pair = encode_pair(ex.context_text, ex.gold, vocab, max_positions)
        lengths.append((len(pair), idx))
    lengths.sort()
    buckets, current, total = [], [], 0
    for length, idx in lengths:
        if current and total + length > batch_tokens:
            buckets.append(current)
            current, total = [], 0
        current.append(idx)
        total += length
    if current:
        buckets.append(current)
    return buckets


def pretrain_loop(model: Model, vocab, examples, opt_cfg: OptimizerConfig, steps: int,
                  batch_size: int, seed: int, metrics_path=None, valid_examples=None,
                  batch_tokens: int | None = None) -> MetricsLog:
    """Alternating MLM / next-utterance pre-training over (input, next) pairs."""
    examples, sample = training_data("pretrain", examples, valid_examples, "sampled")
    buckets = None
    if batch_tokens is not None:
        buckets = _token_buckets(examples, vocab, model.cfg.max_positions, batch_tokens)

    def step_loss(step, data_rng, drop_rng):
        if buckets is not None:
            batch_idx = buckets[int(data_rng.integers(len(buckets)))]
        else:
            batch_idx = data_rng.integers(len(examples), size=batch_size)
        batch = [examples[int(i)] for i in batch_idx]
        if batch_kind(step) == "mlm":
            return [mlm_batch_loss(model, vocab, batch, data_rng, drop_rng)]
        triples = next_selection_batch(examples, data_rng, len(batch))
        return [next_batch_loss(model, vocab, triples, drop_rng)]

    return _train(model, opt_cfg, steps, seed, "every_layer", step_loss, metrics_path, sample,
                  lambda sample, rng: pretrain_valid_loss(model, vocab, sample, rng))


def pretrain_valid_loss(model: Model, vocab, sample, rng) -> float:
    """MLM + next losses, without dropout, on the validation sample."""
    mlm = mlm_batch_loss(model, vocab, sample, rng)
    nxt = next_batch_loss(model, vocab, next_selection_batch(sample, rng, min(len(sample), 16)))
    return 0.5 * (mlm.item() + nxt.item())


# ---- fine-tuning ----


@dataclass
class FinetuneSettings:
    steps: int = 200
    batch_size: int = 32
    freeze: str = "every_layer"
    neg_mode: str = "sampled"  # cross only, one of NEG_MODES
    n_candidates: int = 16  # cross only: gold + 15 negatives
    seed: int = 0

    def __post_init__(self):
        if self.neg_mode not in NEG_MODES:
            raise ConfigError(f"unknown negatives mode {self.neg_mode!r}")
        if self.n_candidates < 2:
            raise ConfigError(f"n_candidates must be >= 2, got {self.n_candidates}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def _sample_negatives(gold: str, pool: list[str], rng, count: int) -> list[str]:
    negs = []
    while len(negs) < count:
        neg = pool[int(rng.integers(len(pool)))]
        if neg != gold:
            negs.append(neg)
    return negs


def bi_batch_loss(scorer: Scorer, batch, rng=None) -> Tensor:
    """In-batch negatives over one context forward and one candidate forward."""
    y_ctxt = scorer.context_vectors([ex.context for ex in batch], rng)
    y_cand = scorer.candidate_vectors([ex.gold for ex in batch], rng)
    loss, _ = in_batch_loss(y_ctxt, y_cand)
    return loss


def poly_batch_loss(scorer: Scorer, batch, rng=None) -> Tensor:
    """In-batch negatives: the `T.poly_scores` of every candidate against every
    context's vectors, so logits[i, j] scores context i against candidate j."""
    b = len(batch)
    if b < 2:
        raise ContractError(f"in-batch negatives need batch size >= 2, got {b}")
    y_cand = scorer.candidate_vectors([ex.gold for ex in batch], rng)  # [B, H]
    vecs, valid = scorer.poly_context([ex.context for ex in batch], rng)  # [B, m', H]
    return cross_entropy_rows(T.poly_scores(vecs, y_cand, valid), np.arange(b))


def cross_batch_loss(scorer: Scorer, batch, pool, settings: FinetuneSettings,
                     data_rng, drop_rng=None):
    """External negatives: the gold then its negatives for every example, in
    lazy parts of whole examples, at most CROSS_PART_PAIRS pairs (or one
    example) a forward. A part's loss is its cross-entropy sum over len(batch),
    so the parts sum to the batch mean, and every negative and dropout draw is
    that of one forward over the batch. Examples with fewer provided negatives
    get -inf logits in their part's missing columns."""
    pairs, counts = [], []
    for ex in batch:
        if settings.neg_mode == "provided" and len(ex.candidates) > 1:
            negs = [c for i, c in enumerate(ex.candidates) if i != ex.label_index]
            negs = negs[: settings.n_candidates - 1]
        else:
            negs = _sample_negatives(ex.gold, pool, data_rng, settings.n_candidates - 1)
        if counts and len(pairs) + 1 + len(negs) > CROSS_PART_PAIRS:
            yield _cross_part_loss(scorer, pairs, counts, len(batch), drop_rng)
            pairs, counts = [], []
        pairs += scorer.cross_pairs(ex.context, [ex.gold, *negs])
        counts.append(1 + len(negs))
    yield _cross_part_loss(scorer, pairs, counts, len(batch), drop_rng)


def _cross_part_loss(scorer: Scorer, pairs, counts, denominator: int, drop_rng) -> Tensor:
    """A part's cross-entropy sum over `denominator`, from one padded forward."""
    scores = scorer.cross_scores(pairs, drop_rng)  # [P]
    counts = np.asarray(counts)
    slot = np.arange(counts.max())
    real = slot < counts[:, None]  # [B, n]
    idx = np.where(real, (np.cumsum(counts) - counts)[:, None] + slot, 0)
    logits = T.reshape(T.gather_rows(T.reshape(scores, (len(pairs), 1)), idx.ravel()),
                       real.shape)
    logits = T.add(logits, np.where(real, 0.0, -np.inf).astype(scores.dtype))
    return cross_entropy_rows(logits, np.zeros(len(counts)), denominator)


def finetune_valid_loss(model: Model, scorer: Scorer, sample, pool,
                        settings: FinetuneSettings, rng) -> float:
    """The fine-tuning loss, without dropout, on the validation sample."""
    if model.kind == "cross":  # in parts, as in training
        return sum(map(Tensor.item, cross_batch_loss(scorer, sample, pool, settings, rng)))
    b = max(2, min(settings.batch_size, len(sample)))
    fn = bi_batch_loss if model.kind == "bi" else poly_batch_loss
    return float(np.mean([fn(scorer, sample[i:i + b]).item()
                          for i in range(0, len(sample) - b + 1, b)]))


def finetune_loop(model: Model, vocab, train_examples, valid_examples,
                  opt_cfg: OptimizerConfig, settings: FinetuneSettings,
                  metrics_path=None) -> MetricsLog:
    """Fine-tune a bi/poly/cross model; freezing per settings.freeze."""
    if model.kind not in ("bi", "poly", "cross"):
        raise ConfigError(f"cannot fine-tune a {model.kind} model")
    train_examples, sample = training_data(model.kind, train_examples, valid_examples,
                                           settings.neg_mode)
    scorer = Scorer(model, vocab)
    pool = [ex.gold for ex in train_examples]
    b = settings.batch_size
    if model.kind != "cross":
        b = max(2, min(b, len(train_examples)))

    def step_loss(step, data_rng, drop_rng):
        if model.kind == "cross":
            idx = data_rng.integers(len(train_examples), size=b)
        else:
            idx = data_rng.choice(len(train_examples), size=b, replace=False)
        batch = [train_examples[int(i)] for i in idx]
        if model.kind == "bi":
            return [bi_batch_loss(scorer, batch, drop_rng)]
        if model.kind == "poly":
            return [poly_batch_loss(scorer, batch, drop_rng)]
        return cross_batch_loss(scorer, batch, pool, settings, data_rng, drop_rng)

    return _train(model, opt_cfg, settings.steps, settings.seed, settings.freeze, step_loss,
                  metrics_path, sample, lambda sample, rng: finetune_valid_loss(
                      model, scorer, sample, pool, settings, rng))
