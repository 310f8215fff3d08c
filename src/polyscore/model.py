"""Model containers, checkpoint serialization and the text-level scorer.

A Model bundles one or two encoder towers with head parameters:

    pretrain  one tower "enc" + masked-token head + next-utterance head
    bi        towers "ctxt"/"cand", no head parameters
    poly      towers "ctxt"/"cand" + context codes for the learnt variant
    cross     one tower "enc" + scalar scoring layer

Checkpoints are single files: magic, version, a canonical JSON header
(ModelConfig plus head hyperparameters), then length-prefixed parameter
records sorted by name with 64-bit little-endian values. Re-saving a loaded
checkpoint reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import tensor as T
from .encoder import ModelConfig, TransformerOutput, TransformerWeights, forward, \
    init_parameters
from .errors import ConfigError, ShapeError
from .heads import POLY_VARIANTS, cross_score, parse_reduction, poly_context_vectors, \
    reduce_output
from .records import RecordReader, RecordWriter
from .tensor import Tensor
from .text import TokenBatch, TokenizedPair, Vocabulary, encode_pair, encode_pairs, \
    encode_single, flatten_context

MAGIC = b"PLYSCKPT"
FORMAT_VERSION = 1
TOWERS = {"pretrain": ("enc",), "bi": ("ctxt", "cand"), "poly": ("ctxt", "cand"),
          "cross": ("enc",)}  # tower names by model kind
KINDS = tuple(TOWERS)

# ingestion caps for context/candidate token counts
MAX_CONTEXT_TOKENS = 360
MAX_CANDIDATE_TOKENS = 72


def _extra_shapes(cfg: ModelConfig, kind: str, poly_variant=None, poly_m=None) -> dict[str, tuple]:
    """Head parameters each model kind carries, by name, in init order. A
    poly kind's variant and m are checked here, before any shape uses them."""
    h = cfg.hidden
    if kind == "poly" and (poly_variant not in POLY_VARIANTS or type(poly_m) is not int
                           or poly_m < 1):
        raise ConfigError(f"poly head needs a variant in {POLY_VARIANTS} and an integer "
                          f"m >= 1, got {poly_variant!r} and {poly_m!r}")
    if kind == "pretrain":
        return {"mlm.transform.weight": (h, h), "mlm.transform.bias": (h,),
                "mlm.norm.gain": (h,), "mlm.norm.bias": (h,),
                "mlm.out_bias": (cfg.vocab_size,), "next.w": (h, 1)}
    if kind == "cross":
        return {"cross.w": (h, 1)}
    if kind == "poly" and poly_variant == "learnt":
        return {"poly.codes": (poly_m, h)}
    return {}


class Model:
    """Architecture kind + towers + head parameters + head hyperparameters."""

    def __init__(
        self,
        cfg: ModelConfig,
        kind: str,
        towers: dict[str, TransformerWeights],
        extras: dict[str, Tensor],
        reduction: str = "first",
        poly_variant: str | None = None,
        poly_m: int | None = None,
        fingerprint: str | None = None,
    ):
        if kind not in KINDS:
            raise ConfigError(f"unknown model kind {kind!r}")
        if set(towers) != set(TOWERS[kind]):
            raise ConfigError(f"kind {kind} needs towers {sorted(TOWERS[kind])}, got {sorted(towers)}")
        parse_reduction(reduction)
        want = _extra_shapes(cfg, kind, poly_variant, poly_m)
        got = {n: t.shape for n, t in extras.items()}
        if got != want:
            raise ShapeError(f"head parameters {got} do not match kind {kind!r}: want {want}")
        self.cfg = cfg
        self.kind = kind
        self.towers = towers
        self.extras = extras
        self.reduction = reduction
        self.poly_variant = poly_variant
        self.poly_m = poly_m
        self.fingerprint = fingerprint

    # ---- construction ----

    @classmethod
    def init_pretrain(cls, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64) -> "Model":
        tower = TransformerWeights.init(cfg, rng, dtype)
        return cls(cfg, "pretrain", {"enc": tower},
                   init_parameters(_extra_shapes(cfg, "pretrain"), rng, dtype))

    def derive(self, kind: str, rng: np.random.Generator, reduction: str = "first",
               poly_variant: str | None = None, poly_m: int | None = None) -> "Model":
        """Fine-tune start: duplicate the encoder per side, init fresh heads."""
        if self.kind != "pretrain":
            raise ConfigError(f"can only derive from a pretrain model, not {self.kind}")
        if kind not in ("bi", "poly", "cross"):
            raise ConfigError(f"cannot derive model kind {kind!r}")
        if kind != "poly":
            poly_variant = poly_m = None
        base = self.towers["enc"]
        extras = init_parameters(_extra_shapes(self.cfg, kind, poly_variant, poly_m), rng,
                                 base.dtype)
        return Model(self.cfg, kind, {p: base.copy() for p in TOWERS[kind]}, extras,
                     reduction=reduction, poly_variant=poly_variant, poly_m=poly_m)

    # ---- parameter access ----

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for prefix, tower in sorted(self.towers.items()):
            for name, t in tower.params.items():
                out[f"{prefix}.{name}"] = t
        out.update(self.extras)
        return out

    @property
    def dtype(self):
        return next(iter(self.towers.values())).dtype

    def astype(self, dtype) -> "Model":
        towers = {
            p: TransformerWeights(
                tw.cfg,
                {n: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
                 for n, t in tw.params.items()},
            )
            for p, tw in self.towers.items()
        }
        extras = {n: Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
                  for n, t in self.extras.items()}
        return Model(self.cfg, self.kind, towers, extras, self.reduction,
                     self.poly_variant, self.poly_m, self.fingerprint)

    # ---- towers ----

    def context_tower(self) -> TransformerWeights:
        return self.towers["ctxt" if "ctxt" in self.towers else "enc"]

    def candidate_tower(self) -> TransformerWeights:
        return self.towers["cand" if "cand" in self.towers else "enc"]


# ---- checkpoint serialization ----


def _header_dict(model: Model) -> dict:
    return {
        "config": model.cfg.to_dict(),
        "kind": model.kind,
        "poly_m": model.poly_m,
        "poly_variant": model.poly_variant,
        "reduction": model.reduction,
        "version": FORMAT_VERSION,
    }


def save_checkpoint(model: Model, path) -> str:
    """Write the checkpoint; returns the file fingerprint (sha256 hex)."""
    w = RecordWriter(MAGIC, FORMAT_VERSION)
    w.text(json.dumps(_header_dict(model), sort_keys=True, separators=(",", ":")))
    records = sorted(model.named_parameters().items())
    w.u32(len(records))
    for name, t in records:
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        w.text(name)
        w.u8(arr.ndim)
        w.u32(*arr.shape)
        w.floats(arr, "<f8")
    w.save(path)
    model.fingerprint = hashlib.sha256(w.data).hexdigest()
    return model.fingerprint


def load_checkpoint(path, dtype=np.float64) -> Model:
    """Read a checkpoint written by save_checkpoint.

    Weights load with requires_grad=False: a loaded model is inference-only
    until a training loop marks the parameters it trains. Any malformed file
    (truncated, trailing bytes, corrupt header or records) raises ParseError.
    """
    r = RecordReader(path, MAGIC, FORMAT_VERSION, "checkpoint")
    try:
        model = _parse_checkpoint(r, dtype)
    except (ValueError, TypeError, KeyError, AttributeError, ConfigError, ShapeError) as e:
        # JSONDecodeError is a ValueError
        raise r.error(f"corrupt checkpoint ({type(e).__name__}: {e})") from e
    model.fingerprint = hashlib.sha256(r.raw).hexdigest()
    return model


def _parse_checkpoint(r: RecordReader, dtype) -> Model:
    header = json.loads(r.text("header"))
    cfg, kind = ModelConfig(**header["config"]), header["kind"]
    if kind not in TOWERS:
        raise r.error(f"unknown model kind {kind!r} in header")
    towers, extras = {p: {} for p in TOWERS[kind]}, {}
    for _ in range(r.u32("record count")):
        name = r.text("name")
        shape = tuple(r.u32("shape") for _ in range(r.u8("ndim")))
        vals = r.floats(math.prod(shape), "<f8", f"values of {name}")
        t = Tensor(vals.reshape(shape).astype(dtype))
        prefix, _, rest = name.partition(".")
        if prefix in towers:
            towers[prefix][rest] = t
        else:
            extras[name] = t
    r.end()
    tower_objs = {p: TransformerWeights(cfg, params) for p, params in towers.items()}
    return Model(cfg, kind, tower_objs, extras, reduction=header["reduction"],
                 poly_variant=header["poly_variant"], poly_m=header["poly_m"])


# ---- text-level scoring frontend ----


class Scorer:
    """Glue from raw text to scores for one model + vocabulary.

    Context turns are flattened, encoded on the context tower and reduced or
    expanded per the model's head; candidates always go through the candidate
    tower. Contexts truncate to 360 tokens and candidates to 72, each cap
    clamped to the model's position table. Every forward is batched; the
    single-sequence methods return row 0 of a batch of one.
    """

    def __init__(self, model: Model, vocab: Vocabulary):
        if len(vocab) != model.cfg.vocab_size:
            raise ConfigError(
                f"vocabulary size {len(vocab)} does not match model vocab_size {model.cfg.vocab_size}"
            )
        self.model = model
        self.vocab = vocab
        cap = model.cfg.max_positions
        self.max_context = min(MAX_CONTEXT_TOKENS, cap)
        self.max_candidate = min(MAX_CANDIDATE_TOKENS, cap)
        self.max_pair = cap

    # encoding

    def encode_context(self, turns) -> TokenizedPair:
        return encode_single(flatten_context(list(turns)), self.vocab, self.max_context)

    def encode_candidate(self, text: str) -> TokenizedPair:
        return encode_single(text, self.vocab, self.max_candidate)

    def encode_cross(self, turns, cand: str) -> TokenizedPair:
        return encode_pair(flatten_context(list(turns)), cand, self.vocab, self.max_pair)

    def cross_pairs(self, turns, cands: list[str]) -> list[TokenizedPair]:
        """encode_cross(turns, c) for each candidate, tokenizing the context once."""
        return encode_pairs(flatten_context(list(turns)), cands, self.vocab, self.max_pair)

    # batches

    def context_outputs(self, contexts, rng=None) -> TransformerOutput:
        """[B, L, hidden] outputs of several contexts from one batched forward;
        dropout runs when an rng is given."""
        batch = TokenBatch.of([self.encode_context(turns) for turns in contexts])
        return forward(batch, self.model.context_tower(), rng=rng)

    def candidate_vectors(self, texts: list[str], rng=None) -> Tensor:
        """[B, hidden] candidate vectors from one batched forward."""
        batch = TokenBatch.of([self.encode_candidate(t) for t in texts])
        out = forward(batch, self.model.candidate_tower(), rng=rng)
        return reduce_output(out, self.model.reduction)

    def cross_scores(self, pairs: list[TokenizedPair], rng=None) -> Tensor:
        """[P] cross scores of encoded (context, candidate) pairs, from one
        batched forward."""
        return cross_score(TokenBatch.of(pairs), self.model.context_tower(),
                           self.model.extras["cross.w"], rng=rng)

    # one sequence: row 0 of a batch of one, its batch axis reshaped away

    def context_vector(self, turns) -> Tensor:
        return _row0(reduce_output(self.context_outputs([turns]), self.model.reduction))

    def candidate_vector(self, text: str) -> Tensor:
        return _row0(self.candidate_vectors([text]))

    def poly_vectors(self, turns) -> Tensor:
        """The context's [m', H] vectors; all of a batch of one's slots are valid."""
        vecs, _ = poly_context_vectors(self.context_outputs([turns]), self.model.poly_variant,
                                       self.model.poly_m, self.model.extras.get("poly.codes"))
        return _row0(vecs)

    def score_cross(self, turns, cand: str) -> Tensor:
        return _row0(self.cross_scores([self.encode_cross(turns, cand)]))


def _row0(t: Tensor) -> Tensor:
    """A batch of one without its batch axis, differentiably."""
    return T.reshape(t, t.shape[1:])
