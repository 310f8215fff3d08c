"""The shared transformer encoder: embedding sum plus post-norm block stack.

Architecture follows original BERT-base block ordering (attention, residual,
layer norm, GELU feed-forward, residual, layer norm) with an embedding layer
norm up front; dimensions come from ModelConfig so both the desk default and
BERT-base sizes are expressible. The forward takes only a padded [B, L]
TokenBatch (one sequence is a batch of one) and returns [B, L, hidden]
states; attention logits at pad key positions are forced to -inf before the
softmax, so pad rows never leak into real ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor
from .text import TokenBatch

INIT_STD = 0.02
LN_EPS = 1e-12

# desk defaults: small enough that every property is checkable in seconds
DESK_LAYERS = 2
DESK_HEADS = 2
DESK_HIDDEN = 32
DESK_FFN = 64
DESK_MAX_POSITIONS = 64


@dataclass(frozen=True)
class ModelConfig:
    layers: int = DESK_LAYERS
    heads: int = DESK_HEADS
    hidden: int = DESK_HIDDEN
    ffn_hidden: int = DESK_FFN
    vocab_size: int = 64
    max_positions: int = DESK_MAX_POSITIONS
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be a positive multiple of heads ({self.heads})"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0,1), got {self.dropout_p}")
        if self.vocab_size < 5 or self.max_positions < 1 or self.ffn_hidden < 1:
            raise ConfigError("vocab_size/max_positions/ffn_hidden out of range")

    def to_dict(self) -> dict:
        return {
            "layers": self.layers,
            "heads": self.heads,
            "hidden": self.hidden,
            "ffn_hidden": self.ffn_hidden,
            "vocab_size": self.vocab_size,
            "max_positions": self.max_positions,
            "dropout_p": self.dropout_p,
        }


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Hierarchical name -> shape map for one encoder tower."""
    h, f = cfg.hidden, cfg.ffn_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "embeddings.token": (cfg.vocab_size, h),
        "embeddings.position": (cfg.max_positions, h),
        "embeddings.segment": (2, h),
        "embeddings.norm.gain": (h,),
        "embeddings.norm.bias": (h,),
    }
    for i in range(cfg.layers):
        p = f"layers.{i}"
        for proj in ("q", "k", "v", "out"):
            shapes[f"{p}.attn.{proj}.weight"] = (h, h)
            shapes[f"{p}.attn.{proj}.bias"] = (h,)
        shapes[f"{p}.attn_norm.gain"] = (h,)
        shapes[f"{p}.attn_norm.bias"] = (h,)
        shapes[f"{p}.ffn.inner.weight"] = (h, f)
        shapes[f"{p}.ffn.inner.bias"] = (f,)
        shapes[f"{p}.ffn.out.weight"] = (f, h)
        shapes[f"{p}.ffn.out.bias"] = (h,)
        shapes[f"{p}.ffn_norm.gain"] = (h,)
        shapes[f"{p}.ffn_norm.bias"] = (h,)
    return shapes


def init_parameters(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                    dtype=np.float64) -> dict[str, Tensor]:
    """BERT-style init, drawn in the order of `shapes`: unit gains, zero biases,
    N(0, 0.02) matrices, embeddings and codes."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith("gain"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith("bias"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


class TransformerWeights:
    """All learnable parameters of one tower, addressable by name."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        expected = parameter_shapes(cfg)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ShapeError(f"parameter name set mismatch: missing={missing} extra={extra}")
        for name, t in params.items():
            if t.shape != expected[name]:
                raise ShapeError(f"{name}: shape {t.shape} != expected {expected[name]}")
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64):
        return cls(cfg, init_parameters(parameter_shapes(cfg), rng, dtype))

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def copy(self) -> "TransformerWeights":
        return TransformerWeights(
            self.cfg,
            {n: Tensor(t.data.copy(), requires_grad=t.requires_grad) for n, t in self.params.items()},
        )

    @property
    def dtype(self):
        return self.params["embeddings.token"].dtype


@dataclass
class TransformerOutput:
    """Per-token hidden states h_1..h_N, [B, L, hidden], plus the [B, L] pad
    mask they were built under."""

    hidden_states: Tensor
    pad_mask: np.ndarray


def embed(batch: TokenBatch, w: TransformerWeights, prm=None):
    """Sum of token, position (0..L-1 in every row) and segment embeddings,
    the [B, L] positions flattened row-major to B*L rows. The tables are
    `prm`'s (forward's operands) if given, else w's Tensors."""
    cfg, prm = w.cfg, prm or w.params
    b, length = batch.token_ids.shape
    ids = batch.token_ids.ravel()
    if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
        raise ConfigError(f"token id out of range for vocab_size {cfg.vocab_size}")
    if length > cfg.max_positions:
        raise ConfigError(
            f"sequence length {length} exceeds max_positions {cfg.max_positions}"
        )
    tok = T.gather_rows(prm["embeddings.token"], ids)
    pos = T.gather_rows(prm["embeddings.position"], np.tile(np.arange(length), b))
    seg = T.gather_rows(prm["embeddings.segment"], batch.segment_ids.ravel())
    return T.add(T.add(tok, pos), seg)


def _dropout_keeps(batch: TokenBatch, cfg: ModelConfig, rng: np.random.Generator):
    """Keep masks for every dropout site of a forward, in site order: the
    embeddings, then each layer's attention probs, attention output and FFN
    output. Each row draws all its sites in turn over its own span (up to its
    last real token), as a forward of that sequence alone draws them, so a
    seeded run does not depend on how sequences are batched. Pad slots keep."""
    b, n = batch.token_ids.shape
    lengths = n - np.argmax(batch.pad_mask[:, ::-1], axis=1)
    p, heads, hidden = cfg.dropout_p, cfg.heads, cfg.hidden
    sites = [np.ones((b, n, hidden), dtype=bool)]
    for _ in range(cfg.layers):
        sites += [np.ones((b, heads, n, n), dtype=bool),
                 np.ones((b, n, hidden), dtype=bool), np.ones((b, n, hidden), dtype=bool)]
    for i, length in enumerate(lengths):
        for keep in sites:
            if keep.ndim == 4:
                keep[i, :, :length, :length] = rng.random((heads, length, length)) >= p
            else:
                keep[i, :length] = rng.random((length, hidden)) >= p
    return iter([k.reshape(b * n, hidden) if k.ndim == 3 else k for k in sites])


def _maybe_dropout(x, p, keeps):
    return x if keeps is None else T.dropout(x, p, keep=next(keeps))


def forward(
    batch: TokenBatch,
    w: TransformerWeights,
    rng: np.random.Generator | None = None,
    taps: dict | None = None,
) -> TransformerOutput:
    """Full encoder pass over a padded [B, L] batch, to [B, L, hidden] states.

    Projections are single GEMMs over all B*L rows; heads are split and merged
    by reshape/transpose; pad keys get an additive -inf bias before the
    softmax, so pad positions never leak into real ones. Dropout runs exactly
    when an rng is given (and dropout_p > 0), its masks drawn sequence by
    sequence (see _dropout_keeps).
    Each op gets a parameter's bare array unless the parameter needs a
    gradient, so an inference forward runs array kernels end to end and wraps
    only its result in a Tensor; training runs the same kernels under the tape.
    `taps`, when given, receives intermediate tensors keyed by name
    (currently the last block's FFN output projection, pre-residual, [B*L, hidden]).
    """
    cfg = w.cfg
    b, n = batch.token_ids.shape
    heads, hidden = cfg.heads, cfg.hidden
    head_dim = hidden // heads
    inv_sqrt = 1.0 / math.sqrt(head_dim)
    key_bias = np.where(batch.pad_mask, 0.0, -np.inf).astype(w.dtype)[:, None, None, :]
    keeps = _dropout_keeps(batch, cfg, rng) if rng is not None and cfg.dropout_p > 0.0 else None

    def split_heads(t, axes):  # [B*L, H] -> [B, heads, L, d], or [B, heads, d, L] for keys
        return T.transpose(T.reshape(t, (b, n, heads, head_dim)), axes)

    prm = {name: T.operand(t) for name, t in w.params.items()}

    def project(t, name):
        return T.add(T.matmul(t, prm[f"{name}.weight"]), prm[f"{name}.bias"])

    x = embed(batch, w, prm)
    x = T.layer_norm(x, prm["embeddings.norm.gain"], prm["embeddings.norm.bias"], LN_EPS)
    x = _maybe_dropout(x, cfg.dropout_p, keeps)

    for i in range(cfg.layers):
        p = f"layers.{i}"
        q = split_heads(T.scale(project(x, f"{p}.attn.q"), inv_sqrt), (0, 2, 1, 3))
        k = split_heads(project(x, f"{p}.attn.k"), (0, 2, 3, 1))
        v = split_heads(project(x, f"{p}.attn.v"), (0, 2, 1, 3))
        probs = T.softmax(T.matmul(q, k), bias=key_bias)  # [B, heads, L, L]
        probs = _maybe_dropout(probs, cfg.dropout_p, keeps)
        ctx = T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), (b * n, hidden))
        attn_out = _maybe_dropout(project(ctx, f"{p}.attn.out"), cfg.dropout_p, keeps)
        x = T.layer_norm(
            T.add(x, attn_out), prm[f"{p}.attn_norm.gain"], prm[f"{p}.attn_norm.bias"], LN_EPS
        )

        ffn_out = project(T.gelu(project(x, f"{p}.ffn.inner")), f"{p}.ffn.out")
        if taps is not None and i == cfg.layers - 1:
            taps["last_ffn_out"] = T.as_tensor(ffn_out)
        ffn_out = _maybe_dropout(ffn_out, cfg.dropout_p, keeps)
        x = T.layer_norm(
            T.add(x, ffn_out), prm[f"{p}.ffn_norm.gain"], prm[f"{p}.ffn_norm.bias"], LN_EPS
        )

    x = T.reshape(x, (b, n, hidden))
    return TransformerOutput(hidden_states=T.as_tensor(x), pad_mask=batch.pad_mask)
