"""The shared transformer encoder: embedding sum plus post-norm block stack.

Architecture follows original BERT-base block ordering (attention, residual,
layer norm, GELU feed-forward, residual, layer norm) with an embedding layer
norm up front; dimensions come from ModelConfig so both the desk default and
BERT-base sizes are expressible. The forward takes only a padded [B, L]
TokenBatch (one sequence is a batch of one) and returns [B, L, hidden]
states, or the rows it is asked for; attention logits at pad key positions are
forced to -inf before the softmax, so pad rows never leak into real ones.
"""

from __future__ import annotations

import itertools
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
    """Per-token hidden states h_1..h_N, [B, L, hidden] (the selected rows,
    [B, R, hidden], from a `rows` forward), plus the pad mask of those positions."""

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


def _dropout_keeps(batch: TokenBatch, cfg: ModelConfig, rng: np.random.Generator,
                   rows: np.ndarray | None):
    """Keep masks for every dropout site of a forward, in site order: the
    embeddings, then each layer's attention probs, attention output and FFN
    output, as [B, heads, R, L] or [B*R, hidden] arrays (R = L, or the R of a
    `rows` forward's last block). Each row draws all its sites in turn over
    its own span (up to its last real token), as a full forward of that
    sequence alone draws them, so a seeded run depends neither on batching
    nor on `rows`: a site of the last block draws rows 0..max(selected) of
    each (length, width) block, keeps the selected ones and `advance`s past
    the rest (one PCG64 step per float64 draw; advance also drops a buffered
    32-bit draw). Pad slots keep; a selected position must be a real token."""
    b, n = batch.token_ids.shape
    lengths = (n - np.argmax(batch.pad_mask[:, ::-1], axis=1)).tolist()
    p, heads, hidden = cfg.dropout_p, cfg.heads, cfg.hidden
    tops = lengths if rows is None else np.minimum(rows.max(axis=1) + 1, lengths).tolist()
    # rows 0..top-1 are drawn: one selected position is the last of them
    picks = ([slice(None)] * b if rows is None else
             [slice(-1, None)] * b if rows.shape[1] == 1 else list(rows))
    sites = [(np.ones((b, n, hidden), dtype=bool), False)]
    for i in range(cfg.layers):
        last = i == cfg.layers - 1
        r = n if rows is None or not last else rows.shape[1]
        sites += [(np.ones(shape, dtype=bool), last)
                  for shape in ((b, heads, r, n), (b, r, hidden), (b, r, hidden))]
    for i, length in enumerate(lengths):
        for keep, selects in sites:
            pick, top = (picks[i], tops[i]) if selects else (slice(None), length)
            for block in keep[i, :, :, :length] if keep.ndim == 4 else keep[i, None]:
                drawn = rng.random((top, block.shape[1]))[pick] >= p
                block[:len(drawn)] = drawn
                if top < length:
                    rng.bit_generator.advance((length - top) * block.shape[1])
    return (k if k.ndim == 4 else k.reshape(-1, hidden) for k, _ in sites)


def forward(
    batch: TokenBatch,
    w: TransformerWeights,
    rng: np.random.Generator | None = None,
    taps: dict | None = None,
    rows: np.ndarray | None = None,
) -> TransformerOutput:
    """Encoder pass over a padded [B, L] batch, to [B, L, hidden] states, or
    [B, R, hidden] states at the positions a [B, R] `rows` selects.

    Each layer is six `linear` projections (one GEMM over all B*L rows each),
    one `attention` and one `gelu`, and two residual `layer_norm`s: one tape
    node each. Pad keys get an additive -inf bias before the softmax, so pad
    positions never leak into real ones. Dropout runs exactly when an rng is
    given (and dropout_p > 0), its masks drawn sequence by sequence (see
    _dropout_keeps), inside the attention and the output projections.
    Each op gets a parameter's bare array unless the parameter needs a
    gradient, so an inference forward runs array kernels end to end and wraps
    only its result in a Tensor; training runs the same kernels under the tape.
    `taps`, when given, receives intermediate tensors keyed by name
    (currently the last block's FFN output projection, pre-dropout and
    pre-residual, [B*L, hidden], or [B*R, hidden] under `rows`).
    `rows` (real-token positions per sequence; one may repeat) is for heads that
    read only some states: the last block then runs its keys and values over
    every position and all else on the B*R selected rows alone, taped or not
    (the other rows' gradients are exactly zero). The rng advances as in a
    full forward.
    """
    cfg = w.cfg
    b, n = batch.token_ids.shape
    p_drop, hidden = cfg.dropout_p, cfg.hidden
    key_bias = np.where(batch.pad_mask, 0.0, -np.inf).astype(w.dtype)[:, None, None, :]
    keeps = (_dropout_keeps(batch, cfg, rng, rows)
             if rng is not None and p_drop > 0.0 else itertools.repeat(None))
    prm = {name: T.operand(t) for name, t in w.params.items()}
    flat = None if rows is None else rows + np.arange(0, b * n, n)[:, None]  # [B, R] row ids

    def linear(t, name, keep=None):
        return T.linear(t, prm[f"{name}.weight"], prm[f"{name}.bias"], keep, p_drop)

    def norm(t, name, residual=None):
        return T.layer_norm(t, prm[f"{name}.gain"], prm[f"{name}.bias"], LN_EPS, residual)

    x = T.dropout(norm(embed(batch, w, prm), "embeddings.norm"), p_drop, next(keeps))
    for i in range(cfg.layers):
        p = f"layers.{i}"
        k, v = linear(x, f"{p}.attn.k"), linear(x, f"{p}.attn.v")
        if flat is not None and i == cfg.layers - 1:  # from here on the selected rows only
            x = T.gather_rows(x, flat.ravel())
        ctx = T.attention(linear(x, f"{p}.attn.q"), k, v, key_bias, cfg.heads, next(keeps), p_drop)
        x = norm(x, f"{p}.attn_norm", linear(ctx, f"{p}.attn.out", next(keeps)))

        keep, tap = next(keeps), taps is not None and i == cfg.layers - 1
        ffn_out = linear(T.gelu(linear(x, f"{p}.ffn.inner")), f"{p}.ffn.out", None if tap else keep)
        if tap:  # the tap reads the output before dropout
            taps["last_ffn_out"] = T.as_tensor(ffn_out)
            ffn_out = T.dropout(ffn_out, p_drop, keep)
        x = norm(x, f"{p}.ffn_norm", ffn_out)

    mask = batch.pad_mask if flat is None else batch.pad_mask.ravel()[flat]
    x = T.reshape(x, (*mask.shape, hidden))
    return TransformerOutput(hidden_states=T.as_tensor(x), pad_mask=mask)
