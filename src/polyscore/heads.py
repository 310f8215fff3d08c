"""Bi-, Cross- and Poly-encoder scoring heads over transformer outputs.

All heads are pure given weights and batch-first: they read a forward's
[B, L, hidden] states and [B, L] pad mask and return one result per row.
Reduction kinds are carried as strings so they serialize directly into
checkpoint headers: "first", "avg_all" or "avg_first:<m>". Poly variants:
"learnt", "first_m", "last_m", "last_m_h1".
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import TransformerOutput, TransformerWeights, forward
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor
from .text import TokenBatch

REDUCTION_FIRST = "first"
REDUCTION_AVG_ALL = "avg_all"
POLY_VARIANTS = ("learnt", "first_m", "last_m", "last_m_h1")


def parse_reduction(kind: str) -> tuple[str, int | None]:
    """Validate a reduction spec string; returns (base kind, m or None)."""
    if kind in (REDUCTION_FIRST, REDUCTION_AVG_ALL):
        return kind, None
    if kind.startswith("avg_first:"):
        try:
            m = int(kind.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"avg_first reduction needs an integer m, got {kind!r}") from None
        if m < 1:
            raise ConfigError(f"avg_first reduction needs m >= 1, got {m}")
        return "avg_first", m
    raise ConfigError(f"unknown reduction kind {kind!r}")


def parse_arch(arch: str) -> tuple[str, str | None, int | None]:
    """'bi' | 'cross' | 'poly:<m>' (learnt) | 'poly:<variant>:<m>' ->
    (kind, poly variant or None, m or None)."""
    if arch in ("bi", "cross"):
        return arch, None, None
    parts = arch.split(":")
    if parts[0] != "poly" or len(parts) not in (2, 3):
        raise ConfigError(f"unknown architecture {arch!r} (use bi, cross, poly:<m> or poly:<variant>:<m>)")
    variant = parts[1] if len(parts) == 3 else "learnt"
    if variant not in POLY_VARIANTS:
        raise ConfigError(f"unknown poly variant {variant!r}; choose from {POLY_VARIANTS}")
    if not parts[-1].isdecimal() or int(parts[-1]) < 1:
        raise ConfigError(f"poly m must be an integer >= 1, got {parts[-1]!r}")
    return "poly", variant, int(parts[-1])


def reduce_output(out: TransformerOutput, kind: str) -> Tensor:
    """Collapse each row's h_1..h_N to one vector: [B, hidden]; averages
    ignore pad positions."""
    base, m = parse_reduction(kind)
    n_real = out.pad_mask.sum(axis=1)
    if n_real.min() < 1:
        raise ContractError("reduce needs at least one non-pad position")
    h = T.operand(out.hidden_states)
    b, length, hid = h.shape
    if base == REDUCTION_FIRST:
        pooled = T.gather_rows(T.reshape(h, (b * length, hid)), np.arange(b) * length)
    else:
        # pads are trailing, so the first `stop` positions of a row are real
        stop = n_real if base == REDUCTION_AVG_ALL else np.minimum(m, n_real)
        weights = (np.arange(length) < stop[:, None]) / stop[:, None]
        weights = weights[:, None, :].astype(h.dtype)  # [B, 1, L]
        pooled = T.reshape(T.matmul(weights, h), (b, hid))
    return T.as_tensor(pooled)


def cross_score(pairs: TokenBatch, w: TransformerWeights, head_w: Tensor, rng=None) -> Tensor:
    """Jointly encode (context, candidate) pairs and score each first output
    through the [hidden, 1] weight: [B] scores. Only h_1 is read, so the
    forward runs its last block past keys and values on position 0 alone."""
    if head_w.shape != (w.cfg.hidden, 1):
        raise ShapeError(f"cross head weight must be [hidden, 1], got {head_w.shape}")
    h1 = np.zeros((len(pairs.token_ids), 1), dtype=np.int64)
    first = reduce_output(forward(pairs, w, rng=rng, rows=h1), REDUCTION_FIRST)
    return T.reshape(T.matmul(first, head_w), first.shape[:1])


def poly_context_vectors(out: TransformerOutput, variant: str, m: int,
                         codes: Tensor | None = None):
    """Extract the m' context vectors of encoded contexts for a poly head of
    `variant` and `m` (checked when its Model is built); `codes` are the
    learnt variant's [m, hidden] context codes.

    learnt: one unscaled `T.attention` head, each code over the non-pad outputs
    (pad keys get a -inf bias). first_m / last_m: min(m, N) raw output rows.
    last_m_h1: those rows prepended with h_1 (h_1 may duplicate when N <= m).

    Returns ([B, m', H] vectors, [B, m'] validity mask): rows of a context
    with fewer than m real tokens are padded and marked invalid, the valid
    ones coming first; `T.poly_scores` and `T.softmax_mean` score against them.
    """
    mask = out.pad_mask
    n_real = mask.sum(axis=1)
    if n_real.min() < 1:
        raise ContractError("poly head needs at least one non-pad position")
    h = T.operand(out.hidden_states)
    b, length, hid = h.shape
    flat = T.reshape(h, (b * length, hid))
    if variant == "learnt":
        # one unscaled head: the codes, tiled to every row, query the positions
        key_bias = np.where(mask, 0.0, -np.inf).astype(h.dtype)[:, None, None, :]
        queries = T.gather_rows(T.operand(codes), np.tile(np.arange(m), b))
        vecs = T.reshape(T.attention(queries, flat, flat, key_bias, 1, scale=1.0), (b, m, hid))
        valid = np.ones((b, m), dtype=bool)
    else:
        keep = np.minimum(m, n_real)  # raw rows taken per context
        slot = np.arange(keep.max())
        valid = slot < keep[:, None]
        first = 0 if variant == "first_m" else (n_real - keep)[:, None]
        pos = np.where(valid, first + slot, 0)
        if variant == "last_m_h1":
            pos = np.concatenate([np.zeros((b, 1), dtype=pos.dtype), pos], axis=1)
            valid = np.concatenate([np.ones((b, 1), dtype=bool), valid], axis=1)
        rows = pos + (np.arange(b) * length)[:, None]
        vecs = T.reshape(T.gather_rows(flat, rows.ravel()), (b, rows.shape[1], hid))
    return T.as_tensor(vecs), valid
