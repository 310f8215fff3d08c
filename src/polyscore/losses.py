"""Training losses: in-batch negatives, external negatives, masked-token and
binary next-utterance objectives."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor


def cross_entropy_rows(logits: Tensor, targets, denominator: int | None = None) -> Tensor:
    """Cross-entropy of each row against its target column, summed over `denominator`
    (default the row count: the mean)."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"need [B,N] logits and B targets, got {logits.shape} / {targets.shape}")
    return T.cross_entropy(logits, targets, denominator)


def in_batch_loss(y_ctxt: Tensor, y_cand: Tensor) -> tuple[Tensor, Tensor]:
    """Score every context against every in-batch candidate; diagonal is gold.

    Returns (mean cross-entropy, the [B,B] logits).
    """
    if y_ctxt.data.ndim != 2 or y_ctxt.shape != y_cand.shape:
        raise ShapeError(f"need matching [B,H] embeddings, got {y_ctxt.shape} / {y_cand.shape}")
    b = y_ctxt.shape[0]
    if b < 2:
        raise ContractError(f"in-batch negatives need batch size >= 2, got {b}")
    logits = T.matmul(y_ctxt, T.transpose(y_cand))
    return cross_entropy_rows(logits, np.arange(b)), logits


def external_neg_loss(scores: Tensor, correct_index: int = 0) -> Tensor:
    """Softmax cross-entropy over gold-plus-sampled-negative scores."""
    if scores.data.ndim != 1:
        raise ShapeError(f"scores must be a vector, got shape {scores.shape}")
    if scores.shape[0] < 2:
        raise ContractError(f"external negatives need >= 2 candidates, got {scores.shape[0]}")
    if not 0 <= correct_index < scores.shape[0]:
        raise ContractError(f"target {correct_index} out of range for {scores.shape[0]} logits")
    return cross_entropy_rows(T.reshape(scores, (1, scores.shape[0])), [correct_index])


def binary_choice_loss(score: Tensor, label: int) -> Tensor:
    """Logistic loss on one scalar score: label 1 means 'is the continuation'."""
    if label not in (0, 1):
        raise ContractError(f"label must be 0 or 1, got {label}")
    zero = Tensor(np.zeros((), dtype=score.dtype))
    return cross_entropy_rows(T.reshape(T.stack([zero, T.reshape(score, ())]), (1, 2)), [label])


def masked_token_loss(logits: Tensor, target_ids) -> Tensor:
    """Mean cross-entropy over [T, vocab] logits at the corrupted positions."""
    return cross_entropy_rows(logits, target_ids)
