"""Independent reference implementations used only by tests.

Everything here is deliberately written as straight-line / loop code that
shares no path with the package: triple-loop matmul, closed-form softmax and
cross-entropy, a from-scratch transformer trace, brute-force reranking and
finite differences.
"""

import contextlib
import json
import math
import struct

import numpy as np


def matmul_triple_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def softmax_closed_form(xs):
    mx = max(xs)
    exps = [math.exp(x - mx) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def cross_entropy_closed_form(logits, target):
    return -math.log(softmax_closed_form(list(logits))[target])


def layer_norm_closed_form(xs, gain, bias, eps=1e-12):
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    return [(x - mean) / math.sqrt(var + eps) * g + b for x, g, b in zip(xs, gain, bias)]


def gelu_scalar(x):
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + math.tanh(u))


def transformer_trace(params, cfg, batch, row=0):
    """Independent re-computation of the encoder forward (without dropout)
    of one TokenBatch row, at positions 0..L-1 under the row's pad mask.

    `params` maps parameter name -> plain numpy array. Heads are handled with
    explicit per-position loops rather than matrix slicing.
    """
    token_ids, segment_ids = batch.token_ids[row], batch.segment_ids[row]
    pad_mask = batch.pad_mask[row]
    n = len(token_ids)
    hidden = cfg.hidden
    head_dim = hidden // cfg.heads

    x = np.zeros((n, hidden))
    for i in range(n):
        x[i] = (params["embeddings.token"][token_ids[i]]
                + params["embeddings.position"][i]
                + params["embeddings.segment"][segment_ids[i]])
    x = np.array([layer_norm_closed_form(row, params["embeddings.norm.gain"],
                                         params["embeddings.norm.bias"]) for row in x])

    for layer in range(cfg.layers):
        p = f"layers.{layer}"
        q = x @ params[f"{p}.attn.q.weight"] + params[f"{p}.attn.q.bias"]
        k = x @ params[f"{p}.attn.k.weight"] + params[f"{p}.attn.k.bias"]
        v = x @ params[f"{p}.attn.v.weight"] + params[f"{p}.attn.v.bias"]
        ctx = np.zeros((n, hidden))
        for h in range(cfg.heads):
            sl = slice(h * head_dim, (h + 1) * head_dim)
            for i in range(n):
                logits = []
                for j in range(n):
                    if pad_mask[j]:
                        logits.append(float(q[i, sl] @ k[j, sl]) / math.sqrt(head_dim))
                    else:
                        logits.append(-math.inf)
                probs = softmax_closed_form(logits)
                for j in range(n):
                    ctx[i, sl] += probs[j] * v[j, sl]
        attn_out = ctx @ params[f"{p}.attn.out.weight"] + params[f"{p}.attn.out.bias"]
        x = np.array([layer_norm_closed_form(row, params[f"{p}.attn_norm.gain"],
                                             params[f"{p}.attn_norm.bias"])
                      for row in x + attn_out])
        inner = x @ params[f"{p}.ffn.inner.weight"] + params[f"{p}.ffn.inner.bias"]
        inner = np.vectorize(gelu_scalar)(inner)
        ffn_out = inner @ params[f"{p}.ffn.out.weight"] + params[f"{p}.ffn.out.bias"]
        x = np.array([layer_norm_closed_form(row, params[f"{p}.ffn_norm.gain"],
                                             params[f"{p}.ffn_norm.bias"])
                      for row in x + ffn_out])
    return x


def brute_force_rank(ids, scores):
    """Descending score, ties by ascending id, via plain python sort."""
    return sorted(zip(ids, scores), key=lambda pair: (-pair[1], pair[0]))


def lexsort_rank(ids, scores, k, gold_id=None):
    """The full-sort ranking: lexsort every score by descending score, then
    ascending id (NaN scores last), keep the first k, and find the gold
    candidate's 1-based position in the whole order.

    Returns (ranking as [(id, score)], rank_of_gold or None)."""
    ids = np.asarray(ids)
    order = np.lexsort((ids, -np.asarray(scores)))
    ranking = [(int(ids[i]), float(scores[i])) for i in order[:k]]
    rank_of_gold = None
    if gold_id is not None:
        rank_of_gold = int(np.nonzero(ids[order] == gold_id)[0][0]) + 1
    return ranking, rank_of_gold


def poly_scores_pooled(vecs, emb):
    """Poly scores of every cache row in [C, m'] layout: each row's softmax
    attention over the m' context vectors, normalised before pooling."""
    logits = emb @ vecs.T  # [C, m']
    attn = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    return np.einsum("ch,ch->c", attn @ vecs, emb)


def dot(a, b):
    """Inner product of two equal-length vector Tensors, as a scalar Tensor."""
    from polyscore import tensor as T
    from polyscore.errors import ShapeError

    if len(a.shape) != 1 or a.shape != b.shape:
        raise ShapeError(f"dot expects equal-length vectors: {a.shape} vs {b.shape}")
    n = a.shape[0]
    return T.reshape(T.matmul(T.reshape(a, (1, n)), T.reshape(b, (n, 1))), ())


def tsum(x, axis=None):
    """Sum to a scalar (axis=None) or reduce the last axis (axis=-1), as a
    tensor op: tests reduce an output to a scalar loss with it."""
    from polyscore import tensor as T
    from polyscore.errors import ShapeError

    inputs = (x,)
    x = T._data(x)
    if axis is None:
        return T._result(x.sum(), inputs, lambda g: (np.full(x.shape, g, dtype=x.dtype),))
    if axis not in (-1, x.ndim - 1):
        raise ShapeError("tsum supports axis None or the last axis")

    def vjp(g):
        return (np.broadcast_to(np.expand_dims(g, -1), x.shape).copy(),)

    return T._result(x.sum(axis=-1), inputs, vjp)


def permute(x, axes):
    """tensor.transpose as it was while the chains below used it with `axes`:
    the axes of x permuted into a contiguous copy, as a tensor op."""
    from polyscore import tensor as T

    out = np.ascontiguousarray(np.transpose(T._data(x), axes))
    return T._result(out, (x,), lambda g: (np.transpose(g, np.argsort(axes)),))


def scale(x, c):
    """x * c for a constant c, as a tensor op."""
    from polyscore import tensor as T

    c = float(c)
    return T._result(T._data(x) * c, (x,), lambda g: (g * c,))


def bi_score(y_ctxt, y_cand):
    """Dot-product score between one context vector and one candidate vector."""
    return dot(y_ctxt, y_cand)


def poly_score(ctxt_vecs, y_cand):
    """One candidate's poly score, Tensor ops only: the candidate attends over
    the [m', H] context vectors, then dots with the pooled vector."""
    from polyscore import tensor as T
    from polyscore.errors import ShapeError

    m, hid = ctxt_vecs.shape
    if y_cand.shape != (hid,):
        raise ShapeError(f"candidate vector {y_cand.shape} does not match context "
                         f"vectors {ctxt_vecs.shape}")
    logits = T.reshape(T.matmul(ctxt_vecs, T.reshape(y_cand, (hid, 1))), (m,))
    w = softmax(logits)
    pooled = T.reshape(T.matmul(T.reshape(w, (1, m)), ctxt_vecs), (hid,))
    return dot(pooled, y_cand)


def score_bi(scorer, turns, cand):
    """One (context, candidate) bi score through the Scorer's own vectors."""
    return bi_score(scorer.context_vector(turns), scorer.candidate_vector(cand)).item()


def score_poly(scorer, turns, cand):
    """One (context, candidate) poly score through the Scorer's own vectors."""
    return poly_score(scorer.poly_vectors(turns), scorer.candidate_vector(cand)).item()


def adam_first_step(theta, grad, lr, beta1, beta2, eps, weight_decay):
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    mhat = m / (1 - beta1)
    vhat = v / (1 - beta2)
    return theta - lr * (mhat / (math.sqrt(vhat) + eps)) - lr * weight_decay * theta


def adamax_first_step(theta, grad, lr, beta1, eps):
    m = (1 - beta1) * grad
    u = abs(grad)
    return theta - lr / (1 - beta1) * m / (u + eps)


def optimizer_steps_per_parameter(cfg, params, grad_steps):
    """Adam with decoupled decay or Adamax, one parameter at a time: the loop
    the flat optimizer replaced. `params` maps name -> array, `grad_steps` is
    one name -> gradient dict per step; returns the final arrays."""
    from polyscore.optim import ADAM_DECAY, EPS, learning_rate

    theta = {n: a.copy() for n, a in params.items()}
    m = {n: np.zeros_like(a) for n, a in params.items()}
    v = {n: np.zeros_like(a) for n, a in params.items()}
    b1, b2 = cfg.beta1, cfg.beta2
    for step, grads in enumerate(grad_steps, 1):
        lr = learning_rate(cfg, step)
        for name in params:
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            if cfg.kind == ADAM_DECAY:
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                update = (m[name] / (1.0 - b1**step)) / (
                    np.sqrt(v[name] / (1.0 - b2**step)) + EPS)
                if cfg.weight_decay:
                    update = update + cfg.weight_decay * theta[name]
            else:
                v[name] = np.maximum(b2 * v[name], np.abs(g))
                update = (m[name] / (1.0 - b1**step)) / (v[name] + EPS)
            theta[name] = theta[name] - lr * update
    return theta


# ---- the out-of-place formulas the in-place tensor kernels replaced: output
# and vector-Jacobian product, in their original operation order ----


def layer_norm_formula(x, gain, bias, eps, g):
    centred = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    xhat = centred * inv
    lead = tuple(range(g.ndim - 1))
    gxhat = g * gain
    gx = (gxhat - gxhat.mean(axis=-1, keepdims=True)
          - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return xhat * gain + bias, (gx, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def gelu_formula(x, g):
    c, s = 0.044715, math.sqrt(2.0 / math.pi)
    x2 = x * x
    t = np.tanh(s * (x + c * x2 * x))
    du = s * (1.0 + 3.0 * c * x2)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def dropout_formula(x, p, keep, g):
    c = x.dtype.type(1.0 / (1.0 - p))
    return x * (keep * c), g * (keep * c)


def softmax_formula(z, shift):
    """Softmax over the last axis, with each row's max subtracted first or,
    as tensor's shift-free path does, e^z over its einsum row sum."""
    if shift:
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.einsum("...i->...", e)[..., None]


def attention_formula(q, k, v, key_bias, heads, shift):
    """tensor.attention without dropout in plain numpy, through
    `softmax_formula`: the same products of the same contiguous copies."""
    b, length = key_bias.shape[0], key_bias.shape[-1]
    rows, hidden = q.shape[0] // b, q.shape[1]
    d = hidden // heads

    def split(t, n, axes):
        return np.ascontiguousarray(np.transpose(t.reshape(b, n, heads, d), axes))

    z = split(q * (1.0 / math.sqrt(d)), rows, (0, 2, 1, 3)) @ split(k, length, (0, 2, 3, 1))
    ctx = softmax_formula(z + key_bias, shift) @ split(v, length, (0, 2, 1, 3))
    return np.ascontiguousarray(np.transpose(ctx, (0, 2, 1, 3))).reshape(b * rows, hidden)


def softmax(x, bias=None):
    """tensor.softmax as it was before the fused ops took its last callers:
    the softmax along the last axis of x + bias (0, or -inf to mask) as one
    tape op, by `softmax_formula`, max-shifted unless x is within
    tensor.EXP_SAFE; NaN raises NumericError. Its vjp sums rows by einsum, as
    tensor.attention's does."""
    from polyscore import tensor as T
    from polyscore.errors import NumericError

    inputs = (x,)
    x = T._data(x)
    t = T.EXP_SAFE[x.dtype]
    shift = not (-t <= x.min() and x.max() <= t)
    z = x if bias is None else x + bias
    if np.isnan(z).any():
        raise NumericError("softmax received NaN input")
    out = softmax_formula(z, shift)

    def vjp(g):
        gx = g - np.einsum("...i,...i->...", g, out)[..., None]
        gx *= out
        return (gx,)

    return T._result(out, inputs, vjp)


def softmax_vjp_formula(out, g):
    return (g - (g * out).sum(axis=-1, keepdims=True)) * out


def scatter_add_formula(shape, dtype, index, g):
    """The gradient of a gather: np.add.at into zeros, in `dtype`."""
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out, index, g)
    return out


def cross_entropy_chain_formula(x, targets, g):
    """The four ops that tensor.cross_entropy replaced, in plain numpy:
    log_softmax, a pick of each row's target, a mean, then a negation.
    Returns the loss and the gradient of x for the upstream gradient g."""
    shifted = x - x.max(axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(len(x))
    picked = lsm[rows, targets]
    g_picked = np.full(picked.shape, g * -1.0 / picked.size, dtype=picked.dtype)
    g_lsm = scatter_add_formula(x.shape, x.dtype, (rows, targets), g_picked)
    return picked.mean() * -1.0, g_lsm - np.exp(lsm) * g_lsm.sum(axis=-1, keepdims=True)


# ---- the op chains the fused encoder ops replaced, as tensor ops: each
# fused op's output and input gradients equal theirs bit for bit ----


def linear_chain(x, w, b, keep=None, p=0.0):
    """Matmul, bias add, then dropout under `keep` if given."""
    from polyscore import tensor as T

    return T.dropout(T.add(T.matmul(x, w), b), p, keep)


def attention_chain(q, k, v, key_bias, heads, keep=None, p=0.0, c=None):
    """The encoder's attention as a chain of ops: split the heads of q
    (scaled first, by c or 1/sqrt(d)), k and v by reshape and transpose,
    scores, masked softmax, dropout under `keep` if given, context, and merge
    the heads."""
    from polyscore import tensor as T

    b, length = key_bias.shape[0], key_bias.shape[-1]
    rows, hidden = q.shape[0] // b, q.shape[1]
    d = hidden // heads

    def split_heads(t, n, axes):
        return permute(T.reshape(t, (b, n, heads, d)), axes)

    k = split_heads(k, length, (0, 2, 3, 1))
    v = split_heads(v, length, (0, 2, 1, 3))
    q = split_heads(scale(q, 1.0 / math.sqrt(d) if c is None else c), rows, (0, 2, 1, 3))
    probs = T.dropout(softmax(T.matmul(q, k), bias=key_bias), p, keep)
    return T.reshape(permute(T.matmul(probs, v), (0, 2, 1, 3)), (b * rows, hidden))


def learnt_codes_chain(h, codes, pad_mask):
    """heads.poly_context_vectors' learnt codes before they ran through
    tensor.attention: every code's unscaled dot product with every position
    of the [B, L, H] states, as one [B*L, H] @ [H, m] product, the softmax
    over the non-pad positions, and the weighted sum of the states: [B, m, H]."""
    from polyscore import tensor as T

    b, length, hid = h.shape
    m = codes.shape[0]
    flat = T.reshape(h, (b * length, hid))
    logits = permute(T.reshape(T.matmul(flat, T.transpose(codes)), (b, length, m)), (0, 2, 1))
    key_bias = np.where(pad_mask, 0.0, -np.inf).astype(T._data(h).dtype)[:, None, :]
    return T.matmul(softmax(logits, bias=key_bias), h)


def poly_pool_chain(vecs, y_cand, valid):
    """training.poly_batch_loss's in-batch pool before tensor.poly_scores: the
    attention of every candidate over every context's [m', H] vectors (slots
    where `valid` is False masked), the [N cand, B ctxt, H] pooled vectors,
    and their dot products with the candidates, as [B ctxt, N cand] scores."""
    from polyscore import tensor as T

    b, m, hid = vecs.shape
    n = y_cand.shape[0]
    logits = permute(T.reshape(T.matmul(T.reshape(vecs, (b * m, hid)), T.transpose(y_cand)),
                               (b, m, n)), (0, 2, 1))
    dtype = T._data(vecs).dtype
    attn = softmax(logits, bias=np.where(valid, 0.0, -np.inf).astype(dtype)[:, None, :])
    pooled = permute(T.matmul(attn, vecs), (1, 0, 2))  # [N cand, B ctxt, H]
    scores = T.reshape(T.matmul(pooled, T.reshape(y_cand, (n, hid, 1))), (n, b))
    return T.transpose(scores)


def rank_poly_block_scores(vecs, emb, max_norm, block_elements):
    """retrieval.rank_poly's scores as its block loop computed them inline,
    before the loop called tensor.softmax_mean: [m', rows] logits of each
    block of `block_elements // m'` cache rows into reused buffers, weights
    e^l (or e^(l - column max) when B = max_j |v_j| * max_norm is past
    tensor.EXP_SAFE or not finite), and GEMV column sums."""
    from polyscore.tensor import EXP_SAFE

    c = emb.shape[0]
    rows = max(1, min(c, block_elements // len(vecs)))
    dtype = np.result_type(vecs, emb)
    logits, w = np.empty((2, len(vecs), rows), dtype)
    ones, scores = np.ones(len(vecs), dtype), np.empty(c, dtype)
    bound = float(np.sqrt(np.einsum("mh,mh->m", vecs, vecs).max())) * max_norm
    shift = not bound <= EXP_SAFE[dtype]
    for start in range(0, c, rows):
        block = emb[start:start + rows].T
        lg, wt = logits[:, :block.shape[1]], w[:, :block.shape[1]]
        np.matmul(vecs, block, out=lg)
        np.exp(np.subtract(lg, lg.max(axis=0), out=wt) if shift else lg, out=wt)
        den = ones @ wt
        lg *= wt
        np.divide(ones @ lg, den, out=scores[start:start + block.shape[1]])
    return scores


def layer_norm_residual_chain(x, residual, gain, bias, eps):
    """The residual add, then the layer norm."""
    from polyscore import tensor as T

    return T.layer_norm(T.add(x, residual), gain, bias, eps)


def chain_gradients(out, g, inputs):
    """Gradients of `inputs` for the upstream gradient g of `out`, through the
    whole tape under out: backward from a scalar node whose vjp hands out g."""
    from polyscore import tensor as T

    seed = T._result(np.zeros((), dtype=g.dtype), (out,), lambda _: (g,))
    grads = T.backward(seed, inputs)
    return [grads[t] for t in inputs]


def finite_diff(loss_fn, array, idx, h=1e-5):
    orig = array[idx]
    array[idx] = orig + h
    lp = loss_fn()
    array[idx] = orig - h
    lm = loss_fn()
    array[idx] = orig
    return (lp - lm) / (2 * h)


def grad_check(loss_fn, named_arrays, analytic, rng, probes=100, h=1e-5,
               rtol=1e-4, atol=1e-9):
    """Compare analytic gradients against central differences on random entries.

    Combined tolerance |fd - an| <= atol + rtol*max(|fd|,|an|): central
    differences bottom out at ~1e-10 absolute noise on O(1) losses, so
    near-zero gradients are judged by atol, everything else by rtol.
    Returns the worst relative error among entries above the noise floor.
    """
    names = sorted(named_arrays)
    worst = 0.0
    for _ in range(probes):
        name = names[int(rng.integers(len(names)))]
        arr = named_arrays[name]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        fd = finite_diff(loss_fn, arr, idx, h)
        an = analytic[name][idx]
        denom = max(abs(fd), abs(an))
        assert abs(fd - an) <= atol + rtol * denom, \
            f"gradient mismatch at {name}{idx}: fd={fd:.3e} analytic={an:.3e}"
        if denom > 1e-6:
            worst = max(worst, abs(fd - an) / denom)
    return worst


# ---- per-sequence training losses ----
#
# The losses as they were before training ran padded batches: one encoder
# forward per sequence through the package's own forward and heads. They are
# references for the batched losses in polyscore.training, without dropout.


def _cross_entropy_mean(logit_rows, targets):
    """Mean softmax cross-entropy of logit vectors against their targets, in
    plain numpy: one tape node whose parents are the rows."""
    from polyscore import tensor as T

    x = np.stack([row.data for row in logit_rows])
    shifted = x - x.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = np.arange(len(x)), list(targets)
    onehot = np.zeros_like(x)
    onehot[picked] = 1.0

    def vjp(g):  # (softmax - onehot) / B, one gradient per row
        return tuple(g * (np.exp(log_probs) - onehot) / len(x))

    return T._result(-log_probs[picked].mean(), tuple(logit_rows), vjp)


def _mean(losses):
    """Mean of scalar losses in plain numpy: one tape node whose parents are
    the losses."""
    from polyscore import tensor as T

    n = len(losses)
    return T._result(np.mean([t.data for t in losses]), tuple(losses), lambda g: (g / n,) * n)


def bi_loss_per_sequence(scorer, batch):
    from polyscore import tensor as T
    from polyscore.losses import in_batch_loss

    y_ctxt = T.stack([scorer.context_vector(ex.context) for ex in batch])
    y_cand = T.stack([scorer.candidate_vector(ex.gold) for ex in batch])
    return in_batch_loss(y_ctxt, y_cand)[0]


def poly_loss_per_sequence(scorer, batch):
    from polyscore import tensor as T

    y_cand = [scorer.candidate_vector(ex.gold) for ex in batch]
    rows = []
    for ex in batch:
        vecs = scorer.poly_vectors(ex.context)  # [m', H]
        rows.append(T.stack([poly_score(vecs, y) for y in y_cand]))
    return _cross_entropy_mean(rows, range(len(batch)))


def cross_loss_per_sequence(scorer, batch, pool, settings, data_rng):
    from polyscore import tensor as T
    from polyscore.losses import external_neg_loss

    losses = []
    for ex in batch:
        if settings.neg_mode == "provided" and len(ex.candidates) > 1:
            negs = [c for i, c in enumerate(ex.candidates) if i != ex.label_index]
            negs = negs[: settings.n_candidates - 1]
        else:
            negs = []
            while len(negs) < settings.n_candidates - 1:
                neg = pool[int(data_rng.integers(len(pool)))]
                if neg != ex.gold:
                    negs.append(neg)
        scores = [scorer.score_cross(ex.context, c) for c in [ex.gold, *negs]]
        losses.append(external_neg_loss(T.stack(scores), 0))
    return _mean(losses)


def cross_loss_one_forward(scorer, batch, pool, settings, data_rng, drop_rng=None):
    """training.cross_batch_loss as it was before a step ran in parts: the
    gold then its negatives for every example, all pairs in one padded
    forward, and the mean cross-entropy over the batch. Examples with fewer
    provided negatives get -inf logits in the missing columns."""
    from polyscore import tensor as T
    from polyscore.losses import cross_entropy_rows

    pairs, counts = [], []
    for ex in batch:
        if settings.neg_mode == "provided" and len(ex.candidates) > 1:
            negs = [c for i, c in enumerate(ex.candidates) if i != ex.label_index]
            negs = negs[: settings.n_candidates - 1]
        else:
            negs = []
            while len(negs) < settings.n_candidates - 1:
                neg = pool[int(data_rng.integers(len(pool)))]
                if neg != ex.gold:
                    negs.append(neg)
        pairs += scorer.cross_pairs(ex.context, [ex.gold, *negs])
        counts.append(1 + len(negs))
    scores = scorer.cross_scores(pairs, drop_rng)  # [P]
    counts = np.asarray(counts)
    slot = np.arange(counts.max())
    real = slot < counts[:, None]  # [B, n]
    idx = np.where(real, (np.cumsum(counts) - counts)[:, None] + slot, 0)
    logits = T.reshape(T.gather_rows(T.reshape(scores, (len(pairs), 1)), idx.ravel()),
                       real.shape)
    logits = T.add(logits, np.where(real, 0.0, -np.inf).astype(scores.dtype))
    return cross_entropy_rows(logits, np.zeros(len(batch)))


def mlm_loss_per_sequence(model, vocab, examples, data_rng):
    from polyscore import tensor as T
    from polyscore.encoder import forward
    from polyscore.losses import cross_entropy_rows
    from polyscore.text import TokenBatch, encode_pair
    from polyscore.training import MLM_RATE, mlm_corrupt, mlm_logits

    blocks = []
    for ex in examples:
        pair = encode_pair(ex.context_text, ex.gold, vocab, model.cfg.max_positions)
        corrupted, targets = mlm_corrupt(pair, MLM_RATE, data_rng, len(vocab))
        if not targets:
            continue
        out = forward(TokenBatch.of([corrupted]), model.towers["enc"])
        states = T.reshape(out.hidden_states, (len(corrupted), model.cfg.hidden))
        rows = T.gather_rows(states, [p for p, _ in targets])
        blocks.append((mlm_logits(model, rows), [t for _, t in targets]))
    total = sum(len(t) for _, t in blocks)
    # mean over all targets = target-weighted mean of the per-example means
    loss = None
    for logits, targets in blocks:
        part = scale(cross_entropy_rows(logits, targets), len(targets) / total)
        loss = part if loss is None else T.add(loss, part)
    return loss


def mlm_loss_full_rows(model, vocab, examples, data_rng, drop_rng=None):
    """training.mlm_batch_loss as it was before its forward stopped at the
    target positions: one full [B, L, hidden] forward, then one gather of
    every (row, position) target's state."""
    from polyscore import tensor as T
    from polyscore.encoder import forward
    from polyscore.losses import masked_token_loss
    from polyscore.text import TokenBatch, encode_pair
    from polyscore.training import MLM_RATE, mlm_corrupt, mlm_logits

    pairs = [encode_pair(ex.context_text, ex.gold, vocab, model.cfg.max_positions)
             for ex in examples]
    picks = []  # (batch row, position, original id)
    while not picks:
        corrupted = []
        for pair in pairs:
            tp, targets = mlm_corrupt(pair, MLM_RATE, data_rng, len(vocab))
            if targets:
                picks += [(len(corrupted), pos, tok) for pos, tok in targets]
                corrupted.append(tp)
    batch = TokenBatch.of(corrupted)
    b, length = batch.token_ids.shape
    out = forward(batch, model.towers["enc"], rng=drop_rng)
    row, pos, tok = np.array(picks).T
    picked = T.gather_rows(T.reshape(out.hidden_states, (b * length, model.cfg.hidden)),
                           row * length + pos)
    return masked_token_loss(mlm_logits(model, picked), tok)


def next_loss_per_sequence(model, vocab, triples):
    from polyscore import tensor as T
    from polyscore.heads import cross_score
    from polyscore.losses import binary_choice_loss
    from polyscore.text import TokenBatch, encode_pair

    losses = []
    for input_text, cand, label in triples:
        pair = TokenBatch.of([encode_pair(input_text, cand, vocab, model.cfg.max_positions)])
        score = cross_score(pair, model.towers["enc"], model.extras["next.w"])
        losses.append(binary_choice_loss(T.reshape(score, ()), label))
    return _mean(losses)


# ---- full-row training losses ----


@contextlib.contextmanager
def full_rows(counts):
    """The package's losses built from full forwards: inside the block, every
    forward the heads and the Scorer run ignores `rows` and returns all
    [B, L, hidden] states, from which the heads read h_1 as before forwards
    stopped there. `counts` receives the position count of each result."""
    from polyscore import encoder, heads, model

    def full(*args, rows=None, **kwargs):
        out = encoder.forward(*args, **kwargs)
        counts.append(out.hidden_states.shape[1])
        return out

    saved = heads.forward, model.forward
    heads.forward = model.forward = full
    try:
        yield
    finally:
        heads.forward, model.forward = saved


def backward_keep_all(loss, params):
    """polyscore.tensor.backward as it was before it released intermediate
    gradients: every node's gradient stays in the side table until the end."""
    topo, visited, work = [], set(), [loss]
    while work:
        node = work[-1]
        if id(node) in visited:
            work.pop()
            continue
        pending = [p for p in node._parents if id(p) not in visited and p.requires_grad]
        if pending:
            work.extend(pending)
        else:
            visited.add(id(node))
            topo.append(node)
            work.pop()
    return _accumulate(topo, loss, params)


def backward_recursive(loss, params):
    """polyscore.tensor.backward as a recursive post-order walk, each node's
    parents last to first, whose every gradient sum is a fresh acc + pg."""
    topo, visited = [], set()

    def visit(node):
        visited.add(id(node))
        for parent in reversed(node._parents):
            if parent.requires_grad and id(parent) not in visited:
                visit(parent)
        topo.append(node)

    visit(loss)
    return _accumulate(topo, loss, params)


def _accumulate(topo, loss, params):
    """Reverse-mode sums over a topological order, every gradient kept."""
    grads = {id(loss): np.asarray(1.0, dtype=loss.dtype)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return {p: np.zeros_like(p.data) if id(p) not in grads
            else np.asarray(grads[id(p)], dtype=p.data.dtype) for p in params}


def encode_pair_reference(input_text, label_text, vocab, max_len):
    """text.encode_pair as a standalone function: [S, input..., S, label...],
    oldest input tokens dropped first, then the label's tail."""
    from polyscore.text import TokenizedPair

    inp = vocab.encode_tokens(input_text.lower().split())
    lab = vocab.encode_tokens(label_text.lower().split())
    budget = max_len - 2
    keep_inp = min(len(inp), max(budget - len(lab), 1 if inp else 0))
    keep_lab = min(len(lab), budget - keep_inp)
    inp, lab = inp[len(inp) - keep_inp:], lab[:keep_lab]
    ids = [1] + inp + [1] + lab
    return TokenizedPair(tuple(ids), tuple([0] * (1 + len(inp)) + [1] * (1 + len(lab))))


def pad_to(tp, length):
    """A TokenBatch of one row: the TokenizedPair right-padded with PAD
    tokens up to `length`, pad_mask False and the last segment id repeated
    over the pads."""
    from polyscore.errors import ContractError
    from polyscore.text import PAD_ID, TokenBatch

    extra = length - len(tp)
    if extra < 0:
        raise ContractError(f"cannot pad length {len(tp)} down to {length}")
    return TokenBatch(
        token_ids=np.array([tp.token_ids + (PAD_ID,) * extra], dtype=np.int64),
        segment_ids=np.array([tp.segment_ids + (tp.segment_ids[-1],) * extra], dtype=np.int64),
        pad_mask=np.array([(True,) * len(tp) + (False,) * extra]),
    )


def checkpoint_bytes_reference(model) -> bytes:
    """A checkpoint file as the struct-based writer built it before the shared
    record layer: magic, u32 version, u32-prefixed canonical JSON header, u32
    record count, then per parameter (sorted by name) a u32-prefixed name, u8
    ndim, u32 dims and float64 little-endian values."""
    header = json.dumps({
        "config": {field: getattr(model.cfg, field) for field in (
            "layers", "heads", "hidden", "ffn_hidden", "vocab_size", "max_positions",
            "dropout_p")},
        "kind": model.kind,
        "poly_m": model.poly_m,
        "poly_variant": model.poly_variant,
        "reduction": model.reduction,
        "version": 1,
    }, sort_keys=True, separators=(",", ":")).encode()
    records = sorted(model.named_parameters().items())
    blob = bytearray()
    blob += b"PLYSCKPT"
    blob += struct.pack("<I", 1)
    blob += struct.pack("<I", len(header))
    blob += header
    blob += struct.pack("<I", len(records))
    for name, t in records:
        nb = name.encode()
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    return bytes(blob)


def cache_bytes_reference(cache, version=2) -> bytes:
    """A cache file as a struct-based writer builds it: magic, u32 version,
    u32-prefixed fingerprint, at version 2 the u32-prefixed vocabulary hash
    and the u32 context and candidate caps, u32 C and hidden, the float32
    little-endian matrix, then per candidate a u32 id and a u32-prefixed
    UTF-8 string. Version 1 is the layout written before caches carried
    their vocabulary and caps."""
    blob = bytearray()
    blob += b"PLYCACHE"
    blob += struct.pack("<I", version)
    fp = cache.fingerprint.encode()
    blob += struct.pack("<I", len(fp))
    blob += fp
    if version >= 2:
        vocab_hash, context_cap, candidate_cap = cache.binding
        blob += struct.pack("<I", len(vocab_hash.encode())) + vocab_hash.encode()
        blob += struct.pack("<II", context_cap, candidate_cap)
    c, hidden = cache.embeddings.shape
    blob += struct.pack("<II", c, hidden)
    blob += np.ascontiguousarray(cache.embeddings, dtype="<f4").tobytes()
    for cid, s in zip(cache.ids, cache.strings):
        sb = s.encode()
        blob += struct.pack("<II", cid, len(sb))
        blob += sb
    return bytes(blob)
