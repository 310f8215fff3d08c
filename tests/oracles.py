"""Independent reference implementations used only by tests.

Everything here is deliberately written as straight-line / loop code that
shares no path with the package: triple-loop matmul, closed-form softmax and
cross-entropy, a from-scratch transformer trace, brute-force reranking and
finite differences.
"""

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
    w = T.softmax(logits)
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
    one name -> gradient dict per step (a missing name skips that parameter);
    returns the final arrays."""
    from polyscore.optim import ADAM_DECAY, EPS, learning_rate

    theta = {n: a.copy() for n, a in params.items()}
    m = {n: np.zeros_like(a) for n, a in params.items()}
    v = {n: np.zeros_like(a) for n, a in params.items()}
    b1, b2 = cfg.beta1, cfg.beta2
    for step, grads in enumerate(grad_steps, 1):
        lr = learning_rate(cfg, step)
        for name in params:
            g = grads.get(name)
            if g is None:
                continue
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


def softmax_vjp_formula(out, g):
    return (g - (g * out).sum(axis=-1, keepdims=True)) * out


def scatter_add_formula(shape, dtype, index, g):
    """The gradient of a gather: np.add.at into zeros, in `dtype`."""
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out, index, g)
    return out


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
    """Mean of nll_from_logits over rows given as a list of logit vectors."""
    from polyscore import tensor as T
    from polyscore.losses import nll_from_logits

    return T.tmean(T.stack([nll_from_logits(row, t) for row, t in zip(logit_rows, targets)]))


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
    return T.tmean(T.stack(losses))


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
        part = T.scale(cross_entropy_rows(logits, targets), len(targets) / total)
        loss = part if loss is None else T.add(loss, part)
    return loss


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
    return T.tmean(T.stack(losses))


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

    inp = [vocab.id_of(t) for t in input_text.lower().split()]
    lab = [vocab.id_of(t) for t in label_text.lower().split()]
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
        "config": model.cfg.to_dict(),
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


def cache_bytes_reference(cache) -> bytes:
    """A cache file as the struct-based writer built it before the shared
    record layer: magic, u32 version, u32-prefixed fingerprint, u32 C and
    hidden, the float32 little-endian matrix, then per candidate a u32 id and
    a u32-prefixed UTF-8 string."""
    blob = bytearray()
    blob += b"PLYCACHE"
    blob += struct.pack("<I", 1)
    fp = cache.fingerprint.encode()
    blob += struct.pack("<I", len(fp))
    blob += fp
    c, hidden = cache.embeddings.shape
    blob += struct.pack("<II", c, hidden)
    blob += np.ascontiguousarray(cache.embeddings, dtype="<f4").tobytes()
    for cid, s in zip(cache.ids, cache.strings):
        sb = s.encode()
        blob += struct.pack("<II", cid, len(sb))
        blob += sb
    return bytes(blob)
