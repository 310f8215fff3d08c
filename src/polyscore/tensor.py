"""Dense tensors with reverse-mode automatic differentiation: plain-array
kernels under a thin tape layer.

Each op takes Tensors or bare numpy arrays (float64 for training and
verification, float32 for speed paths), checks and computes on the arrays, and
hands its output and vector-Jacobian closure to `_result`. That returns a
Tensor recording parents and closure if an input needs a gradient, an untaped
Tensor if an input is one, and else the bare array: a forward that hands its
ops bare arrays (see `operand`) runs kernels end to end and builds no Tensor
per op. `backward` replays the implicit tape in reverse topological order.
The encoder's and poly's chains are fused ops (`linear`, `attention`, residual
`layer_norm`, `poly_scores`): one node each, keeping only what its vjp reads.

Tensors are immutable after creation for graph purposes: training code may
update `.data` in place only between forward passes, never while a tape that
references the tensor is still live.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError

GELU_COEFF = 0.044715
GELU_SCALE = math.sqrt(2.0 / math.pi)
# the safe exponent T = ln(1/tiny)/2 of each float width: 43.7 and 354
EXP_SAFE = {np.dtype(t): -0.5 * math.log(np.finfo(t).tiny) for t in (np.float32, np.float64)}


class Tensor:
    """A numpy array plus the autodiff bookkeeping for reverse mode."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if 0 in arr.shape:
            raise ShapeError(f"zero-sized dimension in shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def operand(t: Tensor):
    """What a forward hands an op for `t`: the Tensor when it needs a
    gradient, else its bare array, so no tape or Tensor is built for it."""
    return t if t.requires_grad else t.data


def as_tensor(x) -> Tensor:
    """An op result as a Tensor: Tensors pass through, a bare array is wrapped."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _data(x):
    return x.data if isinstance(x, Tensor) else x


def _result(out, inputs, vjp):
    """The tape layer: an op's kernel output as the op's result (see the
    module docstring); `vjp` is recorded only when an input needs a gradient."""
    wrap = False
    for x in inputs:
        if isinstance(x, Tensor):
            if x.requires_grad:  # array inputs become constant parents: Tensors only
                parents = tuple(p if isinstance(p, Tensor) else Tensor(p) for p in inputs)
                return Tensor(out, requires_grad=True, _parents=parents, _vjp=vjp)
            wrap = True
    return Tensor(out) if wrap else out


def matmul(a, b):
    """Matrix product over the last two axes, a[..., M, K] @ b[..., K, N].

    Leading (batch) axes must be identical; nothing is broadcast.
    """
    inputs = a, b
    a, b = _data(a), _data(b)
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shapes do not agree: {a.shape} x {b.shape}")

    def vjp(g):
        return g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g

    return _result(a @ b, inputs, vjp)


def add(a, b):
    """Elementwise add; the only broadcast allowed is a 1-D bias on the last axis."""
    inputs = a, b
    a, b = _data(a), _data(b)
    bias = b.ndim == 1 and a.ndim > 1
    if bias:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"bias length {b.shape} does not match last axis of {a.shape}")
    elif a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def vjp(g):
        return g, g.sum(axis=tuple(range(g.ndim - 1))) if bias else g

    return _result(a + b, inputs, vjp)


def transpose(a):
    """The matrix transpose, as a contiguous copy."""
    x = _data(a)
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.shape}")
    return _result(np.ascontiguousarray(x.T), (a,), lambda g: (g.T,))


def reshape(a, shape):
    x = _data(a)
    orig = x.shape
    return _result(x.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def _softmax_rows(z, bias):
    """Softmax of z + bias (0, or -inf to mask) over the last axis, in place. While z
    is within EXP_SAFE, every e^z and row sum is normal and finite: no max shift."""
    t = EXP_SAFE[z.dtype]
    free = -t <= z.min() and z.max() <= t  # NaN fails
    z += bias
    if free:
        np.exp(z, out=z)
        z /= np.einsum("...i->...", z)[..., None]
        return z
    top = z.max(axis=-1, keepdims=True)
    # max propagates NaN, so a NaN anywhere in a row shows in its max, also
    # under a -inf mask (NaN - inf is NaN)
    if np.isnan(top).any():
        raise NumericError("softmax received NaN input")
    z -= top
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_mean(l, w, bound, bias=None, out=None):
    """sum w*l / sum w over axis -2 of [..., m', N] logits l, weights w = e^(l + bias)
    written into w (bias 0, or -inf to mask a slot), each column's max subtracted
    before the exp unless `bound`, a bound on |l|, is within EXP_SAFE (NaN is not).
    l becomes w*l in place. Returns sum w and the means."""
    ones = np.ones(l.shape[-2], l.dtype)
    z = l if bias is None else np.add(l, bias, out=w)
    if not bound <= EXP_SAFE[l.dtype]:
        z = np.subtract(z, z.max(axis=-2, keepdims=True), out=w)
    np.exp(z, out=w)
    den = ones @ w
    l *= w
    return den, np.divide(ones @ l, den, out=out)


def cross_entropy(logits, targets, denominator: int | None = None):
    """Softmax cross-entropy of [B, N] logits against one target column per
    row, -sum_b log_softmax(logits)[b, targets[b]] / denominator (default B:
    the mean), stable for widely spread logits; NaN inputs are rejected."""
    inputs = (logits,)
    x = _data(logits)
    if np.isnan(x).any():
        raise NumericError("cross_entropy received NaN input")
    shifted = x - x.max(axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(x.shape[0])
    d = len(rows) if denominator is None else denominator

    def vjp(g):  # -g/d at each target, through log_softmax: gp - softmax * sum(gp)
        gp = np.zeros_like(lsm)
        gp[rows, targets] = g * -1.0 / d
        return (gp - np.exp(lsm) * gp.sum(axis=-1, keepdims=True),)

    return _result(lsm[rows, targets].sum() / d * -1.0, inputs, vjp)


def layer_norm(x, gain, bias, eps: float = 1e-12, residual=None):
    """Normalize the last axis to zero mean / unit variance, then affine;
    given a `residual` r, of x + r (one node, parents (x, r, gain, bias))."""
    inputs = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    x, gain, bias = _data(x), _data(gain), _data(bias)
    if residual is not None:
        r = _data(residual)
        if r.shape != x.shape:
            raise ShapeError(f"layer_norm residual {r.shape} does not match {x.shape}")
        x = x + r
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} do not match last axis of {x.shape}"
        )
    # einsum sums each row by itself, so a row's result does not depend on its batch
    xhat = x - np.einsum("...i->...", x)[..., None] / n
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / n + eps)
    xhat *= inv
    out = xhat * gain
    out += bias

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        gx = g * gain  # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv
        proj = np.einsum("...i,...i->...", gx, xhat)[..., None] / n
        gx -= np.einsum("...i->...", gx)[..., None] / n
        gg = xhat * proj
        gx -= gg
        gx *= inv
        grads = gx, np.multiply(g, xhat, out=gg).sum(axis=lead), g.sum(axis=lead)
        return grads if residual is None else (gx, *grads)  # x and r share gx

    return _result(out, inputs, vjp)


def gelu(x):
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    inputs = (x,)
    x = _data(x)
    # in place in the formula's order, so it rounds the same; products, not `**` (30x slower)
    t = x * x
    t *= GELU_COEFF
    t *= x
    t += x
    t *= GELU_SCALE
    out = np.tanh(t, out=t) + 1.0
    out *= x * 0.5  # 0.5 * x * (1 + t)

    def vjp(g):  # g * (0.5*(1 + t) + 0.5*x*(1 - t*t) * SCALE*(1 + 3*COEFF*x2))
        du = x * x  # x2 again: the tape keeps x and t only
        du *= 3.0 * GELU_COEFF
        du += 1.0
        du *= GELU_SCALE
        gx = 1.0 - t * t
        gx *= 0.5 * x
        gx *= du
        gx += 0.5 * (1.0 + t)
        gx *= g
        return (gx,)

    return _result(out, inputs, vjp)


def _dropper(p: float, keep: np.ndarray | None, x):
    """a -> a * (keep * c), c = 1/(1-p), for arrays shaped like x, or the
    identity without a mask. The tape keeps the boolean mask (drawn as
    rng.random(x.shape) >= p), and keep * c rebuilds the 0 or 1/(1-p)
    multiplier exactly (signed zeros of dropped entries included)."""
    if keep is None:
        return lambda a: a
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0,1), got {p}")
    if keep.shape != x.shape:
        raise ShapeError(f"dropout mask {keep.shape} does not match input {x.shape}")
    c = x.dtype.type(1.0 / (1.0 - p))

    def drop(a):
        out = np.multiply(keep, c)
        out *= a
        return out

    return drop


def dropout(x, p: float, keep: np.ndarray | None):
    """Inverted dropout under a boolean `keep` mask (`_dropper`); x without one."""
    if keep is None:
        return x
    inputs = (x,)
    x = _data(x)
    drop = _dropper(p, keep, x)
    return _result(drop(x), inputs, lambda g: (drop(g),))


def linear(x, w, b, keep: np.ndarray | None = None, p: float = 0.0):
    """x @ w + b for [N, K] rows, a [K, M] weight and an [M] bias, then
    `dropout` under a `keep` mask if given: one node, parents (x, w, b)."""
    inputs = x, w, b
    x, w, b = _data(x), _data(w), _data(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear shapes do not agree: {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w
    out += b
    drop = _dropper(p, keep, out)

    def vjp(g):
        g = drop(g)
        return g @ w.T, x.T @ g, g.sum(axis=0)

    return _result(drop(out), inputs, vjp)


def attention(q, k, v, key_bias: np.ndarray, heads: int,
              keep: np.ndarray | None = None, p: float = 0.0, scale: float | None = None):
    """Multi-head attention of [B*R, H] queries over [B*L, H] keys and values,
    to the [B*R, H] merged context: queries times `scale` (default 1/sqrt(d)),
    heads split into contiguous copies, scores plus the constant [B, 1, 1, L]
    `key_bias` (-inf at pad keys), softmax (no max shift within EXP_SAFE),
    `dropout` of the [B, heads, R, L] probabilities under `keep` if given. One
    node, parents (q, k, v), keeping the probabilities (its vjp splits q, k, v
    again)."""
    inputs = q, k, v
    q, k, v = _data(q), _data(k), _data(v)
    b, length = key_bias.shape[0], key_bias.shape[-1]
    rows, hidden = len(q) // b, q.shape[-1]
    d = hidden // heads
    if (key_bias.shape != (b, 1, 1, length) or q.shape != (b * rows, heads * d)
            or k.shape != (b * length, hidden) or v.shape != k.shape):
        raise ShapeError(f"attention shapes do not agree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, key bias {key_bias.shape}, {heads} heads")
    c = 1.0 / math.sqrt(d) if scale is None else scale

    def split(t, n, axes):  # [B*n, H] -> [B, heads, n, d], or [B, heads, d, n] for keys
        return np.ascontiguousarray(np.transpose(t.reshape(b, n, heads, d), axes))

    z = split(q * c, rows, (0, 2, 1, 3)) @ split(k, length, (0, 2, 3, 1))
    probs = _softmax_rows(z, key_bias)
    drop = _dropper(p, keep, probs)
    ctx = drop(probs) @ split(v, length, (0, 2, 1, 3))
    out = np.ascontiguousarray(np.transpose(ctx, (0, 2, 1, 3))).reshape(b * rows, hidden)

    def vjp(g):
        g = np.transpose(g.reshape(b, rows, heads, d), (0, 2, 1, 3))
        gp = g @ np.swapaxes(split(v, length, (0, 2, 1, 3)), -1, -2)
        gv = np.swapaxes(drop(probs), -1, -2) @ g
        gz = drop(gp)  # through the softmax: (gz - sum(gz * probs)) * probs
        gz -= np.einsum("...i,...i->...", gz, probs)[..., None]
        gz *= probs
        gq = gz @ np.swapaxes(split(k, length, (0, 2, 3, 1)), -1, -2)
        gk = np.swapaxes(split(q * c, rows, (0, 2, 1, 3)), -1, -2) @ gz
        return (np.transpose(gq, (0, 2, 1, 3)).reshape(b * rows, hidden) * c,
                np.transpose(gk, (0, 3, 1, 2)).reshape(b * length, hidden),
                np.transpose(gv, (0, 2, 1, 3)).reshape(b * length, hidden))

    return _result(out, inputs, vjp)


def poly_scores(v, c, valid: np.ndarray):
    """[B, N] poly scores: (b, n) is c[n]'s dot product with its attention-pooled
    [m', H] context v[b], which is the `softmax_mean` of the logits v[b, j]·c[n]
    over the slots `valid` keeps (bound: max |v_j| * max |c_n|). One node, parents
    (v, c), keeping the [B, m', N] w and w*l: ds/dl = w * (1 + l - s) / sum w."""
    inputs = v, c
    v, c = _data(v), _data(c)
    if v.ndim != 3 or c.shape[1:] != v.shape[2:] or np.shape(valid) != v.shape[:2]:
        raise ShapeError(f"poly_scores shapes do not agree: v {v.shape}, c {c.shape}, "
                         f"valid {np.shape(valid)}")
    (b, m, hidden), n = v.shape, len(c)
    wl = (v.reshape(b * m, hidden) @ c.T).reshape(b, m, n)  # logits, until weighted
    w = np.empty_like(wl)
    bound = math.sqrt(np.einsum("bmh,bmh->bm", v, v).max() * np.einsum("nh,nh->n", c, c).max())
    den, s = softmax_mean(wl, w, bound, np.where(valid, 0.0, -np.inf).astype(wl.dtype)[..., None])

    def vjp(g):
        gl = w * (1.0 - s)[:, None]  # one [B, m', N] array, scaled in place
        gl += wl
        gl *= (g / den)[:, None]
        gl = gl.reshape(b * m, n)
        return (gl @ c).reshape(b, m, hidden), gl.T @ v.reshape(b * m, hidden)

    return _result(s, inputs, vjp)


def _scatter_add(like, flat, g):
    """np.add.at into zeros by flat index, via bincount: same order, float64 sums."""
    out = np.bincount(flat.ravel(), weights=g.ravel(), minlength=like.size)
    return out.reshape(like.shape).astype(like.dtype, copy=False)


def gather_rows(table, ids):
    """Row lookup out[i] = table[ids[i]]; repeated ids accumulate gradient."""
    inputs = (table,)
    table = _data(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix table, got {table.shape}")

    def vjp(g):
        rows, h = table.shape
        return (_scatter_add(table, (ids % rows)[..., None] * h + np.arange(h), g),)

    return _result(table.take(ids, axis=0), inputs, vjp)  # table[ids], ~2x faster


def stack(tensors):
    """Stack equal-shape tensors along a new leading axis."""
    inputs = tuple(tensors)
    arrays = [_data(t) for t in inputs]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ShapeError(f"stack needs equal shapes, got {sorted(shapes)}")
    return _result(np.stack(arrays), inputs, tuple)


def backward(loss: Tensor, params) -> dict:
    """Gradients of a scalar loss with respect to each marked parameter.

    Parameters not reachable from the loss get zero gradients. Gradients are
    accumulated in a side table keyed by node identity, so tensors stay
    immutable and only the marked parameters' gradients are returned.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    params = list(params)
    for p in params:
        if not p.requires_grad:
            raise ContractError("backward called with an unmarked parameter")

    # iterative post-order DFS, each node's parents last to first: deep tapes
    # (long training graphs) must not hit the recursion limit
    topo: list[Tensor] = []
    visited = {id(loss)}
    work = [(loss, reversed(loss._parents))]
    while work:
        node, parents = work[-1]
        for p in parents:
            if p.requires_grad and id(p) not in visited:
                visited.add(id(p))
                work.append((p, reversed(p._parents)))
                break
        else:
            topo.append(node)
            work.pop()

    # an intermediate node's gradient is dropped once its vjp has consumed
    # it, so backward holds the gradients of a frontier, not of the whole tape;
    # vjps hand out views of g, so only buffers made by a sum here are summed into
    keep = {id(p) for p in params}
    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0, dtype=loss.dtype)}
    owned: set[int] = set()
    for node in reversed(topo):
        g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            key, acc = id(parent), grads.get(id(parent))
            if acc is None:
                grads[key] = pg
            elif key in owned and acc.dtype == pg.dtype:  # as acc + pg would round
                acc += pg
            else:
                grads[key] = acc = acc + pg
                if isinstance(acc, np.ndarray):
                    owned.add(key)

    out = {}
    for p in params:
        g = grads.get(id(p))
        out[p] = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=p.data.dtype)
    return out
