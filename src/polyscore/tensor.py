"""Dense tensors with reverse-mode automatic differentiation.

Arrays are numpy-backed (float64 for training/verification, float32 for
speed paths). Each op that has a differentiable input records its parents
and a vector-Jacobian closure on the output node; `backward` replays the
implicit tape in reverse topological order. Nodes whose inputs carry no
gradient requirement skip graph construction entirely, so inference-mode
forwards build no tape.

Tensors are immutable after creation for graph purposes: training code may
swap `.data` in place only between forward passes, never while a tape that
references the tensor is still live.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError

GELU_COEFF = 0.044715
GELU_SCALE = math.sqrt(2.0 / math.pi)


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


def _result(data, parents, vjp):
    """Build an op output; drop the tape record when no parent needs grads."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, a[..., M, K] @ b[..., K, N].

    Leading (batch) axes must be identical; nothing is broadcast.
    """
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shapes do not agree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _result(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; the only broadcast allowed is a 1-D bias on the last axis."""
    bias = b.data.ndim == 1 and a.data.ndim > 1
    if bias:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"bias length {b.shape} does not match last axis of {a.shape}")
    elif a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def vjp(g):
        gb = g.sum(axis=tuple(range(g.ndim - 1))) if bias else g
        return g, gb

    return _result(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, identical shapes only."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = a.data * b.data

    def vjp(g):
        return g * b.data, g * a.data

    return _result(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, (a,), lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes into a contiguous copy; without `axes`, the matrix transpose."""
    if axes is None:
        if a.data.ndim != 2:
            raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
        axes = (1, 0)
    elif sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"axes {axes} are not a permutation of the axes of {a.shape}")
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    return _result(out, (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two equal-length vectors, as a scalar tensor."""
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot expects equal-length vectors: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g * b.data, g * a.data

    return _result(out, (a, b), vjp)


def softmax(x: Tensor, axis: int = -1, bias=None) -> Tensor:
    """Max-subtracted softmax along the last axis; NaN inputs are rejected.

    `bias`, a constant array broadcast onto x, is added first: -inf masks an
    entry to probability 0, 0 keeps it. Every row needs one finite entry.
    """
    if axis not in (-1, x.data.ndim - 1):
        raise ShapeError("softmax is defined along the last axis only")
    if np.isnan(x.data).any():
        raise NumericError("softmax received NaN input")
    z = x.data if bias is None else x.data + bias
    if z.shape != x.shape:
        raise ShapeError(f"softmax bias {np.shape(bias)} does not broadcast onto {x.shape}")
    out = z - z.max(axis=-1, keepdims=True)
    np.exp(out, out=out)  # in place: attention-sized arrays make temporaries costly
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        return ((g - (g * out).sum(axis=-1, keepdims=True)) * out,)

    return _result(out, (x,), vjp)


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) along the last axis, stable for widely spread logits."""
    if np.isnan(x.data).any():
        raise NumericError("log_softmax received NaN input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    sm = np.exp(out)

    def vjp(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _result(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} do not match last axis of {x.shape}"
        )
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        gxhat = g * gain.data
        gx = (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return _result(out, (x, gain, bias), vjp)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    # products, not `**`: np.power with exponent 3 is ~30x slower
    xd = x.data
    x2 = xd * xd
    t = np.tanh(GELU_SCALE * (xd + GELU_COEFF * x2 * xd))
    out = 0.5 * xd * (1.0 + t)

    def vjp(g):
        du = GELU_SCALE * (1.0 + 3.0 * GELU_COEFF * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    return _result(out, (x,), vjp)


def tsum(x: Tensor, axis=None) -> Tensor:
    """Sum to a scalar (axis=None) or reduce the last axis (axis=-1)."""
    if axis is None:
        out = x.data.sum()

        def vjp(g):
            return (np.full(x.shape, g, dtype=x.dtype),)

    elif axis in (-1, x.data.ndim - 1):
        out = x.data.sum(axis=-1)

        def vjp(g):
            return (np.broadcast_to(np.expand_dims(g, -1), x.shape).copy(),)

    else:
        raise ShapeError("tsum supports axis None or the last axis")
    return _result(out, (x,), vjp)


def tmean(x: Tensor) -> Tensor:
    """Mean over all elements, as a scalar tensor."""
    size = x.data.size
    out = x.data.mean()

    def vjp(g):
        return (np.full(x.shape, g / size, dtype=x.dtype),)

    return _result(out, (x,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None,
            keep: np.ndarray | None = None) -> Tensor:
    """Inverted dropout; call only on training paths. The boolean `keep` mask
    is drawn as rng.random(x.shape) >= p unless the caller passes it."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0,1), got {p}")
    if p == 0.0:
        return _result(x.data.copy(), (x,), lambda g: (g,))
    # the tape keeps a boolean mask, not a float array of the input's size;
    # mask * scale rebuilds the 0 or 1/(1-p) multiplier exactly (signed zeros
    # of dropped entries included)
    mask = rng.random(x.shape) >= p if keep is None else keep
    if mask.shape != x.shape:
        raise ShapeError(f"dropout mask {mask.shape} does not match input {x.shape}")
    scale = x.dtype.type(1.0 / (1.0 - p))

    def vjp(g):
        return (g * (mask * scale),)

    return _result(x.data * (mask * scale), (x,), vjp)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup out[i] = table[ids[i]]; repeated ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix table, got {table.shape}")
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _result(out, (table,), vjp)


def take_pairs(x: Tensor, rows, cols) -> Tensor:
    """Pick x[rows[i], cols[i]] into a vector; used for picking target logits."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = x.data[rows, cols]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, cols), g)
        return (gx,)

    return _result(out, (x,), vjp)


def stack(tensors) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    tensors = list(tensors)
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack needs equal shapes, got {sorted(shapes)}")
    out = np.stack([t.data for t in tensors])

    def vjp(g):
        return tuple(g[i] for i in range(len(tensors)))

    return _result(out, tuple(tensors), vjp)


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

    # iterative DFS: deep tapes (long training graphs) must not hit the
    # recursion limit
    topo: list[Tensor] = []
    visited: set[int] = set()
    work = [loss]
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

    # an intermediate node's gradient is dropped once its vjp has consumed
    # it, so backward holds the gradients of a frontier, not of the whole tape
    keep = {id(p) for p in params}
    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0, dtype=loss.dtype)}
    for node in reversed(topo):
        g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg

    out = {}
    for p in params:
        g = grads.get(id(p))
        out[p] = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=p.data.dtype)
    return out
