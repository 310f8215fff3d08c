"""The kernel path of the tensor ops: an inference forward hands every op bare
arrays and builds no Tensor per op, yet it computes what the taped path
computes, keeps every guard, and leaves training's tape as it was."""

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore import training
from polyscore.encoder import ModelConfig, TransformerWeights, forward
from polyscore.errors import NumericError, ShapeError
from polyscore.heads import poly_context_vectors, reduce_output
from polyscore.model import Model, Scorer
from polyscore.tensor import Tensor
from polyscore.text import PAD_ID, Example, TokenBatch, Vocabulary, encode_single
from polyscore.training import FinetuneSettings, apply_freeze

from conftest import make_rng
import oracles
from oracles import tsum

VOCAB = Vocabulary([f"w{i}" for i in range(28)])
CONTEXTS = [["w1 w2 w3 w4 w5 w6 w7", "w8 w9"], ["w3"], ["w5 w6", "w7 w8 w9 w10"]]
CANDIDATES = ["w4 w5", "w6", "w7 w8 w9 w10 w11 w12"]
ARCHS = [("bi", None), ("poly", "learnt"), ("poly", "first_m"), ("poly", "last_m"),
         ("poly", "last_m_h1"), ("cross", None)]


def scorer_pair(kind, variant, dtype):
    """(inference scorer, taped scorer) over the same weights."""
    base = Model.init_pretrain(ModelConfig(vocab_size=len(VOCAB)), make_rng(17), dtype=dtype)
    model = base.derive(kind, make_rng(1), poly_variant=variant, poly_m=3 if variant else None)
    frozen = model.astype(dtype)
    for t in frozen.named_parameters().values():
        t.requires_grad = False
    assert all(t.requires_grad for t in model.named_parameters().values())
    return Scorer(frozen, VOCAB), Scorer(model, VOCAB)


def scorer_outputs(scorer):
    """Every Scorer output of the model's kind, on padded batches and singly."""
    model = scorer.model
    if model.kind == "cross":
        pairs = [p for ctx in CONTEXTS for p in scorer.cross_pairs(ctx, CANDIDATES)]
        return {"cross_scores": scorer.cross_scores(pairs),
                "score_cross": scorer.score_cross(CONTEXTS[0], CANDIDATES[2])}
    out = {"candidate_vectors": scorer.candidate_vectors(CANDIDATES),
           "candidate_vector": scorer.candidate_vector(CANDIDATES[2]),
           "context_outputs": scorer.context_outputs(CONTEXTS).hidden_states}
    if model.kind == "bi":
        out["context_vector"] = scorer.context_vector(CONTEXTS[0])
        out["reduced_batch"] = reduce_output(scorer.context_outputs(CONTEXTS), model.reduction)
    else:
        out["poly_vectors"] = scorer.poly_vectors(CONTEXTS[0])
        vecs, _ = poly_context_vectors(scorer.context_outputs(CONTEXTS), model.poly_variant,
                                       model.poly_m, model.extras.get("poly.codes"))
        out["poly_batch"] = vecs
    return out


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-9), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("kind,variant", ARCHS, ids=[f"{k}-{v}" for k, v in ARCHS])
def test_inference_path_matches_taped_path(kind, variant, dtype, tol):
    bare, taped = scorer_pair(kind, variant, dtype)
    got, want = scorer_outputs(bare), scorer_outputs(taped)
    for name, t in got.items():
        assert isinstance(t, Tensor) and not t.requires_grad, name
        assert want[name].requires_grad, name
        assert t.dtype == dtype and t.shape == want[name].shape, name
        assert np.abs(t.data - want[name].data).max() <= tol, name


def count_tensors(monkeypatch):
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return made


@pytest.mark.parametrize("layers", [1, 4])
def test_inference_forward_builds_constant_tensors(layers, monkeypatch):
    cfg = ModelConfig(vocab_size=len(VOCAB), layers=layers)
    w = TransformerWeights.init(cfg, make_rng(3))
    for t in w.params.values():
        t.requires_grad = False
    batch = TokenBatch.of([encode_single(t, VOCAB, 16) for t in CANDIDATES])
    made = count_tensors(monkeypatch)
    taps = {}
    out = forward(batch, w, taps=taps)
    # the hidden states and the tap, whatever the layer count
    assert len(made) == 2
    assert isinstance(out.hidden_states, Tensor) and isinstance(taps["last_ffn_out"], Tensor)


def test_taped_forward_still_builds_a_tensor_per_op(monkeypatch):
    w = TransformerWeights.init(ModelConfig(vocab_size=len(VOCAB)), make_rng(3))
    made = count_tensors(monkeypatch)
    out = forward(TokenBatch.of([encode_single("w1 w2", VOCAB, 8)]), w)
    assert len(made) > 50 and out.hidden_states.requires_grad


def test_nan_under_masked_pad_key_raises(desk_weights):
    w = desk_weights.copy()
    for t in w.params.values():
        t.requires_grad = False
    w.params["embeddings.token"].data[PAD_ID] = np.nan
    batch = TokenBatch.of([encode_single("w1 w2 w3", VOCAB, 8), encode_single("w1", VOCAB, 8)])
    assert not batch.pad_mask.all()
    with pytest.raises(NumericError):
        forward(batch, w)
    # the same NaN at a masked key, straight into the kernel
    logits = np.zeros((1, 3))
    logits[0, 2] = np.nan
    with pytest.raises(NumericError):
        T.softmax(logits, bias=np.array([0.0, 0.0, -np.inf]))


M = np.ones((2, 3))
GUARDED = {
    "matmul": lambda: T.matmul(M, M),
    "matmul_batch": lambda: T.matmul(np.ones((2, 2, 3)), np.ones((3, 3, 2))),
    "add": lambda: T.add(M, np.ones((3, 2))),
    "add_bias": lambda: T.add(M, np.ones(2)),
    "mul": lambda: T.mul(M, np.ones(3)),
    "transpose": lambda: T.transpose(np.ones((2, 3, 4))),
    "transpose_axes": lambda: T.transpose(M, (0, 0)),
    "softmax_axis": lambda: T.softmax(M, axis=0),
    "softmax_bias": lambda: T.softmax(M, bias=np.zeros((4, 2, 3))),
    "layer_norm": lambda: T.layer_norm(M, np.ones(2), np.zeros(3)),
    "tsum": lambda: tsum(M, axis=0),
    "dropout": lambda: T.dropout(M, 0.5, keep=np.ones((3, 2), dtype=bool)),
    "gather_rows": lambda: T.gather_rows(np.ones(3), [0]),
    "stack": lambda: T.stack([M, np.ones(3)]),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_shape_guards_fire_on_bare_arrays(name):
    with pytest.raises(ShapeError):
        GUARDED[name]()


def test_ops_return_the_type_they_are_given():
    a = np.ones((2, 2))
    assert type(T.matmul(a, a)) is np.ndarray
    untaped = T.matmul(Tensor(a), a)
    assert isinstance(untaped, Tensor) and untaped._parents == () and untaped._vjp is None
    taped = T.matmul(a, Tensor(a, requires_grad=True))
    assert taped.requires_grad and all(isinstance(p, Tensor) for p in taped._parents)


def tape_nodes(t):
    seen, work = {id(t)}, [t]
    while work:
        for parent in work.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                work.append(parent)
    return len(seen)


# tape nodes of one training step's loss, as counted before the ops had a
# kernel path, less the no-op reshape each cross/next score and learnt poly
# head dropped once the heads took batches only; frozen lower layers
# (top_layer) may run kernels but record the same tape
TAPE_NODES = {
    ("bi", None, "every_layer"): 228, ("poly", "learnt", "every_layer"): 244,
    ("poly", "last_m_h1", "every_layer"): 239, ("cross", None, "every_layer"): 122,
    ("bi", None, "top_layer"): 108, ("poly", "learnt", "top_layer"): 124,
    ("poly", "last_m_h1", "top_layer"): 119, ("cross", None, "top_layer"): 62,
}


def step_batch():
    rng = make_rng(3)

    def words(n):
        return " ".join(f"w{int(i)}" for i in rng.integers(0, 28, size=n))

    return [Example((words(3 + i), words(2)), (words(1 + i % 3), words(2)), 0)
            for i in range(4)]


@pytest.mark.parametrize("key", sorted(TAPE_NODES, key=str), ids=lambda k: "-".join(map(str, k)))
def test_training_step_tape_unchanged(key):
    kind, variant, freeze = key
    batch = step_batch()
    base = Model.init_pretrain(ModelConfig(vocab_size=len(VOCAB)), make_rng(1))
    model = base.derive(kind, make_rng(2), poly_variant=variant, poly_m=3 if variant else None)
    apply_freeze(model, freeze)
    scorer = Scorer(model, VOCAB)
    if kind == "bi":
        loss = training.bi_batch_loss(scorer, batch, rng=make_rng(5))
    elif kind == "poly":
        loss = training.poly_batch_loss(scorer, batch, rng=make_rng(5))
    else:
        loss = training.cross_batch_loss(scorer, batch, [ex.gold for ex in batch],
                                         FinetuneSettings(n_candidates=3), make_rng(6),
                                         drop_rng=make_rng(5))
    assert tape_nodes(loss) == TAPE_NODES[key]


def test_pretraining_step_tape_unchanged():
    batch = step_batch()
    model = Model.init_pretrain(ModelConfig(vocab_size=len(VOCAB)), make_rng(1))
    mlm = training.mlm_batch_loss(model, VOCAB, batch, make_rng(7), make_rng(8))
    triples = training.next_selection_batch(batch, make_rng(9), 4)
    nxt = training.next_batch_loss(model, VOCAB, triples, make_rng(8))
    assert (tape_nodes(mlm), tape_nodes(nxt)) == (127, 120)


# ---- in-place kernels: the same float64 arithmetic as the out-of-place
# formulas they replaced (tests/oracles.py), bit for bit ----


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def close_or_same(got, want, tol):
    """Bit for bit at tol 0, else within tol relative to the largest entry."""
    if tol == 0.0:
        return same_bits(got, want)
    return got.dtype == want.dtype and np.abs(got - want).max() <= tol * np.abs(want).max()


def taped(x):
    return Tensor(x, requires_grad=True)


SHAPES = [(7, 13), (2, 5, 13)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layer_norm_bit_identical_to_formula(shape):
    rng = make_rng(21)
    x = rng.normal(0.5, 3.0, size=shape)
    gain, bias, g = rng.normal(size=13), rng.normal(size=13), rng.normal(size=shape)
    out = T.layer_norm(taped(x), taped(gain), taped(bias), 1e-12)
    want_out, want_vjp = oracles.layer_norm_formula(x, gain, bias, 1e-12, g)
    assert same_bits(out.data, want_out)
    for got, want in zip(out._vjp(g), want_vjp):
        assert same_bits(got, want)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gelu_bit_identical_to_formula(shape):
    rng = make_rng(22)
    x, g = rng.normal(0.0, 4.0, size=shape), rng.normal(size=shape)
    out = T.gelu(taped(x))
    want_out, want_gx = oracles.gelu_formula(x, g)
    assert same_bits(out.data, want_out)
    assert same_bits(out._vjp(g)[0], want_gx)


def test_dropout_bit_identical_to_formula():
    rng = make_rng(23)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -1e-300, 5e-324]
    x = np.concatenate([special * 2, rng.normal(size=50)]).reshape(8, 8)
    g = np.concatenate([special[::-1] * 2, rng.normal(size=50)]).reshape(8, 8)
    keep = rng.random(x.shape) >= 0.3
    keep[0, :7], keep[0, 7:], keep[1, :] = True, False, False  # each special kept and dropped
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
        out = T.dropout(taped(x), 0.3, keep=keep)
        got_gx = out._vjp(g)[0]
        want_out, want_gx = oracles.dropout_formula(x, 0.3, keep, g)
    assert same_bits(out.data, want_out)
    assert same_bits(got_gx, want_gx)


@pytest.mark.parametrize("masked", [False, True])
def test_softmax_vjp_bit_identical_to_formula(masked):
    rng = make_rng(24)
    x, g = rng.normal(0.0, 3.0, size=(3, 4, 9)), rng.normal(size=(3, 4, 9))
    bias = np.where(rng.random((3, 1, 9)) < 0.3, -np.inf, 0.0) if masked else None
    if masked:
        bias[..., 0] = 0.0
    out = T.softmax(taped(x), bias=bias)
    assert same_bits(out._vjp(g)[0], oracles.softmax_vjp_formula(out.data, g))


IDS = np.array([0, 3, 3, 5, 0, 0, 2, 3, -1, 5])  # repeats, and -1 for the last row


@pytest.mark.parametrize("dtype,tol", [(np.float64, 0.0), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_gather_rows_scatter_matches_add_at(dtype, tol):
    rng = make_rng(25)
    table = rng.normal(size=(6, 4)).astype(dtype)
    g = rng.normal(0.0, 10.0, size=(len(IDS), 4)).astype(dtype)
    got = T.gather_rows(taped(table), IDS)._vjp(g)[0]
    want = oracles.scatter_add_formula(table.shape, dtype, IDS, g)
    # bincount accumulates in float64: float32 sums round once, at the end
    assert close_or_same(got, want, tol)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 0.0), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
def test_take_pairs_scatter_matches_add_at(dtype, tol):
    rng = make_rng(26)
    x = rng.normal(size=(4, 7)).astype(dtype)
    rows, cols = np.array([0, 1, 1, 3, 0, 1, -1]), np.array([2, 6, 6, 0, 2, 6, 1])
    g = rng.normal(0.0, 10.0, size=len(rows)).astype(dtype)
    got = T.take_pairs(taped(x), rows, cols)._vjp(g)[0]
    want = oracles.scatter_add_formula(x.shape, dtype, (rows, cols), g)
    assert close_or_same(got, want, tol)
