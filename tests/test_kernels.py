"""The kernel path of the tensor ops: an inference forward hands every op bare
arrays and builds no Tensor per op, yet it computes what the taped path
computes and keeps every guard. Training's tape has the pinned size, the
fused encoder ops (and the learnt codes' attention) equal the op chains they
replaced bit for bit, and poly_scores equals the in-batch pool chain up to
rounding."""

import numpy as np
import pytest

from polyscore import tensor as T
from polyscore import training
from polyscore.encoder import ModelConfig, TransformerOutput, TransformerWeights, forward
from polyscore.errors import NumericError, ShapeError
from polyscore.heads import poly_context_vectors
from polyscore.losses import cross_entropy_rows
from polyscore.model import Model, Scorer
from polyscore.tensor import Tensor
from polyscore.text import PAD_ID, Example, TokenBatch, Vocabulary, encode_single
from polyscore.training import FinetuneSettings, apply_freeze

from conftest import make_rng, summed
import oracles
from oracles import tsum

VOCAB = Vocabulary([f"w{i}" for i in range(28)])
CONTEXTS = [["w1 w2 w3 w4 w5 w6 w7", "w8 w9"], ["w3"], ["w5 w6", "w7 w8 w9 w10"]]
CANDIDATES = ["w4 w5", "w6", "w7 w8 w9 w10 w11 w12"]
ARCHS = [("bi", None), ("poly", "learnt"), ("poly", "first_m"), ("poly", "last_m"),
         ("poly", "last_m_h1"), ("cross", None)]


def scorer_pair(kind, variant, dtype):
    """(inference scorer, taped scorer) over the same weights: two models
    derived alike from one seed."""
    def derived():
        base = Model.init_pretrain(ModelConfig(vocab_size=len(VOCAB)), make_rng(17), dtype=dtype)
        return base.derive(kind, make_rng(1), poly_variant=variant,
                           poly_m=3 if variant else None)

    frozen, model = derived(), derived()
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
    batch = TokenBatch.of([scorer.encode_context(turns) for turns in CONTEXTS])
    out = {"candidate_vectors": scorer.candidate_vectors(CANDIDATES),
           "candidate_vector": scorer.candidate_vector(CANDIDATES[2]),
           "context_states": forward(batch, model.context_tower()).hidden_states}
    if model.kind == "bi":
        out["context_vector"] = scorer.context_vector(CONTEXTS[0])
        out["context_vectors"] = scorer.context_vectors(CONTEXTS)
    else:
        out["poly_vectors"] = scorer.poly_vectors(CONTEXTS[0])
        out["poly_context"] = scorer.poly_context(CONTEXTS)[0]
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
    # the embeddings' three gathers, two adds and layer norm, ten ops per
    # layer (see TAPE_NODES) and the final reshape
    assert len(made) == 6 + 2 * 10 + 1 and out.hidden_states.requires_grad


def test_nan_under_masked_pad_key_raises(desk_weights):
    w = desk_weights.copy()
    for t in w.params.values():
        t.requires_grad = False
    w.params["embeddings.token"].data[PAD_ID] = np.nan
    batch = TokenBatch.of([encode_single("w1 w2 w3", VOCAB, 8), encode_single("w1", VOCAB, 8)])
    assert not batch.pad_mask.all()
    with pytest.raises(NumericError):
        forward(batch, w)
    # the same NaN at a masked key, straight into the kernel: one unscaled
    # head over identity keys, whose scores are the query itself
    keys = np.eye(3)
    keys[2, 2] = np.nan
    bias = np.array([[[[0.0, 0.0, -np.inf]]]])
    with pytest.raises(NumericError):
        T.attention(np.ones((1, 3)), keys, np.eye(3), bias, 1, scale=1.0)


M = np.ones((2, 3))
GUARDED = {
    "matmul": lambda: T.matmul(M, M),
    "matmul_batch": lambda: T.matmul(np.ones((2, 2, 3)), np.ones((3, 3, 2))),
    "add": lambda: T.add(M, np.ones((3, 2))),
    "add_bias": lambda: T.add(M, np.ones(2)),
    "transpose": lambda: T.transpose(np.ones((2, 3, 4))),
    "layer_norm": lambda: T.layer_norm(M, np.ones(2), np.zeros(3)),
    "layer_norm_residual": lambda: T.layer_norm(M, np.ones(3), np.zeros(3), residual=M.T),
    "linear": lambda: T.linear(M, M, np.ones(3)),
    "linear_bias": lambda: T.linear(M, M.T, np.ones(3)),
    "attention": lambda: T.attention(np.ones((2, 4)), np.ones((3, 4)), np.ones((3, 4)),
                                     np.zeros((1, 1, 1, 2)), 2),
    "tsum": lambda: tsum(M, axis=0),
    "dropout": lambda: T.dropout(M, 0.5, np.ones((3, 2), dtype=bool)),
    "gather_rows": lambda: T.gather_rows(np.ones(3), [0]),
    "stack": lambda: T.stack([M, np.ones(3)]),
    "poly_scores": lambda: T.poly_scores(np.ones((2, 3, 4)), np.ones((5, 3)), np.ones((2, 3))),
    "poly_scores_valid": lambda: T.poly_scores(np.ones((2, 3, 4)), np.ones((5, 4)),
                                               np.ones((3, 2))),
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


# tape nodes of one training step's loss, parameters included. The pins catch
# unintended tape growth. An encoder layer records ten nodes: six `linear`
# projections, one `attention`, one `gelu` and two residual `layer_norm`s;
# the embeddings five gathers and adds, their layer norm and, under dropout,
# its `dropout`. A forward that selects h_1 and whose input to the last
# block is taped adds its gather of the h_1 rows (bi: both towers; poly: the candidate
# tower; cross: the pairs). Poly's in-batch scores are one `poly_scores`
# node, and its learnt codes a `gather_rows` of the codes tiled to every row
# and one `attention`. Frozen lower layers (top_layer) run as kernels and
# record nothing, nor does the gather of their untaped rows
TAPE_NODES = {
    ("bi", None, "every_layer"): 139, ("poly", "learnt", "every_layer"): 140,
    ("poly", "last_m_h1", "every_layer"): 138, ("cross", None, "every_layer"): 76,
    ("bi", None, "top_layer"): 61, ("poly", "learnt", "top_layer"): 63,
    ("poly", "last_m_h1", "top_layer"): 61, ("cross", None, "top_layer"): 37,
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
        loss = summed(training.cross_batch_loss(scorer, batch, [ex.gold for ex in batch],
                                                FinetuneSettings(n_candidates=3), make_rng(6),
                                                drop_rng=make_rng(5)))
    assert tape_nodes(loss) == TAPE_NODES[key]


def test_pretraining_step_tape_unchanged():
    batch = step_batch()
    model = Model.init_pretrain(ModelConfig(vocab_size=len(VOCAB)), make_rng(1))
    mlm = training.mlm_batch_loss(model, VOCAB, batch, make_rng(7), make_rng(8))
    triples = training.next_selection_batch(batch, make_rng(9), 4)
    nxt = training.next_batch_loss(model, VOCAB, triples, make_rng(8))
    # both forwards add the gather of their selected rows to the last block
    # (next: h_1; MLM: its target positions), and the MLM transform is one
    # `linear` where a matmul and a bias add were two
    assert (tape_nodes(mlm), tape_nodes(nxt)) == (80, 74)


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


# kernels whose row sums are einsum reductions: the formula's sums round in
# another order, so they agree within the aim-3 speed-up tolerance
SUM_ORDER_TOL = [(np.float64, 1e-9), (np.float32, 1e-5)]


@pytest.mark.parametrize("dtype,tol", SUM_ORDER_TOL, ids=["float64", "float32"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layer_norm_matches_formula(shape, dtype, tol):
    rng = make_rng(21)
    x = rng.normal(0.5, 3.0, size=shape).astype(dtype)
    gain, bias, g = (rng.normal(size=s).astype(dtype) for s in (13, 13, shape))
    out = T.layer_norm(taped(x), taped(gain), taped(bias), 1e-12)
    want_out, want_vjp = oracles.layer_norm_formula(x, gain, bias, 1e-12, g)
    assert close_or_same(out.data, want_out, tol)
    for got, want in zip(out._vjp(g), want_vjp):
        assert close_or_same(got, want, tol)


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
        out = T.dropout(taped(x), 0.3, keep)
        got_gx = out._vjp(g)[0]
        want_out, want_gx = oracles.dropout_formula(x, 0.3, keep, g)
    assert same_bits(out.data, want_out)
    assert same_bits(got_gx, want_gx)


@pytest.mark.parametrize("dtype,tol", SUM_ORDER_TOL, ids=["float64", "float32"])
@pytest.mark.parametrize("masked", [False, True])
def test_softmax_vjp_matches_formula(masked, dtype, tol):
    # the chains' softmax, whose einsum vjp `attention` repeats bit for bit
    # (test_fused_op_bit_identical_to_chain)
    rng = make_rng(24)
    x, g = (rng.normal(0.0, s, size=(3, 4, 9)).astype(dtype) for s in (3.0, 1.0))
    bias = np.where(rng.random((3, 1, 9)) < 0.3, -np.inf, 0.0).astype(dtype) if masked else None
    if masked:
        bias[..., 0] = 0.0
    out = oracles.softmax(taped(x), bias=bias)
    assert close_or_same(out._vjp(g)[0], oracles.softmax_vjp_formula(out.data, g), tol)


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


@pytest.mark.parametrize("g", [1.0, -0.37], ids=["g1", "g-0.37"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_cross_entropy_bit_identical_to_chain(dtype, g):
    rng = make_rng(26)
    # 7 rows: g * -1.0 / 7 and g * (-1.0 / 7) round apart at g = -0.37
    x = rng.normal(0.0, 4.0, size=(7, 6)).astype(dtype)
    targets = np.array([2, 5, 0, 5, 3, 1, -1])  # a repeated column, and -1 for the last
    g = np.asarray(g, dtype=dtype)  # as backward hands a scalar loss its gradient
    out = T.cross_entropy(taped(x), targets)
    want_out, want_gx = oracles.cross_entropy_chain_formula(x, targets, g)
    assert same_bits(out.data, want_out)
    assert same_bits(out._vjp(g)[0], want_gx)


def test_cross_entropy_rejects_nan():
    x = np.zeros((2, 3))
    x[1, 0] = np.nan
    with pytest.raises(NumericError):
        T.cross_entropy(x, [0, 1])


# ---- fused encoder ops: output and every input gradient equal those of the
# op chains they replaced (tests/oracles.py), bit for bit ----

B, L, HEADS, H = 3, 5, 2, 8
LENGTHS = [5, 2, 4]  # the second and third sequences padded


M_SLOTS, N_CANDS = 4, 5  # poly_scores: context vectors per row, candidate columns
VALID = np.arange(M_SLOTS) < np.array([4, 1, 2])[:, None]  # the last two rows padded


def fused_cases(dtype, rows, dropout):
    """op -> (fused op, the chain it replaced, input arrays, upstream
    gradient), with `rows` query rows per sequence (L, or 1 as in the last
    block of a forward that selects h_1; the learnt codes' count for
    `attention_codes`) and, if `dropout`, keep masks."""
    rng = make_rng(27)

    def normal(*shape, s=1.0):
        return rng.normal(0.0, s, size=shape).astype(dtype)

    def mask(*shape):
        return rng.random(shape) >= 0.3 if dropout else None

    n = B * rows
    lin_keep, attn_keep = mask(n, 6), mask(B, HEADS, rows, L)
    real = np.arange(L) < np.array(LENGTHS)[:, None]
    bias = np.where(real, 0.0, -np.inf).astype(dtype)[:, None, None, :]
    cases = {
        "linear": (lambda x, w, b: T.linear(x, w, b, lin_keep, 0.3),
                   lambda x, w, b: oracles.linear_chain(x, w, b, lin_keep, 0.3),
                   [normal(n, H), normal(H, 6), normal(6)], normal(n, 6)),
        "attention": (lambda q, k, v: T.attention(q, k, v, bias, HEADS, attn_keep, 0.3),
                      lambda q, k, v: oracles.attention_chain(q, k, v, bias, HEADS, attn_keep, 0.3),
                      [normal(n, H, s=2.0), normal(B * L, H, s=2.0), normal(B * L, H)],
                      normal(n, H)),
        "layer_norm_residual": (
            lambda x, r, gain, b: T.layer_norm(x, gain, b, 1e-12, residual=r),
            lambda x, r, gain, b: oracles.layer_norm_residual_chain(x, r, gain, b, 1e-12),
            [normal(n, H, s=3.0), normal(n, H), normal(H), normal(H)], normal(n, H)),
        # scores far outside [-T, T]: the softmax keeps its max shift
        "attention_shifted": (
            lambda q, k, v: T.attention(q, k, v, bias, HEADS, attn_keep, 0.3),
            lambda q, k, v: oracles.attention_chain(q, k, v, bias, HEADS, attn_keep, 0.3),
            [normal(n, H, s=20.0), normal(B * L, H, s=20.0), normal(B * L, H)], normal(n, H)),
    }
    # the learnt codes: one unscaled head, `rows` codes tiled to every
    # sequence, whose states are both keys and values
    codes_keep = mask(B, 1, rows, L)
    cases["attention_codes"] = (
        lambda q, h: T.attention(q, h, h, bias, 1, codes_keep, 0.3, scale=1.0),
        lambda q, h: oracles.attention_chain(q, h, h, bias, 1, codes_keep, 0.3, c=1.0),
        [np.tile(normal(rows, H), (B, 1)), normal(B * L, H)], normal(n, H))
    # poly scores of N_CANDS candidates over pad-heavy rows of context
    # vectors; at scale 20 the bound passes EXP_SAFE, and the max shift runs
    for op, s in (("poly_scores", 1.0), ("poly_scores_shifted", 20.0)):
        cases[op] = (lambda v, c: T.poly_scores(v, c, VALID),
                     lambda v, c: oracles.poly_pool_chain(v, c, VALID),
                     [normal(B, M_SLOTS, H, s=s), normal(N_CANDS, H, s=s)], normal(B, N_CANDS))
    return cases


FUSED = ["linear", "attention", "layer_norm_residual", "attention_codes"]
SHIFTED = ["attention_shifted"]  # cases past the shift-free bound
POOL = ["poly_scores", "poly_scores_shifted"]  # equal to their chain up to rounding


@pytest.mark.parametrize("rows", [L, 1], ids=["R=L", "R=1"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("op,dropout", [(op, mask) for op in FUSED + SHIFTED
                                        for mask in (False, True)
                                        if op != "layer_norm_residual" or not mask],
                         ids=lambda v: {False: "no_mask", True: "mask"}.get(v, v))
def test_fused_op_bit_identical_to_chain(op, dropout, dtype, rows):
    fused, chain, arrays, g = fused_cases(dtype, rows, dropout)[op]
    got_in, want_in = [taped(a) for a in arrays], [taped(a) for a in arrays]
    got, want = fused(*got_in), chain(*want_in)
    assert tape_nodes(got) == len(arrays) + 1  # one node over its inputs
    assert same_bits(got.data, want.data)
    for got_g, want_g in zip(oracles.chain_gradients(got, g, got_in),
                             oracles.chain_gradients(want, g, want_in)):
        assert same_bits(got_g, want_g)


@pytest.mark.parametrize("rows", [L, 1], ids=["R=L", "R=1"])
@pytest.mark.parametrize("op", FUSED + SHIFTED + POOL)
def test_fused_op_gradients(op, rows):
    fused, _, arrays, _ = fused_cases(np.float64, rows, True)[op]
    rng = make_rng(28)
    inputs = [taped(a) for a in arrays]
    out = fused(*inputs)
    proj = rng.normal(size=out.shape)
    named = {f"input{i}": a for i, a in enumerate(arrays)}
    analytic = dict(zip(named, oracles.chain_gradients(out, proj, inputs)))
    oracles.grad_check(lambda: float((fused(*arrays) * proj).sum()), named, analytic, rng,
                       probes=60)


def kept_bytes(node):
    """Bytes of the arrays a node's vjp closure holds (nested closures
    included) that are not its parents' own arrays."""
    parents = {id(p.data) for p in node._parents}
    seen, kept, work = set(), 0, [node._vjp]
    while work:
        for cell in work.pop().__closure__ or ():
            v = cell.cell_contents
            if id(v) in seen or id(v) in parents:
                continue
            seen.add(id(v))
            if isinstance(v, np.ndarray):
                kept += v.nbytes
            elif callable(v) and getattr(v, "__closure__", None):
                work.append(v)
    return kept


def test_fused_ops_keep_only_what_their_gradients_read():
    """The tape keeps boolean masks, the attention probabilities before
    dropout, the layer norm's xhat and 1/std and gelu's tanh: no float mask,
    no head-split copy and no array a parent already holds."""
    n, f64 = B * L, 8
    cases = fused_cases(np.float64, L, True)
    want = {"linear": n * 6, "attention": B * HEADS * L * L * (f64 + 1),
            "layer_norm_residual": n * H * f64 + n * f64,
            "attention_codes": B * L * L * (f64 + 1),
            # weights and weighted logits, [B, m', N]; scores and weight sums, [B, N]:
            # no [N, B, H] pooled vectors
            "poly_scores": 2 * B * M_SLOTS * N_CANDS * f64 + 2 * B * N_CANDS * f64}
    for op in FUSED + POOL[:1]:
        fused, _, arrays, _ = cases[op]
        assert kept_bytes(fused(*[taped(a) for a in arrays])) == want[op], op
    assert kept_bytes(T.gelu(taped(np.ones((n, H))))) == n * H * f64


# ---- poly_scores: the in-batch pool chain's scores from the logits alone,
# equal to the chain up to rounding ----


@pytest.mark.parametrize("op", POOL)
def test_poly_scores_match_pool_chain(op):
    """float64: scores and both gradients within 1e-9 of the largest entry."""
    fused, chain, arrays, g = fused_cases(np.float64, L, False)[op]
    got_in, want_in = [taped(a) for a in arrays], [taped(a) for a in arrays]
    got, want = fused(*got_in), chain(*want_in)
    assert tape_nodes(got) == len(arrays) + 1
    assert close_or_same(got.data, want.data, 1e-9)
    for got_g, want_g in zip(oracles.chain_gradients(got, g, got_in),
                             oracles.chain_gradients(want, g, want_in)):
        assert close_or_same(got_g, want_g, 1e-9)


def test_poly_scores_float32_match_float64():
    """float32 within 1e-5 of the float64 op on the same inputs, at logit
    scales inside float32's EXP_SAFE (the shift-free path)."""
    fused, _, arrays, g = fused_cases(np.float32, L, False)["poly_scores"]
    v, c = arrays
    assert np.abs(v.reshape(-1, H) @ c.T).max() < T.EXP_SAFE[np.dtype(np.float32)]
    wide = [a.astype(np.float64) for a in arrays]
    got_in, want_in = [taped(a) for a in arrays], [taped(a) for a in wide]
    got, want = fused(*got_in), fused(*want_in)
    assert got.dtype == np.float32
    assert np.abs(got.data - want.data).max() <= 1e-5 * np.abs(want.data).max()
    for got_g, want_g in zip(oracles.chain_gradients(got, g, got_in),
                             oracles.chain_gradients(want, g.astype(np.float64), want_in)):
        assert got_g.dtype == np.float32
        assert np.abs(got_g - want_g).max() <= 1e-5 * np.abs(want_g).max()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_poly_scores_ignore_a_masked_slot_that_tops_the_valid_ones(dtype):
    """On the shifted path, a masked slot whose logit tops every valid one
    takes no weight: the scores are finite and equal those with that slot's
    vector negated (same norm, so the same bound and path), and its gradient
    is 0. Masking after the exp would make it inf * 0 = NaN."""
    _, _, (v, c), g = fused_cases(dtype, L, False)["poly_scores_shifted"]
    v[1, 3] = 4.0 * c[0]  # row 1 keeps slot 0 only
    logits = v.astype(np.float64) @ c.astype(np.float64).T  # [B, m', N]
    assert logits[1, 3, 0] > logits[1, 0, 0] and logits[1, 3, 0] > T.EXP_SAFE[np.dtype(dtype)]
    flipped = v.copy()
    flipped[1, 3] *= -1.0
    vt = taped(v)
    out = T.poly_scores(vt, c, VALID)
    assert np.isfinite(out.data).all()
    assert same_bits(out.data, T.poly_scores(flipped, c, VALID))
    gv = oracles.chain_gradients(out, g, [vt])[0]
    assert np.isfinite(gv).all() and (gv[~VALID] == 0.0).all()


@pytest.mark.parametrize("slot", ["valid", "masked"])
def test_poly_loss_rejects_a_nan_context_vector(slot):
    """A NaN in any context vector, under the pad mask too, makes the
    bound NaN, so the shifted path runs, and the loss raises NumericError."""
    _, _, (v, c), _ = fused_cases(np.float64, L, False)["poly_scores"]
    v[1, 0 if slot == "valid" else 2, 3] = np.nan  # row 1 keeps slot 0 only
    with pytest.raises(NumericError):
        cross_entropy_rows(T.poly_scores(taped(v), c, VALID), np.arange(B))


@pytest.mark.parametrize("dtype,tol", SUM_ORDER_TOL, ids=["float64", "float32"])
def test_learnt_codes_match_their_chain(dtype, tol):
    """heads' learnt codes, one `attention` node over the codes tiled by one
    gather, within tol of the chain they replaced, vectors and gradients."""
    rng = make_rng(33)
    h = rng.normal(size=(B, L, H)).astype(dtype)
    codes = rng.normal(size=(3, H)).astype(dtype)
    pad_mask = np.arange(L) < np.array(LENGTHS)[:, None]
    g = rng.normal(size=(B, 3, H)).astype(dtype)
    got_in, want_in = [taped(h), taped(codes)], [taped(h), taped(codes)]
    got, _ = poly_context_vectors(TransformerOutput(got_in[0], pad_mask), "learnt", 3, got_in[1])
    want = oracles.learnt_codes_chain(want_in[0], want_in[1], pad_mask)
    assert close_or_same(got.data, want.data, tol)
    for got_g, want_g in zip(oracles.chain_gradients(got, g, got_in),
                             oracles.chain_gradients(want, g, want_in)):
        assert close_or_same(got_g, want_g, tol)


# ---- the softmax guard: shift-free while every score is within [-T, T],
# else today's max-shifted arithmetic, which also rejects NaN ----


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("op", ["attention", "attention_shifted"])
def test_attention_takes_the_path_its_scores_allow(op, dtype):
    """Scores within [-T, T] take the shift-free softmax, scores past T the
    max-shifted one: bit for bit the plain-numpy formula of each."""
    _, _, (q, k, v), _ = fused_cases(dtype, L, False)[op]
    d = H // HEADS
    scores = (q.reshape(B, L, HEADS, d).transpose(0, 2, 1, 3)
              @ k.reshape(B, L, HEADS, d).transpose(0, 2, 3, 1)) / np.sqrt(d)
    shift = np.abs(scores).max() > T.EXP_SAFE[np.dtype(dtype)]
    assert shift == (op == "attention_shifted")
    bias = np.where(np.arange(L) < np.array(LENGTHS)[:, None], 0.0, -np.inf).astype(dtype)
    bias = bias[:, None, None, :]
    assert same_bits(T.attention(q, k, v, bias, HEADS),
                     oracles.attention_formula(q, k, v, bias, HEADS, shift))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("offset", [0.0, 400.0], ids=["shift_free", "shifted"])
def test_softmax_takes_the_path_its_input_allows(offset, dtype):
    """Bit for bit the formula of the path x allows. Rows with one real
    entry (pad-heavy rows) put exactly 1 there on both paths. One unscaled
    head over identity keys and values: its scores are the queries x, and
    its output is their softmax."""
    rng = make_rng(30)
    x = (rng.normal(0.0, 3.0, size=(3, 4, 9)) + offset).astype(dtype)
    bias = np.where(rng.random((3, 1, 9)) < 0.3, -np.inf, 0.0).astype(dtype)
    bias[0] = -np.inf
    bias[:, :, 0] = 0.0  # every row keeps entry 0, rows of block 0 nothing else
    shift = np.abs(x).max() > T.EXP_SAFE[np.dtype(dtype)]
    assert shift == (offset > 0.0)
    eye = np.tile(np.eye(9, dtype=dtype), (3, 1))
    out = T.attention(x.reshape(12, 9), eye, eye, bias[:, None], 1, scale=1.0).reshape(x.shape)
    assert same_bits(out, oracles.softmax_formula(x + bias, shift))
    assert (out[0, :, 0] == 1.0).all() and (out[0, :, 1:] == 0.0).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("s", [1.0, 20.0], ids=["shift_free", "shifted"])
def test_attention_over_one_real_key_returns_its_value(s, dtype):
    rng = make_rng(31)
    q, k, v = (rng.normal(0.0, sc, size=(B * L, H)).astype(dtype) for sc in (s, s, 1.0))
    bias = np.where(np.arange(L) < np.array([1, L, 1])[:, None], 0.0, -np.inf)
    out = T.attention(q, k, v, bias.astype(dtype)[:, None, None, :], HEADS)
    for i in (0, 2):
        assert same_bits(out[i * L:(i + 1) * L], np.repeat(v[i * L:i * L + 1], L, axis=0))


@pytest.mark.parametrize("where", ["q", "k_pad", "softmax"])
def test_nan_takes_the_shifted_path_and_raises(where):
    rng = make_rng(32)
    q, k, v = (rng.normal(size=(B * L, H)) for _ in range(3))
    bias = np.where(np.arange(L) < np.array(LENGTHS)[:, None], 0.0, -np.inf)[:, None, None, :]
    if where == "q":
        q[0, 0] = np.nan
    else:
        k[L + LENGTHS[1], 0] = np.nan  # a pad key of the second sequence
    with pytest.raises(NumericError):
        if where == "softmax":  # the chains' softmax
            oracles.softmax(q[:L] @ k[L:2 * L].T, bias=bias[1, 0])
        else:
            T.attention(q, k, v, bias, HEADS)
