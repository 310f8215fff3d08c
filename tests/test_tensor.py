"""Core tensor ops: spec'd examples, gradient checks and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscore import tensor as T
from polyscore.errors import ContractError, NumericError, ShapeError
from polyscore.tensor import Tensor

from conftest import make_rng
from oracles import backward_recursive, dot, grad_check, matmul_triple_loop, permute, scale, \
    softmax_closed_form, tsum


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(3))
        v = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = T.matmul(eye, v)
        assert np.array_equal(out.data, v.data)  # bit-comparable

    def test_hand_checked_2x2(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert T.matmul(a, b).data.tolist() == [[3.0], [7.0]]

    def test_against_triple_loop(self):
        rng = make_rng(3)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_triple_loop(a, b)).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_identity_product_bit_identical(self):
        rng = make_rng(11)
        a = rng.normal(size=(6, 4))
        out = T.matmul(Tensor(np.eye(6)), Tensor(a))
        assert np.array_equal(out.data, a)


def attention_softmax(x, bias=None):
    """The softmax of the vector x (plus a 0/-inf `bias`) through
    `T.attention`: one unscaled head of the query x over identity keys and
    values, whose scores are x and whose output is their softmax."""
    n = x.shape[-1]
    bias = np.zeros(n) if bias is None else np.asarray(bias, dtype=float)
    return T.attention(x.reshape(-1, n), np.eye(n), np.eye(n), bias.reshape(1, 1, 1, n), 1,
                       scale=1.0).reshape(x.shape)


class TestSoftmax:
    """The softmax inside `T.attention`, read through `attention_softmax`."""

    def test_uniform_on_zeros(self):
        out = attention_softmax(np.zeros(3))
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_stability_no_overflow(self):
        out = attention_softmax(np.array([1000.0, 0.0]))
        assert abs(out[0] - 1.0) < 1e-12
        assert abs(out[1]) < 1e-12

    def test_closed_form(self):
        out = attention_softmax(np.array([1.0, 2.0, 3.0]))
        expected = softmax_closed_form([1.0, 2.0, 3.0])
        assert np.abs(out - expected).max() < 1e-12
        assert np.allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            attention_softmax(np.array([1.0, float("nan")]))

    def test_neg_inf_is_fine(self):
        # a -inf score is a pad key's bias (the query itself must stay finite,
        # as -inf times an identity key's 0 is NaN)
        out = attention_softmax(np.zeros(2), bias=[0.0, float("-inf")])
        assert out.tolist() == [1.0, 0.0]

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_permutation_equivariant(self, xs):
        x = np.array(xs)
        out = attention_softmax(x)
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()
        perm = np.random.default_rng(1).permutation(len(xs))
        out_perm = attention_softmax(x[perm])
        assert np.abs(out_perm - out[perm]).max() < 1e-12


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        n = 4
        out = T.layer_norm(Tensor([5.0] * n), Tensor(np.ones(n)), Tensor(np.zeros(n)))
        assert np.abs(out.data).max() < 1e-5  # eps keeps the zero-variance case finite

    def test_two_point_closed_form(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.abs(out.data - [-1.0, 1.0]).max() < 1e-5

    def test_zero_gain_gives_bias(self):
        bias = np.array([1.0, 2.0, 3.0])
        out = T.layer_norm(Tensor([4.0, 5.0, 9.0]), Tensor(np.zeros(3)), Tensor(bias))
        assert np.array_equal(out.data, bias)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor([1.0, 2.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3) + 1, requires_grad=True)
        grads = T.backward(tsum(p), [p])
        assert np.array_equal(grads[p], np.ones((2, 3)))

    def test_dot_gives_2p(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        grads = T.backward(dot(p, p), [p])
        assert np.abs(grads[p] - 2 * p.data).max() < 1e-12

    def test_unreachable_param_gets_zeros(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        q = Tensor([3.0, 4.0], requires_grad=True)
        grads = T.backward(tsum(p), [p, q])
        assert np.array_equal(grads[q], np.zeros(2))

    def test_shared_vjp_gradients_are_not_summed_into(self):
        # add hands one g to both parents, and each parent then receives a
        # second gradient: a sum into that shared g would corrupt the other
        p = Tensor(make_rng(3).normal(size=(3, 4)), requires_grad=True)
        a, b = scale(p, 2.0), scale(p, 3.0)
        u = T.add(T.add(T.add(a, b), a), b)
        flat = T.reshape(u, (12,))
        want = backward_recursive(dot(flat, flat), [p])  # first: backward consumes the graph
        grads = T.backward(dot(flat, flat), [p])
        assert grads[p].tobytes() == want[p].tobytes()
        assert np.abs(grads[p] - 2 * 10 * 10 * p.data).max() < 1e-12

    def test_second_backward_on_one_loss_raises(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = dot(T.add(p, p), p)
        first = T.backward(loss, [p])
        assert loss.item() == 28.0  # backward keeps every node's data
        with pytest.raises(ContractError):
            T.backward(loss, [p])
        # the parameter is not consumed: a new forward over it runs as the first
        assert T.backward(dot(T.add(p, p), p), [p])[p].tobytes() == first[p].tobytes()

    def test_loss_over_consumed_nodes_raises(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        h = T.add(p, p)
        T.backward(dot(h, p), [p])
        assert np.array_equal(h.data, 2.0 * p.data)  # a held intermediate keeps its value
        with pytest.raises(ContractError):
            T.backward(dot(h, p), [p])

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.add(p, p), [p])

    def test_two_layer_mini_network_finite_differences(self):
        rng = make_rng(5)
        w1 = rng.normal(size=(4, 6))
        b1 = rng.normal(size=6)
        w2 = rng.normal(size=(6, 3))
        x = rng.normal(size=(2, 4))
        arrays = {"w1": w1, "b1": b1, "w2": w2}
        params = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
        xt = Tensor(x)

        def forward():
            h = T.gelu(T.add(T.matmul(xt, params["w1"]), params["b1"]))
            out = T.reshape(T.attention(T.matmul(h, params["w2"]), np.eye(3), np.eye(3),
                                        np.zeros((1, 1, 1, 3)), 1, scale=1.0), (6,))
            return dot(out, out)

        def loss_value():
            return forward().item()

        grads = T.backward(forward(), list(params.values()))
        analytic = {n: grads[params[n]] for n in arrays}
        grad_check(loss_value, arrays, analytic, rng, probes=100, rtol=1e-4)


class TestOpGradients:
    """Every differentiable primitive against central differences."""

    CASES = {
        "matmul": lambda p, r: T.matmul(p, r["b"]),
        "add_bias": lambda p, r: T.add(p, r["bias"]),
        "scale": lambda p, r: scale(p, 1.7),
        "transpose": lambda p, r: T.transpose(p),
        "reshape": lambda p, r: T.reshape(p, (15,)),
        # attention's softmax: one unscaled head over identity keys, scores p
        "softmax": lambda p, r: T.attention(p, r["eye"], r["v"], r["no_bias"], 1, scale=1.0),
        "softmax_shifted": lambda p, r: T.attention(T.add(p, r["shift"]), r["eye"], r["v"],
                                                    r["no_bias"], 1, scale=1.0),  # past T
        "cross_entropy": lambda p, r: T.cross_entropy(p, [4, 0, 2]),
        "gelu": lambda p, r: T.gelu(p),
        "layer_norm": lambda p, r: T.layer_norm(p, r["gain"], r["beta"]),
        "tsum_last": lambda p, r: tsum(p, axis=-1),
        "gather_rows": lambda p, r: T.gather_rows(p, [0, 2, 2, 1]),
        # batched-encoder ops; their input shapes are in SHAPES
        "matmul_batched": lambda p, r: T.matmul(p, r["b3"]),
        "matmul_batched_rhs": lambda p, r: T.matmul(r["a3"], p),
        "split_heads": lambda p, r: permute(T.reshape(p, (2, 3, 2, 2)), (0, 2, 1, 3)),
        "merge_heads": lambda p, r: T.reshape(permute(p, (0, 2, 1, 3)), (6, 4)),
        # [B*L, H] queries, B=2, L=3, of two 2-wide heads over the same keys
        "softmax_masked_4d": lambda p, r: T.attention(p, r["k6"], r["v6"], r["key_bias"], 2),
    }
    SHAPES = {
        "matmul_batched": (2, 3, 5),
        "matmul_batched_rhs": (2, 3, 5),
        "split_heads": (6, 4),  # [B*L, H] with B=2, L=3, 2 heads of 2
        "merge_heads": (2, 2, 3, 2),  # [B, heads, L, d]
        "softmax_masked_4d": (6, 4),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_primitive_gradient(self, name):
        rng = make_rng(hash(name) % 2**31)
        x = rng.normal(size=self.SHAPES.get(name, (3, 5)))
        refs = {
            "b": Tensor(rng.normal(size=(5, 4))),
            "bias": Tensor(rng.normal(size=5)),
            "gain": Tensor(rng.normal(size=5)),
            "beta": Tensor(rng.normal(size=5)),
            "b3": Tensor(rng.normal(size=(2, 5, 4))),
            "a3": Tensor(rng.normal(size=(2, 4, 3))),
            # pad keys: row 0 keeps keys 0-1, row 1 keeps key 0
            "key_bias": np.where([[[[True, True, False]]], [[[True, False, False]]]],
                                 0.0, -np.inf),
            "shift": np.full(5, 400.0),
            "eye": np.eye(5),
            "no_bias": np.zeros((1, 1, 1, 5)),
        }
        proj = rng.normal(size=(100,))
        refs.update(v=rng.normal(size=(5, 5)), k6=rng.normal(size=(6, 4)),
                    v6=rng.normal(size=(6, 4)))

        def build(arr):
            p = Tensor(arr, requires_grad=True)
            out = self.CASES[name](p, refs)
            flat = T.reshape(out, (out.data.size,))
            return dot(flat, Tensor(proj[:out.data.size])), p

        loss, p = build(x)
        analytic = {"x": T.backward(loss, [p])[p]}
        grad_check(lambda: build(x)[0].item(), {"x": x}, analytic, rng,
                   probes=40, rtol=1e-4)

    def test_stack_gradients(self):
        rng = make_rng(99)
        xs = [rng.normal(size=(2, 3)) for _ in range(3)]
        proj = Tensor(rng.normal(size=(18,)))

        def build():
            ps = [Tensor(a, requires_grad=True) for a in xs]
            stacked = T.stack(ps)
            loss = dot(T.reshape(stacked, (18,)), proj)
            return loss, ps

        loss, ps = build()
        grads = T.backward(loss, ps)
        analytic = {f"x{i}": grads[p] for i, p in enumerate(ps)}
        grad_check(lambda: build()[0].item(),
                   {f"x{i}": a for i, a in enumerate(xs)}, analytic, rng, probes=30)

    def test_dropout_grad_matches_mask(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        out = T.dropout(x, 0.5, make_rng(3).random((4, 4)) >= 0.5)
        grads = T.backward(tsum(out), [x])
        assert np.array_equal(grads[x], out.data)  # mask already includes 1/(1-p)


class TestInvariants:
    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_no_grad_path_builds_no_tape(self):
        a = Tensor(np.ones((2, 2)))
        out = T.matmul(a, a)
        assert out._parents == () and out._vjp is None

    def test_grad_path_records_parents(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.matmul(a, a)
        assert out.requires_grad and len(out._parents) == 2

    def test_backward_reuses_node_gradients_correctly(self):
        # diamond: y = x*x + x*x must give dy/dx = 4x
        x = Tensor([[3.0]], requires_grad=True)
        sq = T.matmul(x, x)
        y = tsum(T.add(sq, sq))
        grads = T.backward(y, [x])
        assert np.abs(grads[x] - 12.0).max() < 1e-12
