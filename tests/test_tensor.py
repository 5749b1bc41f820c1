"""Autodiff core: op semantics, gradients against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhka import tensor as T
from mhka.errors import ContractError, DimensionError, LabelError, ParameterError
from mhka.gradcheck import check_gradients, finite_diff_grad


def param(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = param(np.eye(2))
        b = param([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_zero(self):
        a = param([[1.0, 2.0], [3.0, 4.0]])
        z = param([[0.0], [0.0]])
        assert np.array_equal(T.matmul(a, z).data, [[0.0], [0.0]])

    def test_hand_expanded(self):
        a = param([[1.0, 2.0], [3.0, 4.0]])
        b = param([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(param(np.ones((2, 3))), param(np.ones((2, 3))))


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(param([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_hand_ratio(self):
        # logits c, c + ln 2 give probabilities 1/3, 2/3 for any c
        for c in (0.0, -5.0, 11.25):
            out = T.softmax(param([c, c + np.log(2.0)]), axis=0)
            assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_singleton(self):
        assert np.allclose(T.softmax(param([5.0]), axis=0).data, [1.0])

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            T.softmax(param([1.0, 2.0]), axis=2)

    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(deadline=None)
    def test_rows_sum_to_one_and_shift_invariance(self, logits, shift):
        x = param(logits)
        y = T.softmax(x, axis=0).data
        assert abs(y.sum() - 1.0) < 1e-9
        assert np.all(y >= 0)
        y2 = T.softmax(param(np.asarray(logits) + shift), axis=0).data
        assert np.allclose(y, y2, atol=1e-9)


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        g, b = param(np.ones(3)), param(np.zeros(3))
        out = T.layer_norm(param([5.0, 5.0, 5.0]), g, b, eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_two_point_row(self):
        g, b = param(np.ones(2)), param(np.zeros(2))
        out = T.layer_norm(param([1.0, 3.0]), g, b, eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_zero_gamma_broadcasts_beta(self):
        g, b = param(np.zeros(3)), param([7.0, 8.0, 9.0])
        out = T.layer_norm(param(np.random.default_rng(0).normal(size=(4, 3))), g, b)
        assert np.allclose(out.data, np.tile(b.data, (4, 1)))

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            T.layer_norm(param([1.0, 2.0]), param(np.ones(2)), param(np.zeros(2)), eps=0.0)

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_row_statistics(self, d, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, d)) * 3.0 + rng.normal()
        out = T.layer_norm(param(x), param(np.ones(d)), param(np.zeros(d)), eps=1e-10)
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-7)
        if d > 1 and np.all(x.var(axis=-1) > 1e-3):
            assert np.all(np.abs(out.data.var(axis=-1) - 1.0) < 1e-5)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = T.cross_entropy(param([0.0, 0.0]), 0)
        assert np.isclose(loss.item(), np.log(2.0))

    def test_single_logit_zero_is_ln2(self):
        loss = T.cross_entropy(param([0.0]), "yes")
        assert np.isclose(loss.item(), np.log(2.0))

    def test_hand_probability(self):
        # p(gold) = 3 / (3 + 1) = 3/4
        loss = T.cross_entropy(param([np.log(3.0), 0.0]), 0)
        assert np.isclose(loss.item(), np.log(4.0 / 3.0))

    def test_out_of_range_gold(self):
        with pytest.raises(LabelError):
            T.cross_entropy(param([0.0, 0.0]), 2)
        with pytest.raises(LabelError):
            T.cross_entropy(param([0.0]), "maybe")


class TestBackward:
    def test_sum_gives_ones(self):
        x = param(np.arange(6, dtype=np.float64).reshape(2, 3))
        T.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_at_three(self):
        x = param([3.0])
        loss = T.tsum(T.mul(x, x))
        loss.backward()
        assert np.allclose(x.grad, [6.0])

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ContractError):
            param([1.0, 2.0]).backward()

    def test_two_path_linearity(self):
        # gradient of f+g equals grad f plus grad g computed separately
        x0 = np.array([0.3, -1.2, 2.0])

        def path_a(x):
            return T.tsum(T.mul(x, x))

        def path_b(x):
            return T.tsum(T.relu(x))

        x = param(x0)
        T.add(path_a(x), path_b(x)).backward()
        combined = x.grad.copy()
        xa, xb = param(x0), param(x0)
        path_a(xa).backward()
        path_b(xb).backward()
        assert np.allclose(combined, xa.grad + xb.grad)

    def test_accumulation_over_repeated_use(self):
        x = param([2.0])
        loss = T.tsum(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
        loss.backward()
        assert np.allclose(x.grad, [5.0])


class TestFiniteDiff:
    def test_square(self):
        x = param([3.0])
        g = finite_diff_grad(lambda: float(x.data[0] ** 2), {"x": x}, h=1e-4)
        assert abs(g["x"][0] - 6.0) < 1e-6

    def test_constant_function_of_softmax(self):
        x = param([0.4, -1.0, 2.2])
        g = finite_diff_grad(
            lambda: float(T.softmax(x, axis=0).data.sum()), {"x": x}, h=1e-5
        )
        assert np.all(np.abs(g["x"]) < 1e-8)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ParameterError):
            finite_diff_grad(lambda: 0.0, {}, h=0.0)


def _gradcheck_op(build, shapes, seed=0, h=1e-5):
    rng = np.random.default_rng(seed)
    params = {
        f"p{i}": param(rng.normal(size=s) * 0.8) for i, s in enumerate(shapes)
    }
    report = check_gradients(lambda: build(*params.values()), params, h=h)
    assert report.ok(1e-3), f"worst {report.worst_param}: {report.max_rel_error}"


class TestOpGradients:
    """Every differentiable op matches central finite differences."""

    def test_add_broadcast(self):
        _gradcheck_op(lambda a, b: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [(3, 4), (4,)])

    def test_mul(self):
        _gradcheck_op(lambda a, b: T.tsum(T.mul(a, b)), [(2, 3), (2, 3)])

    def test_matmul(self):
        _gradcheck_op(lambda a, b: T.tsum(T.mul(T.matmul(a, b), T.matmul(a, b))), [(2, 3), (3, 4)])

    def test_relu(self):
        _gradcheck_op(lambda a: T.tsum(T.mul(T.relu(a), T.relu(a))), [(5,)], seed=3)

    def test_gelu(self):
        _gradcheck_op(lambda a: T.tsum(T.mul(T.gelu(a), T.gelu(a))), [(6,)], seed=4)
        # near the origin too, where the curvature is largest
        x = param(np.linspace(-0.01, 0.01, 7))
        w = param(np.resize([1.0, -1.0], 7))
        report = check_gradients(lambda: T.tsum(T.mul(T.gelu(x), w)), {"x": x})
        assert report.ok(1e-3)

    def test_softmax(self):
        _gradcheck_op(
            lambda a, w: T.tsum(T.mul(T.softmax(a, axis=-1), w)), [(3, 4), (3, 4)]
        )

    def test_layer_norm(self):
        _gradcheck_op(
            lambda x, g, b, w: T.tsum(T.mul(T.layer_norm(x, g, b, eps=1e-5), w)),
            [(3, 4), (4,), (4,), (3, 4)],
        )

    def test_cross_entropy_multiclass(self):
        _gradcheck_op(lambda z: T.cross_entropy(z, 1), [(4,)])

    def test_cross_entropy_binary(self):
        _gradcheck_op(lambda z: T.cross_entropy(z, "yes"), [(1,)])
        _gradcheck_op(lambda z: T.cross_entropy(z, "no"), [(1,)])

    def test_embedding(self):
        ids = np.array([0, 2, 2, 1])
        _gradcheck_op(
            lambda w, u: T.tsum(T.mul(T.embedding(w, ids), u)), [(4, 3), (4, 3)]
        )

    def test_slice_concat_reshape(self):
        def build(a, b):
            joined = T.concat([T.slice_rows(a, 0, 2), b], axis=0)
            return T.tsum(T.mul(joined, joined))

        _gradcheck_op(build, [(4, 3), (2, 3)])

    def test_attention(self):
        def build(q, k, v, w):
            out, _ = T.attention(q, k, v, n_heads=2)
            return T.tsum(T.mul(out, w))

        _gradcheck_op(build, [(3, 4), (5, 4), (5, 4), (3, 4)])

    def test_attention_masked(self):
        mask = T.causal_mask(4)

        def build(q, k, v, w):
            out, _ = T.attention(q, k, v, n_heads=2, mask=mask)
            return T.tsum(T.mul(out, w))

        _gradcheck_op(build, [(4, 4), (4, 4), (4, 4), (4, 4)])

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=20)
    def test_random_composite(self, seed):
        def build(a, b, g, be):
            h = T.relu(T.matmul(a, b))
            h = T.layer_norm(h, g, be, eps=1e-5)
            return T.tsum(T.mul(h, h))

        _gradcheck_op(build, [(2, 3), (3, 4), (4,), (4,)], seed=seed)


class TestAttentionSemantics:
    def test_single_key_gives_weight_one(self):
        rng = np.random.default_rng(1)
        q = param(rng.normal(size=(3, 4)))
        k = param(rng.normal(size=(1, 4)))
        out, weights = T.attention(q, k, k, n_heads=2)
        assert np.allclose(weights, 1.0)
        assert np.allclose(out.data, np.tile(k.data, (3, 1)))

    def test_identical_keys_give_uniform_rows(self):
        rng = np.random.default_rng(2)
        q = param(rng.normal(size=(2, 4)))
        k = param(np.tile(rng.normal(size=(1, 4)), (5, 1)))
        v = param(rng.normal(size=(5, 4)))
        _, weights = T.attention(q, k, v, n_heads=2)
        assert np.allclose(weights, 1.0 / 5.0)

    def test_hand_computed_two_by_three(self):
        # one head, d_z = 2: weights are softmax(QK^T / sqrt(2)) row-wise
        q = param([[1.0, 0.0], [0.0, 1.0]])
        k = param([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        v = param([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out, weights = T.attention(q, k, v, n_heads=1)
        s = (q.data @ k.data.T) / np.sqrt(2.0)
        expected = np.exp(s) / np.exp(s).sum(axis=1, keepdims=True)
        assert np.allclose(weights[0], expected)
        assert np.allclose(out.data, expected @ v.data)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        q = param(x.copy())
        _, weights = T.attention(q, q, q, n_heads=2, mask=T.causal_mask(5))
        for h in range(2):
            assert np.allclose(np.triu(weights[h], k=1), 0.0)
            assert np.allclose(weights[h].sum(axis=1), 1.0)


def f32(shape, seed=0):
    data = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    return T.Tensor(data, requires_grad=True)


# every differentiable op on float32 inputs; constants and masks are left in
# the form callers write them (Python floats, float64 masks)
FLOAT32_OPS = {
    "add_broadcast": lambda: T.add(f32((3, 4)), f32((4,), 1)),
    "mul": lambda: T.mul(f32((3, 4)), f32((3, 4), 1)),
    "scale": lambda: T.scale(f32((3, 4)), 0.5),
    "scale_numpy_scalar": lambda: T.scale(f32((3, 4)), np.float64(0.5)),
    "matmul": lambda: T.matmul(f32((3, 4)), f32((4, 2), 1)),
    "relu": lambda: T.relu(f32((3, 4))),
    "gelu": lambda: T.gelu(f32((3, 4))),
    "softmax": lambda: T.softmax(f32((3, 4)), axis=-1),
    "layer_norm": lambda: T.layer_norm(f32((3, 4)), f32((4,), 1), f32((4,), 2)),
    "cross_entropy_multiclass": lambda: T.cross_entropy(f32((3,)), 1),
    "cross_entropy_binary": lambda: T.cross_entropy(f32((1,)), "no"),
    "embedding": lambda: T.embedding(f32((5, 4)), np.array([0, 3, 3])),
    "slice_rows": lambda: T.slice_rows(f32((5, 4)), 1, 3),
    "concat": lambda: T.concat([f32((2, 4)), f32((3, 4), 1)], axis=0),
    "reshape": lambda: T.reshape(f32((3, 4)), (4, 3)),
    "tsum": lambda: T.tsum(f32((3, 4))),
    "mean": lambda: T.mean(f32((3, 4))),
    "dropout": lambda: T.dropout(f32((3, 4)), 0.5, np.random.default_rng(0)),
    "attention": lambda: T.attention(f32((3, 4)), f32((5, 4), 1), f32((5, 4), 2), 2)[0],
    "attention_causal_float64_mask": lambda: T.attention(
        f32((4, 4)), f32((4, 4), 1), f32((4, 4), 2), 2, mask=T.causal_mask(4))[0],
    "plus_python_float": lambda: f32((3, 4)) + 1.0,
    "python_float_plus": lambda: 1.0 + f32((3, 4)),
    "minus_python_float": lambda: f32((3, 4)) - 1.0,
    "times_python_float": lambda: f32((3, 4)) * 2.0,
    "negate": lambda: -f32((3, 4)),
}


class TestFloat32Stays:
    """An op's output and the gradients its backward returns have its
    inputs' dtype; nothing widens float32 to float64."""

    @pytest.mark.parametrize("name", sorted(FLOAT32_OPS))
    def test_forward_and_backward_dtype(self, name):
        out = FLOAT32_OPS[name]()
        assert out.data.dtype == np.float32
        grads = out._backward_fn(np.ones_like(out.data))
        for g in grads:
            assert g is not None and np.asarray(g).dtype == np.float32

    def test_attention_weights_float32(self):
        _, weights = T.attention(f32((4, 4)), f32((4, 4), 1), f32((4, 4), 2), 2,
                                 mask=T.causal_mask(4))
        assert weights.dtype == np.float32

    def test_float64_unchanged(self):
        x = param(np.arange(6.0).reshape(2, 3))
        assert (x + 1.0).data.dtype == np.float64
        out, weights = T.attention(x, x, x, 1, mask=T.causal_mask(2, dtype=np.float32))
        assert out.data.dtype == weights.dtype == np.float64
