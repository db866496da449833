"""Unit tests for the autodiff engine: hand cases plus finite-difference oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisal import tensor as T
from trisal.errors import ContractError, ShapeError


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    npt.assert_array_equal(T.matmul(a, b).data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_1x2_2x1():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    npt.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(rand(2, 3), rand(2, 3))


def test_matmul_gradient():
    a = rand(5, 7, seed=1)
    b = rand(7, 3, seed=2)
    v = T.Tensor(np.random.default_rng(3).uniform(-1, 1, (5, 3)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(T.matmul(t, b), v)), a) <= 1e-6
    assert T.grad_check(lambda t: T.sum_all(T.mul(T.matmul(a, t), v)), b) <= 1e-6


def test_matmul_batched_gradient():
    a = rand(2, 4, 3, seed=4)
    b = rand(2, 3, 5, seed=5)
    assert T.grad_check(lambda t: T.sum_all(T.matmul(t, b)), a) <= 1e-6
    assert T.grad_check(lambda t: T.sum_all(T.matmul(a, t)), b) <= 1e-6


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = rand(2, 3, 5, 5, seed=6)
    w = T.Tensor(np.eye(3).reshape(3, 3, 1, 1))
    out = T.conv2d(x, w, T.Tensor(np.zeros(3)), stride=1, dilation=1, padding=0)
    npt.assert_array_equal(out.data, x.data)


def test_conv2d_box_sum():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w, T.Tensor(np.zeros(1)), stride=1, dilation=1, padding=0)
    npt.assert_array_equal(out.data, [[[[9.0]]]])


def test_conv2d_negative_extent():
    with pytest.raises(ShapeError):
        T.conv2d(rand(1, 1, 2, 2), rand(1, 1, 5, 5), T.Tensor(np.zeros(1)), 1, 1, 0)


def test_conv2d_dilated_gradient():
    x = rand(2, 3, 8, 8, seed=7)
    w = rand(4, 3, 3, 3, seed=8)
    b = rand(4, seed=9)

    def wrt_x(t):
        return T.sum_all(T.conv2d(t, w, b, stride=1, dilation=2, padding=2))

    def wrt_w(t):
        return T.sum_all(T.conv2d(x, t, b, stride=1, dilation=2, padding=2))

    def wrt_b(t):
        return T.sum_all(T.conv2d(x, w, t, stride=1, dilation=2, padding=2))

    assert T.grad_check(wrt_x, x) <= 1e-6
    assert T.grad_check(wrt_w, w) <= 1e-6
    assert T.grad_check(wrt_b, b) <= 1e-6


def test_conv2d_strided_gradient():
    x = rand(1, 2, 7, 7, seed=10)
    w = rand(3, 2, 3, 3, seed=11)
    b = rand(3, seed=12)
    v = T.Tensor(np.random.default_rng(13).uniform(-1, 1, (1, 3, 4, 4)))

    def f(t):
        return T.sum_all(T.mul(T.conv2d(t, w, b, stride=2, dilation=1, padding=1), v))

    assert T.grad_check(f, x) <= 1e-6


# ---------------------------------------------------------------------------
# batchnorm2d


def _bn_params(c):
    gamma = T.Tensor(np.ones(c), requires_grad=True)
    beta = T.Tensor(np.zeros(c), requires_grad=True)
    stats = (T.Tensor(np.zeros(c)), T.Tensor(np.ones(c)))
    return gamma, beta, stats


def test_batchnorm_constant_input_is_zero():
    gamma, beta, stats = _bn_params(3)
    x = T.Tensor(np.full((2, 3, 4, 4), 7.0))
    out = T.batchnorm2d(x, gamma, beta, stats, "train")
    npt.assert_allclose(out.data, 0.0, atol=1e-12)


def test_batchnorm_affine_on_standardized_data():
    rng = np.random.default_rng(14)
    d = rng.normal(size=(4, 2, 8, 8))
    d = (d - d.mean(axis=(0, 2, 3), keepdims=True)) / d.std(axis=(0, 2, 3), keepdims=True)
    gamma = T.Tensor(np.full(2, 2.0))
    beta = T.Tensor(np.full(2, 1.0))
    _, _, stats = _bn_params(2)
    out = T.batchnorm2d(T.Tensor(d), gamma, beta, stats, "train")
    npt.assert_allclose(out.data.mean(axis=(0, 2, 3)), 1.0, atol=1e-9)
    npt.assert_allclose(out.data.std(axis=(0, 2, 3)), 2.0, atol=1e-4)


def test_batchnorm_running_stats_update():
    gamma, beta, stats = _bn_params(1)
    x = T.Tensor(np.arange(8.0).reshape(2, 1, 2, 2))
    T.batchnorm2d(x, gamma, beta, stats, "train", momentum=0.1)
    npt.assert_allclose(stats[0].data, 0.9 * 0.0 + 0.1 * 3.5)
    npt.assert_allclose(stats[1].data, 0.9 * 1.0 + 0.1 * x.data.var())


def test_batchnorm_eval_uses_running_stats():
    gamma, beta, stats = _bn_params(1)
    stats[0].data[:] = 2.0
    stats[1].data[:] = 4.0
    x = T.Tensor(np.full((1, 1, 2, 2), 6.0))
    out = T.batchnorm2d(x, gamma, beta, stats, "eval", eps=0.0)
    npt.assert_allclose(out.data, 2.0)


def test_batchnorm_train_gradient():
    x = rand(3, 2, 4, 4, seed=15)
    gamma = rand(2, seed=16, lo=0.5, hi=1.5)
    beta = rand(2, seed=17)
    v = T.Tensor(np.random.default_rng(18).uniform(-1, 1, (3, 2, 4, 4)))

    def run(xx, gg, bb):
        stats = (T.Tensor(np.zeros(2)), T.Tensor(np.ones(2)))
        return T.sum_all(T.mul(T.batchnorm2d(xx, gg, bb, stats, "train"), v))

    assert T.grad_check(lambda t: run(t, gamma, beta), x) <= 1e-5
    assert T.grad_check(lambda t: run(x, t, beta), gamma) <= 1e-5
    assert T.grad_check(lambda t: run(x, gamma, t), beta) <= 1e-5


def test_batchnorm_eval_gradient():
    x = rand(2, 2, 3, 3, seed=19)
    gamma, beta, stats = _bn_params(2)
    stats[0].data[:] = 0.3
    stats[1].data[:] = 0.8

    def f(t):
        return T.sum_all(T.batchnorm2d(t, gamma, beta, stats, "eval"))

    assert T.grad_check(f, x) <= 1e-5


def test_batchnorm_bad_mode():
    gamma, beta, stats = _bn_params(1)
    with pytest.raises(ContractError):
        T.batchnorm2d(T.Tensor(np.zeros((1, 1, 2, 2))), gamma, beta, stats, "frozen")


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = T.softmax_rows(T.Tensor([[0.0, 0.0, 0.0]]))
    npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_large_values_no_overflow():
    out = T.softmax_rows(T.Tensor([[1000.0, 1000.0]]))
    npt.assert_allclose(out.data, [[0.5, 0.5]])
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = T.Tensor(rng.normal(scale=5.0, size=(8, 13)))
        out = T.softmax_rows(x).data
        npt.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_softmax_gradient():
    x = rand(6, 6, seed=21)
    v = T.Tensor(np.random.default_rng(22).uniform(-1, 1, (6, 6)))
    assert T.grad_check(lambda t: T.sum_all(T.mul(T.softmax_rows(t), v)), x) <= 1e-6


# ---------------------------------------------------------------------------
# elementwise and spatial ops


def test_identity_elements():
    x = rand(2, 3, 4, 4, seed=23)
    npt.assert_array_equal(T.mul(x, T.Tensor(np.ones_like(x.data))).data, x.data)
    npt.assert_array_equal(T.add(x, T.Tensor(np.zeros_like(x.data))).data, x.data)


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(rand(2, 3), rand(4, 5))


def test_upsample_constant_preserved():
    x = T.Tensor(np.full((1, 2, 3, 5), 4.25))
    out = T.upsample_bilinear_x2(x)
    assert out.shape == (1, 2, 6, 10)
    npt.assert_allclose(out.data, 4.25)


def test_upsample_known_1d_profile():
    # Half-pixel centers: [0, 2] doubles to [0, 0.5, 1.5, 2].
    x = T.Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
    out = T.upsample_bilinear_x2(x)
    npt.assert_allclose(out.data[0, 0, :, :], [[0.0, 0.5, 1.5, 2.0], [0.0, 0.5, 1.5, 2.0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_upsample_backward_is_adjoint(b, c, h, w, seed):
    # <Ax, y> = <x, A^T y>, with A^T y from the recorded backward.
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.normal(size=(b, c, h, w)), requires_grad=True)
    y = rng.normal(size=(b, c, 2 * h, 2 * w))
    with T.Tape():
        ax = T.upsample_bilinear_x2(x)
        T.sum_all(T.mul(ax, T.Tensor(y))).backward()
    lhs, rhs = ax.data * y, x.data * x.grad
    assert abs(lhs.sum() - rhs.sum()) <= 1e-12 * max(np.abs(lhs).sum(), np.abs(rhs).sum())


def test_global_avg_pool_values():
    x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    npt.assert_allclose(T.global_avg_pool(x).data, [[7.5]])


def test_concat_channels_roundtrip():
    a = rand(2, 3, 4, 4, seed=24)
    b = rand(2, 5, 4, 4, seed=25)
    out = T.concat_channels([a, b])
    assert out.shape == (2, 8, 4, 4)
    npt.assert_array_equal(out.data[:, :3], a.data)
    npt.assert_array_equal(out.data[:, 3:], b.data)


def test_concat_channels_mismatch():
    with pytest.raises(ShapeError):
        T.concat_channels([rand(2, 3, 4, 4), rand(2, 3, 5, 4)])


ELEMENTWISE_GRAD_CASES = [
    ("add", lambda x, o: T.add(x, o)),
    ("sub", lambda x, o: T.sub(x, o)),
    ("mul", lambda x, o: T.mul(x, o)),
    ("div", lambda x, o: T.div(x, T.add(o, T.Tensor(2.0)))),
    ("sigmoid", lambda x, o: T.sigmoid(x)),
    ("relu_offset", lambda x, o: T.relu(T.add(x, T.Tensor(3.0)))),
    ("log", lambda x, o: T.log(T.add(x, T.Tensor(3.0)))),
    ("clamp", lambda x, o: T.clamp(x, -0.9, 0.9)),
    ("upsample", lambda x, o: T.upsample_bilinear_x2(x)),
    ("gap", lambda x, o: T.broadcast_hw(T.reshape(T.global_avg_pool(x), (2, 3, 1, 1)), 4, 4)),
    ("concat", lambda x, o: T.concat_channels([x, o])),
    ("transpose", lambda x, o: T.transpose_last2(x)),
]


@pytest.mark.parametrize("name,build", ELEMENTWISE_GRAD_CASES, ids=[c[0] for c in ELEMENTWISE_GRAD_CASES])
def test_op_gradients(name, build):
    x = rand(2, 3, 4, 4, seed=26)
    other = T.Tensor(np.random.default_rng(27).uniform(0.1, 1.0, (2, 3, 4, 4)))
    v = None

    def f(t):
        out = build(t, other)
        if out.data.ndim == 0:
            return out
        nonlocal v
        if v is None or v.shape != out.shape:
            v = T.Tensor(np.random.default_rng(28).uniform(-1, 1, out.shape))
        return T.sum_all(T.mul(out, v))

    assert T.grad_check(f, x) <= 1e-5


BINARY_OPS = {"add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}
# (side of the broadcast operand, its shape); the other operand is (2, 3, 4, 4)
BROADCAST_CASES = {
    "left_1c11": ("left", (1, 3, 1, 1)),
    "right_1c11": ("right", (1, 3, 1, 1)),
    "right_0d": ("right", ()),
}


@pytest.mark.parametrize("case", sorted(BROADCAST_CASES))
@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_broadcast_gradient_unbroadcasts(op, case):
    side, shape = BROADCAST_CASES[case]
    # Both operands in [0.5, 1.5], so div's denominator stays away from 0.
    x = rand(*shape, seed=31, lo=0.5, hi=1.5)
    y = T.Tensor(np.random.default_rng(32).uniform(0.5, 1.5, (2, 3, 4, 4)))
    v = T.Tensor(np.random.default_rng(33).uniform(-1, 1, (2, 3, 4, 4)))
    f = BINARY_OPS[op]

    def loss(t):
        out = f(t, y) if side == "left" else f(y, t)
        assert out.shape == (2, 3, 4, 4)
        return T.sum_all(T.mul(out, v))

    assert T.grad_check(loss, x) <= 1e-6


@st.composite
def broadcast_shapes(draw):
    """(small, full): a shape of rank <= 4 with sides <= 4, and one it broadcasts to."""
    full = draw(st.lists(st.integers(1, 4), max_size=4))
    rank = draw(st.integers(0, len(full)))
    ones = draw(st.lists(st.booleans(), min_size=rank, max_size=rank))
    small = [1 if one else n for one, n in zip(ones, full[len(full) - rank :])]
    return tuple(small), tuple(full)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(broadcast_shapes(), st.integers(0, 2**32 - 1))
def test_unbroadcast_is_adjoint_of_broadcast(shapes, seed):
    small, full = shapes
    rng = np.random.default_rng(seed)
    x = rng.normal(size=small)
    g = rng.normal(size=full)
    back = T._unbroadcast(g, small)
    assert np.shape(back) == small
    terms = np.broadcast_to(x, full) * g
    assert abs(terms.sum() - np.sum(x * back)) <= 1e-12 * np.abs(terms).sum()


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar():
    x = rand(2, 2, seed=33)
    with T.Tape():
        y = T.add(x, x)
        with pytest.raises(ContractError):
            T.backward(y)


def test_backward_without_tape():
    x = rand(2, 2, seed=34)
    y = T.add(x, x)  # no tape active
    with pytest.raises(ContractError):
        T.backward(y)


def test_backward_twice_is_fault():
    x = rand(2, 2, seed=35)
    with T.Tape():
        y = T.sum_all(x)
    y.backward()
    with pytest.raises(ContractError):
        y.backward()


def test_gradient_accumulation_two_branches():
    x = rand(3, 3, seed=36)
    with T.Tape():
        y = T.add(T.sum_all(x), T.sum_all(x))
    y.backward()
    npt.assert_array_equal(x.grad, np.full((3, 3), 2.0))


def test_tensor_from_another_tape_is_a_leaf():
    x = rand(2, 2, seed=42)
    with T.Tape() as first:
        y = T.mul(x, T.Tensor(3.0))
    assert y.tape is first and y.requires_grad and y.grad is None
    with T.Tape():
        loss = T.sum_all(T.mul(y, y))
    loss.backward()
    npt.assert_array_equal(y.grad, 2.0 * y.data)
    npt.assert_array_equal(x.grad, np.zeros((2, 2)))  # first tape was never run backward


def test_backward_releases_records():
    x = rand(2, 2, seed=43)
    with T.Tape() as tape:
        loss = T.sum_all(T.relu(x))
    loss.backward()
    assert tape.ops == []
    assert tape.op_counts() == {"relu": 1, "sum_all": 1}


def test_grad_check_quadratic():
    x = rand(4, seed=37)
    assert T.grad_check(lambda t: T.sum_all(T.mul(t, t)), x) <= 1e-8


def test_grad_check_non_contiguous_input():
    x = T.Tensor(np.arange(12.0).reshape(3, 4).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    assert T.grad_check(lambda t: T.sum_all(T.mul(t, t)), x) < 1e-6


def test_op_counts_instrumentation():
    x = rand(2, 3, seed=38)
    with T.Tape() as tape:
        y = T.softmax_rows(T.matmul(x, T.transpose_last2(x)))
        T.sum_all(y).backward()
    counts = tape.op_counts()
    assert counts["softmax_rows"] == 1
    assert counts["matmul"] == 1


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(39)
        x = T.Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)), requires_grad=True)
        w = T.Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
        with T.Tape():
            out = T.conv2d(x, w, T.Tensor(np.zeros(4), requires_grad=True), 1, 1, 1)
            loss = T.sum_all(T.sigmoid(out))
        loss.backward()
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_output_shapes_pure_function_of_inputs():
    rng = np.random.default_rng(40)
    for _ in range(20):
        b = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        h = int(rng.integers(4, 9))
        w = int(rng.integers(4, 9))
        o = int(rng.integers(1, 4))
        x = T.Tensor(rng.normal(size=(b, c, h, w)))
        k = int(rng.choice([1, 3]))
        pad = k // 2
        out = T.conv2d(x, T.Tensor(rng.normal(size=(o, c, k, k))), T.Tensor(np.zeros(o)), 1, 1, pad)
        assert out.shape == (b, o, h, w)
        assert T.upsample_bilinear_x2(x).shape == (b, c, 2 * h, 2 * w)
        assert T.global_avg_pool(x).shape == (b, c)
