"""Unit tests for the autodiff engine: hand cases plus finite-difference oracles."""

import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisal import tensor as T
from trisal.blocks import Module
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
    out = T.conv2d(x, w, T.Tensor(np.zeros(3)), stride=1, dilation=1)
    npt.assert_array_equal(out.data, x.data)


def test_conv2d_box_sum():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, w, T.Tensor(np.zeros(1)), stride=1, dilation=1)
    npt.assert_array_equal(out.data, [[[[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]]])


def test_conv2d_rejects_even_or_non_square_kernel():
    for shape in ((1, 1, 2, 2), (1, 1, 4, 4), (1, 1, 3, 1), (1, 1, 1, 3)):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            T.conv2d(rand(1, 1, 5, 5), rand(*shape), T.Tensor(np.zeros(1)), 1, 1)


def test_conv2d_dilated_gradient():
    x = rand(2, 3, 8, 8, seed=7)
    w = rand(4, 3, 3, 3, seed=8)
    b = rand(4, seed=9)

    def wrt_x(t):
        return T.sum_all(T.conv2d(t, w, b, stride=1, dilation=2))

    def wrt_w(t):
        return T.sum_all(T.conv2d(x, t, b, stride=1, dilation=2))

    def wrt_b(t):
        return T.sum_all(T.conv2d(x, w, t, stride=1, dilation=2))

    assert T.grad_check(wrt_x, x) <= 1e-6
    assert T.grad_check(wrt_w, w) <= 1e-6
    assert T.grad_check(wrt_b, b) <= 1e-6


def test_conv2d_strided_gradient():
    x = rand(1, 2, 7, 7, seed=10)
    w = rand(3, 2, 3, 3, seed=11)
    b = rand(3, seed=12)
    v = T.Tensor(np.random.default_rng(13).uniform(-1, 1, (1, 3, 4, 4)))

    def f(t):
        return T.sum_all(T.mul(T.conv2d(t, w, b, stride=2, dilation=1), v))

    assert T.grad_check(f, x) <= 1e-6


def conv_oracle(x, w, g, stride, dilation, padding):
    """Tap-by-tap im2col conv over every k*k tap of an ``np.pad``-ded input,
    one GEMM per batch item: the output and (dx, dW) for upstream ``g``."""
    b, c, h, wid = x.shape
    o, _, k, _ = w.shape
    oh = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    ow = (wid + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    taps = [
        (i, j, np.s_[:, :, i * dilation : i * dilation + stride * oh : stride, j * dilation : j * dilation + stride * ow : stride])
        for i in range(k)
        for j in range(k)
    ]
    cols = np.empty((b, c, k, k, oh, ow))
    for i, j, window in taps:
        cols[:, :, i, j] = xp[window]
    cols = cols.reshape(b, c * k * k, oh * ow)
    out = np.matmul(w.reshape(o, -1), cols).reshape(b, o, oh, ow)
    gl = g.reshape(b, o, oh * ow)
    dw = np.tensordot(gl, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    dcols = np.matmul(w.reshape(o, -1).T, gl).reshape(b, c, k, k, oh, ow)
    gxp = np.zeros_like(xp)
    for i, j, window in taps:
        gxp[window] += dcols[:, :, i, j]
    return out, gxp[:, :, padding : padding + h, padding : padding + wid], dw


def conv_engine(x, w, g, stride, dilation, x_grad=True):
    """``T.conv2d`` with no bias: the output and its backward of ``g``."""
    with T.Tape() as tape:
        out = T.conv2d(T.Tensor(x, requires_grad=x_grad), T.Tensor(w, requires_grad=True), None, stride, dilation)
    dx, dw = tape.ops[-1].backward_fn(g)
    return out.data, dx, dw


def conv_disagreement(x, w, stride, dilation, seed=0):
    """Worst relative difference, each array against its largest oracle entry,
    between ``T.conv2d`` and ``conv_oracle`` with same padding over the output, dx and dW."""
    g = np.random.default_rng(seed).normal(size=T.conv2d(T.Tensor(x), T.Tensor(w), None, stride, dilation).shape)
    padding = dilation * (w.shape[2] - 1) // 2
    worst = 0.0
    for got, ref in zip(conv_engine(x, w, g, stride, dilation), conv_oracle(x, w, g, stride, dilation, padding)):
        assert got.shape == ref.shape
        worst = max(worst, float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)))
    return worst


def default_model_calls(monkeypatch, name, describe):
    """Sorted distinct ``describe(*args)`` of every call of ``T.<name>`` in one
    train-mode forward of the Full model at the default config."""
    from trisal import model as M

    calls = set()
    op = getattr(T, name)

    def recorded(*args):
        calls.add(describe(*args))
        return op(*args)

    monkeypatch.setattr(T, name, recorded)
    cfg = M.ModelConfig()
    rng = np.random.default_rng(0)
    size = (cfg.batch_size, 3, cfg.input_size, cfg.input_size)
    M.build(cfg).train()(*(T.Tensor(rng.uniform(0, 1, size)) for _ in range(3)))
    monkeypatch.undo()
    return sorted(calls)


def default_conv_bn_calls(monkeypatch):
    """Sorted distinct (x shape, w shape, stride, dilation, relu, output shape) of every
    ``T.conv2d`` call with a BN epilogue in one train-mode forward of the default model."""

    def describe(x, w, bias, stride=1, dilation=1, bn=None, relu=False):
        out = (x.shape[0], w.shape[0], -(-x.shape[2] // stride), -(-x.shape[3] // stride))
        return (x.shape, w.shape, stride, dilation, relu, out) if bn is not None else ()

    return [call for call in default_model_calls(monkeypatch, "conv2d", describe) if call]


def test_conv2d_agrees_with_im2col_oracle_on_every_model_shape(monkeypatch):
    calls = default_model_calls(
        monkeypatch, "conv2d", lambda x, w, bias, stride=1, dilation=1, *epilogue: (x.shape, w.shape, stride, dilation)
    )
    assert len(calls) >= 40
    rng = np.random.default_rng(41)
    for xs, ws, stride, dilation in calls:
        x, w = rng.normal(size=xs), rng.normal(size=ws)
        err = conv_disagreement(x, w, stride, dilation)
        assert err <= 1e-13, (xs, ws, stride, dilation, err)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
    st.sampled_from([1, 3, 5]), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**16),
)
def test_conv2d_dead_taps_match_full_tap_oracle(b, c, o, h, wid, k, stride, dilation, seed):
    """Windows wholly in the padding are skipped, so their dW entries are 0
    and the rest agrees with every tap computed; same padding up to 12 against
    maps of 1-7 leaves whole rows and columns of taps dead."""
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=(b, c, h, wid)), rng.normal(size=(o, c, k, k))
    assert conv_disagreement(x, w, stride, dilation, seed) <= 1e-12


def test_conv2d_tap_reading_only_padding_gets_zero_weight_gradient():
    # 2x2 map, dilation 8, padding 8: the eight off-centre taps read only padding,
    # as in the ASPP branches at the deepest level.
    rng = np.random.default_rng(42)
    x, w = rng.normal(size=(2, 3, 2, 2)), rng.normal(size=(4, 3, 3, 3))
    g = rng.normal(size=(2, 4, 2, 2))
    out, dx, dw = conv_engine(x, w, g, 1, 8)
    ref = conv_engine(x, w[:, :, 1:2, 1:2], g, 1, 1)
    npt.assert_array_equal(out, ref[0])
    npt.assert_array_equal(dx, ref[1])
    npt.assert_array_equal(dw[:, :, 1, 1], ref[2][:, :, 0, 0])
    dw[:, :, 1, 1] = 0.0
    assert not dw.any()
    # Stride 3 on a 1x1 map: only the centre tap reads the input.
    out, dx, dw = conv_engine(x[:, :, :1, :1], w, g[:, :, :1, :1], 3, 1)
    ref = conv_engine(x[:, :, :1, :1], w[:, :, 1:2, 1:2], g[:, :, :1, :1], 1, 1)
    npt.assert_array_equal(out, ref[0])
    npt.assert_array_equal(dx, ref[1])
    npt.assert_array_equal(dw[:, :, 1, 1], ref[2][:, :, 0, 0])
    dw[:, :, 1, 1] = 0.0
    assert not dw.any()


def test_conv2d_backward_accepts_non_contiguous_gradient():
    rng = np.random.default_rng(43)
    x, w = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3))
    wide = rng.normal(size=(2, 4, 12, 12))
    for g in (wide[:, :, ::2, ::2], np.ascontiguousarray(wide[:, :, :6, :6].transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)):
        assert not g.flags.c_contiguous
        got = conv_engine(x, w, g, 1, 1)
        ref = conv_engine(x, w, np.ascontiguousarray(g), 1, 1)
        for a, r in zip(got[1:], ref[1:]):
            npt.assert_allclose(a, r, rtol=1e-13, atol=0)


def test_conv2d_skips_the_input_gradient_of_an_input_without_grad():
    rng = np.random.default_rng(44)
    x, w = rng.normal(size=(2, 3, 7, 7)), rng.normal(size=(4, 3, 3, 3))
    for stride, side in ((1, 7), (2, 4)):
        g = rng.normal(size=(2, 4, side, side))
        out, dx, dw = conv_engine(x, w, g, stride, 1, x_grad=False)
        ref = conv_engine(x, w, g, stride, 1)
        assert dx is None and ref[1] is not None
        assert out.tobytes() == ref[0].tobytes() and dw.tobytes() == ref[2].tobytes()


def held_per_output_byte(op, *inputs):
    """Bytes a taped ``op`` leaves allocated after its forward (numpy reports to
    ``tracemalloc``), per byte of its output."""
    with T.Tape():
        tracemalloc.start()
        try:
            out = op(*inputs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return held / out.data.nbytes


@pytest.mark.parametrize("k", [3, 1])
def test_taped_conv2d_holds_its_output_not_its_columns(k):
    """Backward rebuilds the columns from the input the record already holds,
    so the forward keeps only its output: 9 columns per input value were 10x."""
    x, w = rand(2, 16, 32, 32, seed=46), rand(16, 16, k, k, seed=47)
    assert held_per_output_byte(lambda a, b: T.conv2d(a, b, None), x, w) <= 1.1


def test_taped_relu_holds_only_its_output():
    assert held_per_output_byte(T.relu, rand(2, 16, 32, 32, seed=48)) <= 1.01


def bn_epilogue(c, mode, requires_grad=True):
    rng = np.random.default_rng(49)
    gamma, beta = (T.Tensor(v, requires_grad=requires_grad) for v in (rng.uniform(0.5, 1.5, c), rng.normal(size=c)))
    return gamma, beta, (T.Tensor(rng.normal(size=c)), T.Tensor(rng.uniform(0.5, 2.0, c))), mode


@pytest.mark.parametrize("k", [3, 1])
def test_taped_conv_bn_relu_holds_xhat_and_its_output(k):
    """One record in place of conv, BN and ReLU, which kept four full-size maps."""
    x, w = rand(2, 16, 32, 32, seed=50), rand(16, 16, k, k, seed=51)
    assert held_per_output_byte(lambda a, b: T.conv2d(a, b, None, 1, 1, bn_epilogue(16, "train"), True), x, w) <= 2.1


@pytest.mark.parametrize("k", [3, 1])
def test_untaped_eval_conv_bn_relu_holds_only_its_output(k):
    """Eval applies BN as one affine in place in the GEMM output and keeps no x-hat."""
    x, w = (T.Tensor(rand(*shape, seed=52).data) for shape in ((2, 16, 32, 32), (16, 16, k, k)))
    bn = bn_epilogue(16, "eval", requires_grad=False)
    assert held_per_output_byte(lambda a, b: T.conv2d(a, b, None, 1, 1, bn, True), x, w) <= 1.1
    if k == 1:  # the peak is the columns (one copy of x) and the output: BN and ReLU add no full-size temporary
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, None, 1, 1, bn, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / out.data.nbytes <= 2.1


def test_predict_leaves_the_state_dict_byte_identical():
    """The eval affine is computed per call and never written back into the model."""
    from trisal import model as M

    cfg = M.ModelConfig(input_size=32, width=4, cp_width=8, seed=3)
    model = M.build(cfg)
    rng = np.random.default_rng(53)
    for name, t in model.named_buffers():
        t.data[...] = rng.uniform(0.5, 1.5, t.shape) if name.endswith("running_var") else rng.normal(size=t.shape)
    before = {name: t.data.tobytes() for name, t in model.state_dict().items()}
    M.predict(model, *(T.Tensor(rng.uniform(0, 1, (2, 3, 32, 32))) for _ in range(3)))
    assert {name: t.data.tobytes() for name, t in model.state_dict().items()} == before


def conv_bn_relu_run(x, w, g, stride, dilation, relu, mode, fused):
    """Output, running stats and the (x, w, gamma, beta) gradients of ``T.conv2d`` with a BN(->ReLU)
    epilogue (``fused``) or of the chain conv2d -> batchnorm2d (-> relu), for upstream ``g``."""
    params = [T.Tensor(v, requires_grad=True) for v in (x, w)]
    gamma, beta, stats, _ = bn_epilogue(w.shape[0], mode)
    with T.Tape():
        if fused:
            out = T.conv2d(*params, None, stride, dilation, (gamma, beta, stats, mode), relu)
        else:
            out = T.batchnorm2d(T.conv2d(*params, None, stride, dilation), gamma, beta, stats, mode)
            out = T.relu(out) if relu else out
        T.backward(T.sum_all(T.mul(out, T.Tensor(g))))
    return out.data, stats[0].data, stats[1].data, *(t.grad for t in (*params, gamma, beta))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_conv_bn_relu_matches_the_chain_on_every_model_shape(monkeypatch, mode):
    calls = default_conv_bn_calls(monkeypatch)
    assert len(calls) >= 20 and {relu for *_, relu, _ in calls} == {False, True}
    rng = np.random.default_rng(54)
    for xs, ws, stride, dilation, relu, out_shape in calls:
        x, w, g = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=out_shape)
        fused = conv_bn_relu_run(x, w, g, stride, dilation, relu, mode, True)
        chain = conv_bn_relu_run(x, w, g, stride, dilation, relu, mode, False)
        for name, a, b in zip(("out", "mean", "var", "dx", "dw", "dgamma", "dbeta"), fused, chain):
            err = np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)
            assert err <= 1e-13, (xs, ws, stride, dilation, relu, name, err)


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


def bn_backward_oracle(x, gamma, g, mean, var, mode, eps=1e-5):
    """batchnorm2d's (dx, dgamma, dbeta) in the long form: dgamma and dbeta as
    plain sums over channel rows, dx through gx = g * gamma and its two row means."""
    b, c, h, w = x.shape
    xm, gm = (a.transpose(1, 0, 2, 3).reshape(c, -1) for a in (x, g))
    if mode == "train":
        mean, var = xm.mean(axis=1), xm.var(axis=1)
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    xhat = (xm - mean[:, None]) * inv
    gx = gm * gamma[:, None]
    if mode == "train":
        dx = inv * (gx - gx.mean(axis=1, keepdims=True) - xhat * (gx * xhat).mean(axis=1, keepdims=True))
    else:
        dx = gx * inv
    return dx.reshape(c, b, h, w).transpose(1, 0, 2, 3), (gm * xhat).sum(axis=1), gm.sum(axis=1)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_backward_matches_long_form_on_every_model_shape(monkeypatch, mode):
    shapes = sorted({s for *_, s in default_conv_bn_calls(monkeypatch)})
    assert len(shapes) >= 8
    rng = np.random.default_rng(45)
    for shape in shapes:
        c = shape[1]
        x, g = rng.normal(1.0, 2.0, shape), rng.normal(size=shape)
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.normal(size=c)
        mean, var = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
        params = [T.Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        with T.Tape() as tape:
            T.batchnorm2d(*params, (T.Tensor(mean.copy()), T.Tensor(var.copy())), mode)
        dx, dgamma, dbeta = tape.ops[-1].backward_fn(g)
        ref_dx, ref_dgamma, ref_dbeta = bn_backward_oracle(x, gamma, g, mean, var, mode)
        assert dgamma.tobytes() == ref_dgamma.tobytes() and dbeta.tobytes() == ref_dbeta.tobytes(), shape
        err = np.max(np.abs(dx - ref_dx)) / np.max(np.abs(ref_dx))
        assert err <= 1e-13, (shape, err)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_channel_major_view_matches_contiguous_copy(mode):
    """A conv output is a (B, C, H, W) view of a (C, B, H, W) array; BN gives
    the same output, running stats and gradients on it as on a C-contiguous copy."""
    rng = np.random.default_rng(44)
    view = np.ascontiguousarray(rng.normal(2.0, 3.0, (4, 3, 5, 6)).transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    assert not view.flags.c_contiguous
    gamma, g = rng.uniform(0.5, 1.5, 3), rng.normal(size=view.shape)
    results = []
    for xd in (view, np.ascontiguousarray(view)):
        params = [T.Tensor(v, requires_grad=True) for v in (xd, gamma, np.full(3, 0.1))]
        stats = (T.Tensor(np.full(3, 0.5)), T.Tensor(np.full(3, 2.0)))
        with T.Tape() as tape:
            out = T.batchnorm2d(*params, stats, mode)
        results.append((out.data, stats[0].data, stats[1].data, *tape.ops[-1].backward_fn(g)))
    for a, b in zip(*results):
        npt.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * np.max(np.abs(b)))


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
        T.backward(T.sum_all(T.mul(ax, T.Tensor(y))))
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_concat_channels_splits_back_into_its_pieces(channels, b, h, w, seed):
    # forward stacks the pieces; backward of a known upstream gradient cuts it into theirs
    rng = np.random.default_rng(seed)
    pieces = [T.Tensor(rng.normal(size=(b, c, h, w)), requires_grad=True) for c in channels]
    upstream = rng.normal(size=(b, sum(channels), h, w))
    with T.Tape():
        out = T.concat_channels(pieces)
        T.backward(T.sum_all(T.mul(out, T.Tensor(upstream))))
    ends = np.cumsum(channels)
    for piece, end, c in zip(pieces, ends, channels):
        assert out.data[:, end - c : end].tobytes() == piece.data.tobytes()
        assert piece.grad.tobytes() == np.ascontiguousarray(upstream[:, end - c : end]).tobytes()


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
    ("relu_both_signs", lambda x, o: T.relu(x)),  # no input within the step of the kink
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
    T.backward(y)
    with pytest.raises(ContractError):
        T.backward(y)


def test_gradient_accumulation_two_branches():
    x = rand(3, 3, seed=36)
    with T.Tape():
        y = T.add(T.sum_all(x), T.sum_all(x))
    T.backward(y)
    npt.assert_array_equal(x.grad, np.full((3, 3), 2.0))


def test_tensor_from_another_tape_is_a_leaf():
    x = rand(2, 2, seed=42)
    with T.Tape() as first:
        y = T.mul(x, T.Tensor(3.0))
    assert y.tape is first and y.requires_grad and y.grad is None
    with T.Tape():
        loss = T.sum_all(T.mul(y, y))
    T.backward(loss)
    npt.assert_array_equal(y.grad, 2.0 * y.data)
    assert x.grad is None  # first tape was never run backward


def test_leaf_grad_is_made_by_backward_and_summed_over_passes():
    m = Module()
    m.w = rand(2, 3, seed=44)
    assert m.w.grad is None
    once = m.w.data + m.w.data  # d/dw sum(w * w), as mul's backward sums its two halves
    for _ in range(2):
        with T.Tape():
            loss = T.sum_all(T.mul(m.w, m.w))
        T.backward(loss)
    npt.assert_array_equal(m.w.grad, once + once)


def test_recorded_tensors_hold_no_grad_after_backward():
    x = rand(2, 3, seed=45)
    with T.Tape():
        h = T.relu(x)
        unused = T.sigmoid(h)
        loss = T.sum_all(T.mul(h, h))
    T.backward(loss)
    assert all(t.grad is None for t in (h, unused, loss))
    npt.assert_array_equal(x.grad, 2.0 * h.data * (x.data > 0))


def test_backward_releases_records():
    x = rand(2, 2, seed=43)
    with T.Tape() as tape:
        loss = T.sum_all(T.relu(x))
    T.backward(loss)
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
        T.backward(T.sum_all(y))
    counts = tape.op_counts()
    assert counts["softmax_rows"] == 1
    assert counts["matmul"] == 1


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(39)
        x = T.Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)), requires_grad=True)
        w = T.Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
        with T.Tape():
            out = T.conv2d(x, w, T.Tensor(np.zeros(4), requires_grad=True), 1, 1)
            loss = T.sum_all(T.sigmoid(out))
        T.backward(loss)
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
        out = T.conv2d(x, T.Tensor(rng.normal(size=(o, c, k, k))), T.Tensor(np.zeros(o)), 1, 1)
        assert out.shape == (b, o, h, w)
        assert T.upsample_bilinear_x2(x).shape == (b, c, 2 * h, 2 * w)
        assert T.global_avg_pool(x).shape == (b, c)
