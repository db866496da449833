"""Finite-difference verification suites behind the gradcheck command and the
acceptance gate. Each check returns (name, max relative error, tolerance)."""

import numpy as np

from . import blocks as B
from . import fusion as F
from . import model as M
from . import tensor as T
from .tensor import Tensor


def _rand(shape, seed, lo=-1.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape), requires_grad=True)


def _weighted_sum(out, seed):
    v = Tensor(np.random.default_rng(seed).uniform(-1.0, 1.0, out.shape))
    return T.sum_all(T.mul(out, v))


def op_checks():
    """Gradient checks for each primitive op, tightest tolerance first."""
    checks = []
    x = _rand((5, 7), 1)
    w = _rand((7, 3), 2)
    checks.append(("matmul", T.grad_check(lambda t: _weighted_sum(T.matmul(t, w), 3), x), 1e-6))

    xb = _rand((2, 3, 5), 4)
    wb = _rand((2, 5, 4), 5)
    checks.append(
        ("matmul_batched", T.grad_check(lambda t: _weighted_sum(T.matmul(t, wb), 6), xb), 1e-6)
    )

    xc, wc, bc = _rand((2, 3, 8, 8), 7), _rand((4, 3, 3, 3), 8), _rand((4,), 9)
    checks.append(("conv2d", T.grad_check(lambda t: _weighted_sum(T.conv2d(t, wc, bc, 1, 2), 10), xc), 1e-6))
    xt, wt = _rand((1, 2, 7, 7), 30), _rand((3, 2, 3, 3), 31)  # stride 2: g is zero-filled in the backward
    checks.append(("conv2d_strided", T.grad_check(lambda t: _weighted_sum(T.conv2d(t, wt, None, 2), 32), xt), 1e-6))

    xs = _rand((6, 6), 11)
    checks.append(("softmax_rows", T.grad_check(lambda t: _weighted_sum(T.softmax_rows(t), 12), xs), 1e-6))

    def bn(t):
        gamma = Tensor(np.random.default_rng(13).uniform(0.5, 1.5, 3))
        beta = Tensor(np.random.default_rng(14).uniform(-0.5, 0.5, 3))
        stats = (Tensor(np.zeros(3)), Tensor(np.ones(3)))
        return _weighted_sum(T.batchnorm2d(t, gamma, beta, stats, "train"), 15)

    checks.append(("batchnorm2d", T.grad_check(bn, _rand((2, 3, 4, 4), 16)), 1e-5))

    for mode, seed in (("train", 90), ("eval", 96)):  # conv2d with a BN -> ReLU epilogue, stride 2, dilation 2
        x, w = _rand((2, 3, 7, 7), seed), _rand((4, 3, 3, 3), seed + 1)
        gamma, beta = _rand((4,), seed + 2, 0.5, 1.5), _rand((4,), seed + 3)
        rng = np.random.default_rng(seed + 4)
        epilogue = (gamma, beta, (Tensor(rng.uniform(-0.2, 0.2, 4)), Tensor(rng.uniform(0.5, 1.5, 4))), mode)

        def f(_):  # reads this iteration's tensors; grad_check perturbs them in place
            return _weighted_sum(T.conv2d(x, w, None, 2, 2, epilogue, True), seed + 5)

        checks.append((f"conv2d_bn_relu_{mode}", max(T.grad_check(f, t) for t in (x, w, gamma, beta)), 1e-5))

    x4 = _rand((2, 3, 4, 4), 17)
    other = Tensor(np.random.default_rng(18).uniform(0.2, 1.0, (2, 3, 4, 4)))
    simple = [
        ("add", lambda t: _weighted_sum(T.add(t, other), 19)),
        ("sub", lambda t: _weighted_sum(T.sub(t, other), 20)),
        ("mul", lambda t: _weighted_sum(T.mul(t, other), 21)),
        ("div", lambda t: _weighted_sum(T.div(t, other), 22)),
        ("relu", lambda t: _weighted_sum(T.relu(T.add(t, Tensor(2.0))), 23)),
        ("sigmoid", lambda t: _weighted_sum(T.sigmoid(t), 24)),
        ("log", lambda t: _weighted_sum(T.log(T.add(t, Tensor(2.0))), 25)),
        ("clamp", lambda t: _weighted_sum(T.clamp(t, -0.9, 0.9), 26)),
        ("concat_channels", lambda t: _weighted_sum(T.concat_channels([t, other]), 27)),
        ("upsample_bilinear_x2", lambda t: _weighted_sum(T.upsample_bilinear_x2(t), 28)),
        (
            "global_avg_pool",
            lambda t: _weighted_sum(
                T.broadcast_hw(T.reshape(T.global_avg_pool(t), (2, 3, 1, 1)), 4, 4), 29
            ),
        ),
    ]
    for name, f in simple:
        checks.append((name, T.grad_check(f, x4), 1e-5))
    return checks


def block_checks():
    """Gradient checks through composite blocks, including both fusion
    modules and every fusion variant."""
    checks = []
    rng = np.random.default_rng(40)

    bconv = B.BConv(2, 3, rng)
    xb = _rand((1, 2, 4, 4), 41, lo=0.5, hi=2.0)
    checks.append(("bconv", T.grad_check(lambda t: _weighted_sum(bconv(t), 42), xb), 1e-4))

    ca = B.ChannelAttention(4, 2, rng)
    checks.append(
        ("channel_attention", T.grad_check(lambda t: _weighted_sum(ca(t), 43), _rand((1, 4, 3, 3), 44)), 1e-4)
    )

    aspp = B.ASPP(4, rng)
    checks.append(("aspp", T.grad_check(lambda t: _weighted_sum(aspp(t), 45), _rand((1, 4, 4, 4), 46)), 1e-4))

    mam = F.CrossModalAttention(4, 2, rng)
    xr = _rand((1, 4, 3, 3), 47)
    xd = _rand((1, 4, 3, 3), 48)
    xf = _rand((1, 4, 3, 3), 49)

    def mam_f(t):
        yr, (yd, yf) = mam(t, [xd, xf])
        return T.add(_weighted_sum(yr, 50), T.add(_weighted_sum(yd, 51), _weighted_sum(yf, 52)))

    checks.append(("attention_fusion", T.grad_check(mam_f, xr), 1e-4))

    sa = F.SelfAttention(4, rng)
    checks.append(
        ("self_attention", T.grad_check(lambda t: _weighted_sum(sa(t), 53), _rand((1, 4, 3, 3), 54)), 1e-4)
    )

    for variant, fusion, n_aux in (("full", F.RefinementFusion, 2), ("full", F.RefinementFusion, 1),
                                   ("flat_concat", F.FlatRefinementFusion, 2)):
        rfm = fusion(4, n_aux, rng)
        auxes = [_rand((1, 4, 3, 3), 60 + i) for i in range(n_aux)]
        err = T.grad_check(lambda t: _weighted_sum(rfm(t, auxes), 63), _rand((1, 4, 3, 3), 64))
        checks.append((f"refinement_{variant}_{n_aux}aux", err, 1e-4))

    cf = F.ConcatFuse(4, 2, rng)
    aux2 = [_rand((1, 4, 3, 3), 65), _rand((1, 4, 3, 3), 66)]
    checks.append(
        ("concat_fuse", T.grad_check(lambda t: _weighted_sum(cf(t, aux2), 67), _rand((1, 4, 3, 3), 68)), 1e-4)
    )
    return checks


def model_checks():
    """Whole-model check: central differences on 24 randomly picked parameter
    coordinates against the recorded gradients of the training loss."""
    cfg = M.ModelConfig(input_size=32, width=4, cp_width=8, seed=70)
    model = M.build(cfg)
    rng = np.random.default_rng(71)
    rgb = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)))
    depth = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)))
    flow = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)))
    gt = Tensor((rng.uniform(0, 1, (2, 1, 32, 32)) > 0.6).astype(np.float64))

    def loss_value():
        model.train()
        return M.loss_total(model(rgb, depth, flow), gt)

    with T.Tape():
        T.backward(loss_value())

    params = list(model.parameters())
    picks = rng.integers(0, len(params), size=24)
    worst = 0.0
    for pi in picks:
        p = params[pi]
        flat = p.data.reshape(-1)
        ci = int(rng.integers(0, flat.size))
        numeric = T.central_difference(loss_value, flat, ci)
        worst = max(worst, float(T.relative_error(p.grad.reshape(-1)[ci], numeric)))
    return [("model_loss_sampled_coords", worst, 1e-4)]


def run_scope(scope):
    if scope == "ops":
        return op_checks()
    if scope == "blocks":
        return block_checks()
    if scope == "model":
        return model_checks()
    raise ValueError(f"unknown gradcheck scope {scope!r}")
