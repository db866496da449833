"""Finite-difference verification suites behind the gradcheck command and the
acceptance gate. The op and block scopes are tables of (name, f, inputs,
tolerance) rows; each check returns (name, max relative error, tolerance)."""

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


def _probe(fn, seed, *args):
    """The check function ``t -> weighted sum of fn(t, *args)``, its weights drawn from ``seed``."""
    return lambda t: _weighted_sum(fn(t, *args), seed)


def _check_rows(rows):
    """Each (name, f, inputs, tol) row is checked in every one of its inputs; the worst error stands for the row."""
    return [(name, max(T.grad_check(f, t) for t in inputs), tol) for name, f, inputs, tol in rows]


def _conv_bn_relu(mode, seed):
    """The row of conv2d with a BN -> ReLU epilogue, stride 2, dilation 2, checked in x, w, gamma and beta."""
    x, w = _rand((2, 3, 7, 7), seed), _rand((4, 3, 3, 3), seed + 1)
    gamma, beta = _rand((4,), seed + 2, 0.5, 1.5), _rand((4,), seed + 3)
    rng = np.random.default_rng(seed + 4)
    epilogue = (gamma, beta, (Tensor(rng.uniform(-0.2, 0.2, 4)), Tensor(rng.uniform(0.5, 1.5, 4))), mode)

    def f(_):  # reads the row's tensors; grad_check perturbs each in place
        return _weighted_sum(T.conv2d(x, w, None, 2, 2, epilogue, True), seed + 5)

    return f"conv2d_bn_relu_{mode}", f, (x, w, gamma, beta), 1e-5


def op_checks():
    """Gradient checks for each primitive op, tightest tolerance first."""
    x4 = _rand((2, 3, 4, 4), 17)
    other = Tensor(np.random.default_rng(18).uniform(0.2, 1.0, (2, 3, 4, 4)))
    gamma = Tensor(np.random.default_rng(13).uniform(0.5, 1.5, 3))
    beta = Tensor(np.random.default_rng(14).uniform(-0.5, 0.5, 3))
    bn = (gamma, beta, (Tensor(np.zeros(3)), Tensor(np.ones(3))), "train")
    return _check_rows([
        ("matmul", _probe(T.matmul, 3, _rand((7, 3), 2)), [_rand((5, 7), 1)], 1e-6),
        ("matmul_batched", _probe(T.matmul, 6, _rand((2, 5, 4), 5)), [_rand((2, 3, 5), 4)], 1e-6),
        ("conv2d", _probe(T.conv2d, 10, _rand((4, 3, 3, 3), 8), _rand((4,), 9), 1, 2), [_rand((2, 3, 8, 8), 7)], 1e-6),
        # stride 2: g is zero-filled in the backward
        ("conv2d_strided", _probe(T.conv2d, 32, _rand((3, 2, 3, 3), 31), None, 2), [_rand((1, 2, 7, 7), 30)], 1e-6),
        ("softmax_rows", _probe(T.softmax_rows, 12), [_rand((6, 6), 11)], 1e-6),
        ("batchnorm2d", _probe(T.batchnorm2d, 15, *bn), [_rand((2, 3, 4, 4), 16)], 1e-5),
        _conv_bn_relu("train", 90),
        _conv_bn_relu("eval", 96),
        ("add", _probe(T.add, 19, other), [x4], 1e-5),
        ("sub", _probe(T.sub, 20, other), [x4], 1e-5),
        ("mul", _probe(T.mul, 21, other), [x4], 1e-5),
        ("div", _probe(T.div, 22, other), [x4], 1e-5),
        ("relu", lambda t: _weighted_sum(T.relu(T.add(t, Tensor(2.0))), 23), [x4], 1e-5),
        ("sigmoid", _probe(T.sigmoid, 24), [x4], 1e-5),
        ("log", lambda t: _weighted_sum(T.log(T.add(t, Tensor(2.0))), 25), [x4], 1e-5),
        ("clamp", _probe(T.clamp, 26, -0.9, 0.9), [x4], 1e-5),
        ("concat_channels", lambda t: _weighted_sum(T.concat_channels([t, other]), 27), [x4], 1e-5),
        ("upsample_bilinear_x2", _probe(T.upsample_bilinear_x2, 28), [x4], 1e-5),
        ("global_avg_pool", lambda t: _weighted_sum(T.broadcast_hw(T.reshape(T.global_avg_pool(t), (2, 3, 1, 1)), 4, 4), 29),
         [x4], 1e-5),
    ])


def block_checks():
    """Gradient checks through composite blocks, including both fusion
    modules and every fusion variant."""
    rng = np.random.default_rng(40)  # every block draws its weights from it, in row order
    bconv, ca, aspp = B.BConv(2, 3, rng), B.ChannelAttention(4, 2, rng), B.ASPP(4, rng)
    mam, sa = F.CrossModalAttention(4, 2, rng), F.SelfAttention(4, rng)
    rfm2, rfm1, flat = F.RefinementFusion(4, 2, rng), F.RefinementFusion(4, 1, rng), F.FlatRefinementFusion(4, 2, rng)
    cf = F.ConcatFuse(4, 2, rng)
    xd, xf = _rand((1, 4, 3, 3), 48), _rand((1, 4, 3, 3), 49)
    aux = [_rand((1, 4, 3, 3), 60), _rand((1, 4, 3, 3), 61)]

    def mam_f(t):
        yr, (yd, yf) = mam(t, [xd, xf])
        return T.add(_weighted_sum(yr, 50), T.add(_weighted_sum(yd, 51), _weighted_sum(yf, 52)))

    return _check_rows([
        ("bconv", _probe(bconv, 42), [_rand((1, 2, 4, 4), 41, lo=0.5, hi=2.0)], 1e-4),
        ("channel_attention", _probe(ca, 43), [_rand((1, 4, 3, 3), 44)], 1e-4),
        ("aspp", _probe(aspp, 45), [_rand((1, 4, 4, 4), 46)], 1e-4),
        ("attention_fusion", mam_f, [_rand((1, 4, 3, 3), 47)], 1e-4),
        ("self_attention", _probe(sa, 53), [_rand((1, 4, 3, 3), 54)], 1e-4),
        ("refinement_full_2aux", _probe(rfm2, 63, aux), [_rand((1, 4, 3, 3), 64)], 1e-4),
        ("refinement_full_1aux", _probe(rfm1, 63, aux[:1]), [_rand((1, 4, 3, 3), 64)], 1e-4),
        ("refinement_flat_concat_2aux", _probe(flat, 63, aux), [_rand((1, 4, 3, 3), 64)], 1e-4),
        ("concat_fuse", _probe(cf, 67, [_rand((1, 4, 3, 3), 65), _rand((1, 4, 3, 3), 66)]), [_rand((1, 4, 3, 3), 68)],
         1e-4),
    ])


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
