"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything is numpy underneath; the tape only stores enough to replay the
computation backwards. Ops are module-level functions. Recording happens when
a ``Tape`` is active *and* at least one input requires gradients; without an
active tape the same functions run as plain forward numerics, which is what
evaluation and finite differencing use.

Any op's backward may re-read its inputs' arrays (``conv2d``, for one, rebuilds its columns from
its input), so an input's ``data`` must not be mutated between the forward and the backward that
uses it.

Layout: ``conv2d`` and ``batchnorm2d`` return their (B, C, H, W) output, and ``conv2d``
its input gradient, as a transposed view of a contiguous (C, B, H, W) array, so conv -> conv
copies nothing. No ``data`` or gradient is promised to be C-contiguous.
``conv2d`` is always same-padded; its input gradient goes through its forward's routine, and
is skipped for an input that needs none, such as the frames the encoder stems read.

``conv2d``'s optional BN(->ReLU) epilogue works in place in its GEMM output, so the record keeps
x-hat and its output; eval-mode BN is one affine, and x-hat is kept only if the call is recorded.
"""

from collections import Counter

import numpy as np

from .errors import ContractError, ShapeError

_TAPES = []  # innermost active tape last


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` is the only gradient store: it is None until backward writes an
    array of ``data``'s shape into it, and backward accumulates into it until
    it is set back to None. Intermediate results carry ``requires_grad`` so
    recording propagates; backward clears their ``grad`` once it has used it.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.tape = None  # the tape that recorded this tensor, if one did

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _OpRecord:
    __slots__ = ("name", "inputs", "out", "backward_fn")

    def __init__(self, name, inputs, out, backward_fn):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn

    @property
    def out_data(self):
        return self.out.data


class Tape:
    """Ordered record of operations; execution order is topological order.

    Use as a context manager around the forward pass, then call
    ``backward(loss)``. A tape can be consumed by backward exactly once. A
    tensor recorded by this tape has ``tape`` set to it, and backward clears
    its ``grad`` once used; every other input, including a tensor recorded by
    another tape, is a leaf and keeps its ``grad``.
    """

    def __init__(self):
        self.ops = []
        self.finished = False
        self._counts = Counter()

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def record(self, name, inputs, out, backward_fn):
        out.tape = self
        self._counts[name] += 1
        self.ops.append(_OpRecord(name, inputs, out, backward_fn))

    def op_counts(self):
        """Counter of op names recorded so far (instrumentation hook)."""
        return Counter(self._counts)

    def first_nonfinite(self):
        """Name and index of the first op whose output holds NaN/Inf, or None."""
        for i, op in enumerate(self.ops):
            if not np.all(np.isfinite(op.out_data)):
                return op.name, i
        return None

    def run_backward(self, loss):
        if self.finished:
            raise ContractError("tape already consumed by backward; record a fresh tape")
        if loss.data.ndim != 0:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        self.finished = True
        # Every record comes after those of its inputs, so an output's grad is
        # complete when its record is popped. Taking it clears it, and popping
        # records frees what only they hold and breaks the tensor -> tape cycle.
        loss.grad = np.ones((), dtype=np.float64)
        while self.ops:
            op = self.ops.pop()
            g, op.out.grad = op.out.grad, None
            if g is None:
                continue
            for t, gi in zip(op.inputs, op.backward_fn(g)):
                if gi is not None and t.requires_grad:
                    t.grad = gi if t.grad is None else t.grad + gi


def backward(loss):
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``."""
    if not isinstance(loss, Tensor) or loss.tape is None:
        raise ContractError("loss was not produced under an active tape")
    loss.tape.run_backward(loss)


def _make(name, out_data, inputs, backward_fn):
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if _TAPES and out.requires_grad:
        _TAPES[-1].record(name, tuple(inputs), out, backward_fn)
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise


def _binary(name, a, b, f, grads):
    """Broadcasting elementwise op: ``f(x, y)`` forward; ``grads(g, x, y)``
    gives both gradients at the output shape, summed back to each operand's."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    try:
        np.broadcast_shapes(ad.shape, bd.shape)
    except ValueError:
        raise ShapeError(f"{name}: shapes {ad.shape} and {bd.shape} do not align") from None

    def bwd(g):
        ga, gb = grads(g, ad, bd)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return _make(name, f(ad, bd), (a, b), bwd)


def add(a, b):
    return _binary("add", a, b, np.add, lambda g, x, y: (g, g))


def sub(a, b):
    return _binary("sub", a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a, b):
    return _binary("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def div(a, b):
    return _binary("div", a, b, np.divide, lambda g, x, y: (g / y, -g * x / (y * y)))


def relu(x):
    """max(0, x); the subgradient at exactly 0 is defined as 0."""
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        return (g * (out > 0),)

    return _make("relu", out, (x,), bwd)


def sigmoid(x):
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _make("sigmoid", out, (x,), bwd)


def log(x):
    out = np.log(x.data)
    xd = x.data

    def bwd(g):
        return (g / xd,)

    return _make("log", out, (x,), bwd)


def clamp(x, lo, hi):
    """Clip to [lo, hi]; gradient is zero where the input was clipped."""
    xd = x.data
    out = np.clip(xd, lo, hi)

    def bwd(g):
        return (g * ((xd > lo) & (xd < hi)),)

    return _make("clamp", out, (x,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    old = x.data.shape
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return _make("reshape", out, (x,), bwd)


def transpose_last2(x):
    """Swap the last two axes (matrix transpose broadcast over leading dims)."""
    out = np.swapaxes(x.data, -1, -2)

    def bwd(g):
        return (np.swapaxes(g, -1, -2),)

    return _make("transpose_last2", out, (x,), bwd)


def concat_channels(tensors):
    """Concatenate 4-D maps along the channel axis; B, H, W must match."""
    tensors = [_wrap(t) for t in tensors]
    base = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(base) or s[0] != base[0] or s[2:] != base[2:]:
            raise ShapeError(f"concat_channels: shapes {base} and {s} differ outside the channel axis")
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return _make("concat_channels", out, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x):
    out = x.data.sum()
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _make("sum_all", np.asarray(out), (x,), bwd)


def global_avg_pool(x):
    """(B, C, H, W) -> (B, C) spatial mean."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects a 4-D map, got {x.data.shape}")
    b, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy(),)

    return _make("global_avg_pool", out, (x,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product; 2-D operands or 3-D with matching leading batch."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim not in (2, 3) or ad.ndim != bd.ndim:
        raise ShapeError(f"matmul: unsupported ranks for shapes {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2] or (ad.ndim == 3 and ad.shape[0] != bd.shape[0]):
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape} do not align")
    out = np.matmul(ad, bd)

    def bwd(g):
        return (
            np.matmul(g, np.swapaxes(bd, -1, -2)),
            np.matmul(np.swapaxes(ad, -1, -2), g),
        )

    return _make("matmul", out, (a, b), bwd)


def softmax_rows(x):
    """Row-wise softmax over the last axis, with per-row max subtraction."""
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    e = np.exp(d - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make("softmax_rows", out, (x,), bwd)


# ---------------------------------------------------------------------------
# spatial ops


def _columns(xc, k, stride, dilation):
    """Column matrix of a same-padded k x k correlation of channel-major (C, B, H, W) ``xc``: the
    (C * live taps, B * oh * ow) columns, the live taps' index into an (O, C, k, k) kernel, oh, ow."""
    c, b_, h, wid = xc.shape
    p, out_h, out_w = dilation * (k - 1) // 2, -(-h // stride), -(-wid // stride)
    # Tap (i, j) reads the strided window of xp at offset (i, j) * dilation. Along each axis only
    # taps [i0, i1) meet the input, the centre tap always; the rest read only padding, as atrous
    # taps do once the rate nears the map size (DeepLabv3 §3.3), and are skipped.
    i0, j0 = (max(0, -((stride * (m - 1) - p) // dilation)) for m in (out_h, out_w))
    i1, j1 = (min(k, (p + n - 1) // dilation + 1) for n in (h, wid))
    xp = xc  # a 1x1 kernel has no padding, and its one tap reads xc itself
    if p:
        xp = np.zeros((c, b_, h + 2 * p, wid + 2 * p))  # padded; faster than np.pad
        xp[:, :, p : p + h, p : p + wid] = xc
    cols = np.empty((c, i1 - i0, j1 - j0, b_, out_h, out_w))
    for i in range(i0, i1):
        for j in range(j0, j1):
            cols[:, i - i0, j - j0] = xp[:, :, i * dilation :: stride, j * dilation :: stride][:, :, :out_h, :out_w]
    return cols.reshape(-1, b_ * out_h * out_w), np.s_[:, :, i0:i1, j0:j1], out_h, out_w


def _correlate(xc, wd, stride, dilation):
    """Same-padded correlation of channel-major (C, B, H, W) ``xc`` with (O, C, k, k) ``wd``, as a
    contiguous (O, B, oh, ow) array; its columns die at return."""
    cols, live, out_h, out_w = _columns(xc, wd.shape[-1], stride, dilation)
    return (wd[live].reshape(wd.shape[0], -1) @ cols).reshape(wd.shape[0], xc.shape[1], out_h, out_w)


def _bn_rows(ym, bn, keep_xhat, eps=1e-5, momentum=0.1):
    """BN by ``bn = (gamma, beta, (running_mean, running_var), mode)`` of the (C, n) channel rows ``ym``, in place:
    the output rows and the backward from their gradient rows to (dy, dγ, dβ). Train mode turns the rows into x̂
    and writes ``x̂·γ + β``; eval mode writes ``y·s + t`` over them, ``s = γ/sqrt(var + eps)``, ``t = β − μ·s``
    (Jacob et al. 2018, §3.2), building x̂ only if ``keep_xhat``. dy comes from dγ and dβ (Ioffe & Szegedy 2015,
    §3): ``s·(g − dβ/n − x̂·dγ/n)`` in train mode, ``g·s`` in eval."""
    (gamma, beta, (run_mean, run_var), mode), (c, n) = bn, ym.shape
    gamma, beta = gamma.data, beta.data
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta for {c} channels, got {gamma.shape}/{beta.shape}")
    if mode == "train":
        if n < 2:
            raise ContractError("batchnorm train mode needs batch*H*W >= 2")
        mu = ym.mean(axis=1)
        ym -= mu[:, None]
        var = np.square(ym).sum(axis=1) / n  # summed as ndarray.var sums, so x̂ is the long form's to the bit
        run_mean.data *= 1.0 - momentum
        run_mean.data += momentum * mu
        run_var.data *= 1.0 - momentum
        run_var.data += momentum * var
    elif mode == "eval":
        mu, var = run_mean.data, run_var.data
    else:
        raise ContractError(f"batchnorm: mode must be 'train' or 'eval', got {mode!r}")
    inv = (1.0 / np.sqrt(var + eps))[:, None]
    s = gamma[:, None] * inv
    if mode == "train":
        ym *= inv
        xhat, out = ym, ym * gamma[:, None]
        out += beta[:, None]
    else:
        xhat, out = (ym - mu[:, None]) * inv if keep_xhat else None, ym
        out *= s
        out += beta[:, None] - mu[:, None] * s

    def backward(gm):
        dgamma, dbeta = (gm * xhat).sum(axis=1), gm.sum(axis=1)
        if mode == "eval":
            return gm * s, dgamma, dbeta
        dy = xhat * (dgamma / -n)[:, None]  # built in place, after one full-size temporary
        dy += gm
        dy -= (dbeta / n)[:, None]
        dy *= s
        return dy, dgamma, dbeta

    return out, backward


def conv2d(x, w, bias, stride=1, dilation=1, bn=None, relu=False):
    """Same-padded cross-correlation of (B, C, H, W) with (O, C, k, k), k odd, plus per-channel bias if not None,
    to ceil(H / stride) x ceil(W / stride); dx is g correlated with w flipped and transposed (Dumoulin & Visin 2016).
    The record keeps no columns: backward rebuilds them from the input for dw (Chen et al. 2016).
    ``bn = (gamma, beta, (running_mean, running_var), mode)`` and ``relu`` add BN and a ReLU to the same record."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and kernel, got {xd.shape} and {wd.shape}")
    (b_, c, h, wid), (o, cw, k, k2) = xd.shape, wd.shape
    if k != k2 or k % 2 == 0 or cw != c:
        raise ShapeError(f"conv2d: kernel {wd.shape} must be square, odd-sided and over the channels of {xd.shape}")
    inputs = (x, w) if bias is None else (x, w, bias)
    yc = _correlate(xd.transpose(1, 0, 2, 3), wd, stride, dilation)
    if bias is not None:
        yc += bias.data[:, None, None, None]
    if bn is not None:
        inputs += bn[:2]
        recorded = bool(_TAPES) and any(t.requires_grad for t in inputs)  # as _make decides
        rows, bn_backward = _bn_rows(yc.reshape(o, -1), bn, recorded)
        yc = rows.reshape(yc.shape)
    if relu:
        np.maximum(yc, 0.0, out=yc)

    def bwd(g):
        gc = g.transpose(1, 0, 2, 3)
        gm, grads = (gc * (yc > 0) if relu else gc).reshape(o, -1), []
        if bn is not None:
            gm, *grads = bn_backward(gm)
        if bias is not None:
            grads.insert(0, gm.sum(axis=1))
        cols, live, _, _ = _columns(xd.transpose(1, 0, 2, 3), k, stride, dilation)
        dw = np.zeros_like(wd)
        dw[live] = (gm @ cols.T).reshape(dw[live].shape)
        del cols  # before the input gradient fills its own
        dx = None
        if x.requires_grad:
            gc = gm.reshape(yc.shape)
            if stride > 1:  # g zero-filled onto the input grid
                gc, gs = np.zeros((o, b_, h, wid)), gc
                gc[:, :, ::stride, ::stride] = gs
            dx = _correlate(gc, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, dilation).transpose(1, 0, 2, 3)
        return (dx, dw, *grads)

    return _make("conv2d", yc.transpose(1, 0, 2, 3), inputs, bwd)


def batchnorm2d(x, gamma, beta, running_stats, mode, eps=1e-5, momentum=0.1):
    """Per-channel batch normalization of a (B, C, H, W) map over (B, H, W), by ``conv2d``'s BN routine.
    ``running_stats`` is a mutable (mean, var) pair of Tensors updated in train mode and read in eval
    mode. Variances are population (biased) statistics throughout."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects a 4-D map, got {xd.shape}")
    b_, c, h, w = xd.shape
    ym = np.copy(xd.transpose(1, 0, 2, 3), order="C").reshape(c, -1)  # rows the routine may overwrite
    out, backward = _bn_rows(ym, (gamma, beta, running_stats, mode), True, eps, momentum)

    def bwd(g):
        dy, dgamma, dbeta = backward(g.transpose(1, 0, 2, 3).reshape(c, -1))
        return dy.reshape(c, b_, h, w).transpose(1, 0, 2, 3), dgamma, dbeta

    return _make("batchnorm2d", out.reshape(c, b_, h, w).transpose(1, 0, 2, 3), (x, gamma, beta), bwd)


_BILINEAR_CACHE = {}


def _bilinear_matrix(n):
    """(2n, n) interpolation matrix for x2 upsampling with half-pixel centers."""
    m = _BILINEAR_CACHE.get(n)
    if m is None:
        src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, n - 1)
        w1 = src - i0
        m = np.zeros((2 * n, n), dtype=np.float64)
        m[np.arange(2 * n), i0] += 1.0 - w1
        m[np.arange(2 * n), i1] += w1
        _BILINEAR_CACHE[n] = m
    return m


def upsample_bilinear_x2(x):
    """Double H and W by bilinear interpolation (half-pixel-centers convention)."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"upsample_bilinear_x2 expects a 4-D map, got {xd.shape}")
    h, w = xd.shape[2], xd.shape[3]
    mr = _bilinear_matrix(h)
    mc = _bilinear_matrix(w)
    out = np.matmul(np.matmul(mr, xd), mc.T)

    def bwd(g):
        return (np.matmul(np.matmul(mr.T, g), mc),)

    return _make("upsample_bilinear_x2", out, (x,), bwd)


def broadcast_hw(x, h, w):
    """Expand a (B, C, 1, 1) map to (B, C, h, w)."""
    xd = x.data
    if xd.ndim != 4 or xd.shape[2:] != (1, 1):
        raise ShapeError(f"broadcast_hw expects (B, C, 1, 1), got {xd.shape}")
    out = np.broadcast_to(xd, xd.shape[:2] + (h, w)).copy()

    def bwd(g):
        return (g.sum(axis=(2, 3), keepdims=True),)

    return _make("broadcast_hw", out, (x,), bwd)


# ---------------------------------------------------------------------------
# verification


FD_STEP = 1e-5  # the finite-difference step of every gradient check


def central_difference(f, flat, i):
    """Central difference of the scalar ``f()`` in coordinate ``i`` of ``flat``,
    a writable flat view (or ``ndarray.flat``) of what ``f`` reads; ``flat[i]``
    is restored after."""
    orig = flat[i]
    flat[i] = orig + FD_STEP
    fp = float(f().data)
    flat[i] = orig - FD_STEP
    fm = float(f().data)
    flat[i] = orig
    return (fp - fm) / (2.0 * FD_STEP)


def relative_error(analytic, numeric):
    """|analytic - numeric| / max(1, |analytic|, |numeric|), elementwise."""
    return np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))


def grad_check(f, x):
    """Max relative error between tape gradients and central differences.

    ``f`` maps a Tensor to a scalar Tensor and must be smooth at ``x`` (keep
    inputs away from relu and clamp kinks).
    """
    x.requires_grad = True
    x.grad = None
    with Tape():
        backward(f(x))
    flat = x.data.flat  # writes through to x.data, contiguous or not
    numeric = [central_difference(lambda: f(x), flat, i) for i in range(x.data.size)]
    return float(np.max(relative_error(x.grad.reshape(-1), np.array(numeric))))
