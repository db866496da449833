"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything is numpy underneath; the tape only stores enough to replay the
computation backwards. Ops are module-level functions. Recording happens when
a ``Tape`` is active *and* at least one input requires gradients; without an
active tape the same functions run as plain forward numerics, which is what
evaluation and finite differencing use.
"""

from collections import Counter

import numpy as np

from .errors import ContractError, ShapeError

_TAPES = []  # innermost active tape last


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` is allocated eagerly for leaves created with
    ``requires_grad=True`` and is always the same shape as ``data``.
    Intermediate results carry ``requires_grad`` so recording propagates, but
    their gradients live only inside the backward pass.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.tape = None  # the tape that recorded this tensor, if one did

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _OpRecord:
    __slots__ = ("name", "inputs", "output_id", "out_data", "backward_fn")

    def __init__(self, name, inputs, output_id, out_data, backward_fn):
        self.name = name
        self.inputs = inputs
        self.output_id = output_id
        self.out_data = out_data
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; execution order is topological order.

    Use as a context manager around the forward pass, then call
    ``backward(loss)`` (or ``loss.backward()``). A tape can be consumed by
    backward exactly once. A tensor recorded by this tape has ``tape`` set to
    it; every other input, including a tensor recorded by another tape, is a
    leaf whose gradient accumulates into ``grad``.
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
        self.ops.append(_OpRecord(name, inputs, id(out), out.data, backward_fn))

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
        # Gradients are keyed by id() of the loss and of recorded inputs. Such a
        # tensor lives from its creation to the end of the forward, so only an
        # output that died before it was made can share its id, and that
        # record comes earlier, after the key has been popped. Popping records
        # frees what only they hold and breaks the tensor -> tape cycle.
        grads = {id(loss): np.ones((), dtype=np.float64)}
        while self.ops:
            op = self.ops.pop()
            g = grads.pop(op.output_id, None)
            if g is None:
                continue
            for t, gi in zip(op.inputs, op.backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                if t.tape is self:
                    key = id(t)
                    grads[key] = grads[key] + gi if key in grads else gi
                else:  # leaf: accumulate into its grad buffer
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += gi


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
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

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
    out = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)

    def bwd(g):
        return (g * mask,)

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


def conv2d(x, w, bias, stride=1, dilation=1, padding=0):
    """Cross-correlation of (B, C, H, W) with (O, C, k, k) plus per-channel bias, if not None."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and kernel, got {xd.shape} and {wd.shape}")
    b_, c, h, wid = xd.shape
    o, cw, k, k2 = wd.shape
    if k != k2 or cw != c:
        raise ShapeError(f"conv2d: kernel {wd.shape} does not match input {xd.shape}")
    out_h = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    out_w = (wid + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv2d: output extent {out_h}x{out_w} for input {xd.shape}, kernel {k}, "
            f"stride {stride}, dilation {dilation}, padding {padding}"
        )
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    # Kernel tap (i, j) reads the strided window of xp at offset (i, j) * dilation;
    # the im2col fill and the backward scatter both walk this one list.
    offsets = [i * dilation for i in range(k)]
    taps = [
        (i, j, np.s_[:, :, hi : hi + stride * out_h : stride, wj : wj + stride * out_w : stride])
        for i, hi in enumerate(offsets)
        for j, wj in enumerate(offsets)
    ]
    cols = np.empty((b_, c, k, k, out_h, out_w), dtype=np.float64)
    for i, j, window in taps:
        cols[:, :, i, j] = xp[window]
    cols_m = cols.reshape(b_, c * k * k, out_h * out_w)
    out = np.matmul(wd.reshape(o, c * k * k), cols_m).reshape(b_, o, out_h, out_w)
    if bias is not None:
        out += bias.data[None, :, None, None]

    def bwd(g):
        gl = g.reshape(b_, o, out_h * out_w)
        dw = np.tensordot(gl, cols_m, axes=([0, 2], [0, 2])).reshape(o, c, k, k)
        dcols = np.matmul(wd.reshape(o, c * k * k).T, gl).reshape(b_, c, k, k, out_h, out_w)
        gxp = np.zeros_like(xp)
        for i, j, window in taps:
            gxp[window] += dcols[:, :, i, j]
        dx = gxp[:, :, padding : padding + h, padding : padding + wid] if padding else gxp
        return (dx, dw) if bias is None else (dx, dw, g.sum(axis=(0, 2, 3)))

    return _make("conv2d", out, (x, w) if bias is None else (x, w, bias), bwd)


def batchnorm2d(x, gamma, beta, running_stats, mode, eps=1e-5, momentum=0.1):
    """Per-channel batch normalization over (B, H, W).

    ``running_stats`` is a mutable (mean, var) pair of Tensors updated in
    train mode and read in eval mode. Variances are population (biased)
    statistics throughout.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects a 4-D map, got {xd.shape}")
    b_, c, h, w = xd.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm2d: gamma/beta for {c} channels, got {gamma.data.shape}/{beta.data.shape}")
    run_mean, run_var = running_stats
    if mode == "train":
        if b_ * h * w < 2:
            raise ContractError("batchnorm2d train mode needs batch*H*W >= 2")
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        run_mean.data *= 1.0 - momentum
        run_mean.data += momentum * mu
        run_var.data *= 1.0 - momentum
        run_var.data += momentum * var
    elif mode == "eval":
        mu = run_mean.data
        var = run_var.data
    else:
        raise ContractError(f"batchnorm2d: mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    n = b_ * h * w

    def bwd(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        gx = g * gamma.data[None, :, None, None]
        if mode == "train":
            m1 = gx.mean(axis=(0, 2, 3))
            m2 = (gx * xhat).sum(axis=(0, 2, 3)) / n
            dx = inv[None, :, None, None] * (gx - m1[None, :, None, None] - xhat * m2[None, :, None, None])
        else:
            dx = gx * inv[None, :, None, None]
        return dx, dgamma, dbeta

    return _make("batchnorm2d", out, (x, gamma, beta), bwd)


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


def central_difference(f, flat, i, step):
    """Central difference of the scalar ``f()`` in coordinate ``i`` of ``flat``,
    a writable flat view (or ``ndarray.flat``) of what ``f`` reads; ``flat[i]``
    is restored after."""
    orig = flat[i]
    flat[i] = orig + step
    fp = float(f().data)
    flat[i] = orig - step
    fm = float(f().data)
    flat[i] = orig
    return (fp - fm) / (2.0 * step)


def relative_error(analytic, numeric):
    """|analytic - numeric| / max(1, |analytic|, |numeric|), elementwise."""
    return np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))


def grad_check(f, x, step=1e-5):
    """Max relative error between tape gradients and central differences.

    ``f`` maps a Tensor to a scalar Tensor and must be smooth at ``x`` (keep
    inputs away from relu and clamp kinks).
    """
    if x.grad is None:
        x.requires_grad = True
        x.grad = np.zeros_like(x.data)
    x.zero_grad()
    with Tape():
        y = f(x)
        y.backward()
    flat = x.data.flat  # writes through to x.data, contiguous or not
    numeric = [central_difference(lambda: f(x), flat, i, step) for i in range(x.data.size)]
    return float(np.max(relative_error(x.grad.reshape(-1), np.array(numeric))))
