"""Reusable network blocks: conv+BN(+relu), channel attention, dilated pyramid
pooling, residual stages, and the five-level encoder stream.

Every block is a ``Module``: tensors and submodules register automatically
on attribute assignment, so checkpointing and optimizer grouping can walk the
tree by dotted name. Initialization is deterministic given the caller's
``numpy.random.Generator``.
"""

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


def _uniform_fan_in(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Module:
    """Base class with automatic tensor/submodule registration. A tensor that
    requires gradients is a parameter; one that does not (running stats) is a
    buffer. Both are checkpointed."""

    def __init__(self):
        object.__setattr__(self, "_tensors", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._tensors[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def train(self, flag=True):
        object.__setattr__(self, "training", flag)
        for child in self._children.values():
            child.train(flag)
        return self

    def eval(self):
        return self.train(False)

    def named_tensors(self, prefix=""):
        for name, t in self._tensors.items():
            yield prefix + name, t
        for name, child in self._children.items():
            yield from child.named_tensors(prefix + name + ".")

    def named_parameters(self, prefix=""):
        return ((name, t) for name, t in self.named_tensors(prefix) if t.requires_grad)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        return ((name, t) for name, t in self.named_tensors(prefix) if not t.requires_grad)

    def state_dict(self):
        return dict(self.named_tensors())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """Sequence of submodules registered by index."""

    def __init__(self, modules=()):
        super().__init__()
        for m in modules:
            self.append(m)

    def append(self, module):
        self._children[str(len(self._children))] = module

    def __iter__(self):
        return iter(self._children.values())

    def __len__(self):
        return len(self._children)

    def __getitem__(self, i):
        return list(self._children.values())[i]


class Conv2d(Module):
    def __init__(self, in_ch, out_ch, k, rng, stride=1, dilation=1, bias=True):
        super().__init__()
        self.stride, self.dilation = stride, dilation
        self.weight = _uniform_fan_in(rng, (out_ch, in_ch, k, k), in_ch * k * k)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True) if bias else None

    def forward(self, x):
        return T.conv2d(x, self.weight, self.bias, self.stride, self.dilation)


class BatchNorm2d(Module):
    """BN's parameters and running statistics; ``ConvBN`` applies them through ``T.conv2d``."""

    def __init__(self, ch):
        super().__init__()
        self.gamma = Tensor(np.ones(ch), requires_grad=True)
        self.beta = Tensor(np.zeros(ch), requires_grad=True)
        self.running_mean = Tensor(np.zeros(ch))
        self.running_var = Tensor(np.ones(ch))

    def args(self):
        """(gamma, beta, running stats, mode), as ``T.batchnorm2d`` and ``T.conv2d``'s ``bn`` take them."""
        return self.gamma, self.beta, (self.running_mean, self.running_var), "train" if self.training else "eval"


class ConvBN(Module):
    """Same-padded conv -> batchnorm, as one ``T.conv2d`` call. The conv has no bias: BN subtracts the
    batch mean in train mode and ``running_mean`` absorbs it in eval mode."""

    relu = False

    def __init__(self, in_ch, out_ch, rng, k=3, stride=1, dilation=1):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, k, rng, stride, dilation, bias=False)
        self.bn = BatchNorm2d(out_ch)

    def forward(self, x):
        c = self.conv
        return T.conv2d(x, c.weight, None, c.stride, c.dilation, self.bn.args(), self.relu)


class BConv(ConvBN):
    """conv -> batchnorm -> relu."""

    relu = True


class ChannelAttention(Module):
    """Squeeze-and-excitation gate: per-channel scale in (0,1) from pooled stats."""

    def __init__(self, ch, ratio, rng):
        super().__init__()
        if ch % ratio != 0:
            raise ConfigError(f"channel count {ch} not divisible by reduction ratio {ratio}")
        hidden = ch // ratio
        self.w1 = _uniform_fan_in(rng, (hidden, ch), ch)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = _uniform_fan_in(rng, (ch, hidden), hidden)
        self.b2 = Tensor(np.zeros(ch), requires_grad=True)
        self.ch = ch

    def forward(self, x):
        b = x.shape[0]
        pooled = T.global_avg_pool(x)
        h = T.relu(T.add(T.matmul(pooled, T.transpose_last2(self.w1)), self.b1))
        s = T.sigmoid(T.add(T.matmul(h, T.transpose_last2(self.w2)), self.b2))
        return T.mul(x, T.reshape(s, (b, self.ch, 1, 1)))


class ASPP(Module):
    """Parallel dilated branches plus a pooled branch, merged by a 1x1 BConv.

    The pooled branch skips batchnorm (its 1x1 spatial extent would make
    train-mode batch statistics degenerate at batch size 1).
    """

    RATES = (1, 2, 4, 8)

    def __init__(self, ch, rng):
        super().__init__()
        self.branches = ModuleList([BConv(ch, ch, rng, k=3, dilation=d) for d in self.RATES])
        self.pool_conv = Conv2d(ch, ch, 1, rng)
        self.merge = BConv(ch * (len(self.RATES) + 1), ch, rng, k=1)

    def forward(self, x):
        b, c, h, w = x.shape
        outs = [branch(x) for branch in self.branches]
        pooled = T.reshape(T.global_avg_pool(x), (b, c, 1, 1))
        outs.append(T.broadcast_hw(T.relu(self.pool_conv(pooled)), h, w))
        return self.merge(T.concat_channels(outs))


class BasicBlock(Module):
    """Two 3x3 conv+BN layers with a residual shortcut (1x1 projection when
    the stride or channel count changes)."""

    def __init__(self, in_ch, out_ch, rng, stride=1):
        super().__init__()
        self.conv1 = BConv(in_ch, out_ch, rng, stride=stride)
        self.conv2 = ConvBN(out_ch, out_ch, rng)
        self.proj = ConvBN(in_ch, out_ch, rng, k=1, stride=stride) if stride != 1 or in_ch != out_ch else None

    def forward(self, x):
        h = self.conv2(self.conv1(x))
        skip = self.proj(x) if self.proj is not None else x
        return T.relu(T.add(h, skip))


class Encoder(Module):
    """One modality stream: stem plus four residual stages, five output levels.

    Level i lives at 1/2^i of the input resolution. The deepest level passes
    through the dilated pyramid before compression; every level is then
    compressed to ``cp_width`` channels by its own BConv. Every modality
    arrives as three channels: RGB, replicated depth, or color-coded flow.
    """

    def __init__(self, rng, width=16, cp_width=16):
        super().__init__()
        self.stem = BConv(3, width, rng, stride=2)
        widths = (width, 2 * width, 4 * width, 8 * width)
        stages = []
        prev = width
        for w_out in widths:
            stages.append(
                ModuleList([BasicBlock(prev, w_out, rng, stride=2), BasicBlock(w_out, w_out, rng)])
            )
            prev = w_out
        self.stages = ModuleList(stages)
        self.aspp = ASPP(widths[-1], rng)
        self.cp = ModuleList([BConv(c, cp_width, rng) for c in (width,) + widths])

    def forward(self, x):
        h, w = x.shape[2], x.shape[3]
        if h % 32 != 0 or w % 32 != 0:
            raise ConfigError(f"encoder input must have H and W divisible by 32, got {h}x{w}")
        levels = []
        cur = self.stem(x)
        levels.append(cur)
        for stage in self.stages:
            for block in stage:
                cur = block(cur)
            levels.append(cur)
        levels[4] = self.aspp(levels[4])
        return [self.cp[i](levels[i]) for i in range(5)]
