"""Full network assembly, supervision, and training.

The network runs one encoder stream per input modality, exchanges
information between the main stream and the auxiliaries with attention
fusion on the three deepest levels, merges all streams per level with
refinement fusion, and decodes coarse-to-fine with a side output at every
level. Each ablation variant changes one entry of ``VARIANT_BLOCKS``: the
streams, the main stream, or the block that fills one stage.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .blocks import BConv, Conv2d, Encoder, Module, ModuleList
from .errors import ConfigError, ContractError, DataError, NumericalError
from .errors import check_payload, from_fields, open_to_read, parse_json, write_bytes
from .fusion import GATE_RATIO, ConcatFuse, CrossModalAttention, FlatRefinementFusion, RefinementFusion, StreamSelfAttention
from .tensor import Tensor

_TRIMODAL = ("rgb", "depth", "flow")

# What each variant builds: its streams (in build order), its main stream, the
# block of the attention stage (None: no attention) and that of the fusion stage.
VARIANT_BLOCKS = {
    "Full": (_TRIMODAL, "rgb", CrossModalAttention, RefinementFusion),
    "A1_no_depth": (("rgb", "flow"), "rgb", CrossModalAttention, RefinementFusion),
    "B1_depth_main": (_TRIMODAL, "depth", CrossModalAttention, RefinementFusion),
    "B2_flow_main": (_TRIMODAL, "flow", CrossModalAttention, RefinementFusion),
    "C1_no_mam": (_TRIMODAL, "rgb", None, RefinementFusion),
    "C2_self_nonlocal": (_TRIMODAL, "rgb", StreamSelfAttention, RefinementFusion),
    "C3_no_rfm": (_TRIMODAL, "rgb", CrossModalAttention, ConcatFuse),
    "C4_flat_concat": (_TRIMODAL, "rgb", CrossModalAttention, FlatRefinementFusion),
}
VARIANTS = tuple(VARIANT_BLOCKS)

# Row labels used in ablation reports, in canonical report order.
VARIANT_LABELS = {
    "A1_no_depth": "A1",
    "B1_depth_main": "B1",
    "B2_flow_main": "B2",
    "C1_no_mam": "C1",
    "C2_self_nonlocal": "C2",
    "C3_no_rfm": "C3",
    "C4_flat_concat": "C4",
    "Full": "Ours",
}

ATTENTION_LEVELS = (2, 3, 4)  # zero-based pyramid indices: the three deepest
LEVEL_WEIGHTS = (1.0, 0.5, 0.25, 0.125, 0.0625)


@dataclass
class ModelConfig:
    input_size: int = 64
    width: int = 16
    cp_width: int = 16
    variant: str = "Full"
    seed: int = 0
    lr_backbone: float = 1e-4
    lr_head: float = 1e-3
    batch_size: int = 4
    steps: int = 200

    def __post_init__(self):
        if self.input_size % 32 != 0:
            raise ConfigError(f"input_size must be divisible by 32, got {self.input_size}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.cp_width % GATE_RATIO != 0:
            # the channel gates reduce by GATE_RATIO, the attention embeddings halve
            raise ConfigError(f"cp_width must be a multiple of {GATE_RATIO}, got {self.cp_width}")
        for name in ("width", "cp_width", "batch_size", "steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("seed", "lr_backbone", "lr_head"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, d):
        return from_fields(cls, d, "model config")


class SaliencyModel(Module):
    def __init__(self, config):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config.cp_width
        self.streams, self.main_stream, attention, fusion = VARIANT_BLOCKS[config.variant]
        self.aux_streams = tuple(s for s in self.streams if s != self.main_stream)
        for name in self.streams:
            setattr(self, f"enc_{name}", Encoder(rng, width=config.width, cp_width=c))
        n_aux = len(self.aux_streams)
        self.attention = ModuleList([attention(c, n_aux, rng) for _ in ATTENTION_LEVELS]) if attention else None
        self.fuse = ModuleList([fusion(c, n_aux, rng) for _ in range(5)])
        self.dec_top = BConv(c, c, rng)
        self.dec = ModuleList([BConv(2 * c, c, rng) for _ in range(4)])  # levels 4..1
        self.heads = ModuleList([Conv2d(c, 1, 3, rng) for _ in range(5)])

    def parameter_count(self):
        return sum(p.data.size for p in self.parameters())

    def forward(self, rgb, depth, flow):
        """Pre-sigmoid side-output logit maps, finest level first (S_1 at input/2)."""
        inputs = {"rgb": rgb, "depth": depth, "flow": flow}
        shapes = {k: v.shape for k, v in inputs.items() if k in self.streams}
        base = next(iter(shapes.values()))
        for k, s in shapes.items():
            if s != base:
                raise ConfigError(f"modality shapes differ: {shapes}")
        pyramids = {name: getattr(self, f"enc_{name}")(inputs[name]) for name in self.streams}

        fused = []
        for lvl in range(5):
            x_main = pyramids[self.main_stream][lvl]
            x_aux = [pyramids[s][lvl] for s in self.aux_streams]
            if self.attention is not None and lvl in ATTENTION_LEVELS:
                x_main, x_aux = self.attention[ATTENTION_LEVELS.index(lvl)](x_main, x_aux)
            fused.append(self.fuse[lvl](x_main, x_aux))

        state = self.dec_top(fused[4])
        outputs = [None] * 5
        outputs[4] = self.heads[4](state)
        for lvl in (3, 2, 1, 0):
            state = self.dec[lvl](T.concat_channels([fused[lvl], T.upsample_bilinear_x2(state)]))
            outputs[lvl] = self.heads[lvl](state)
        return outputs


def build(config):
    return SaliencyModel(config)


# ---------------------------------------------------------------------------
# supervision


def _upsample_to(x, target_hw):
    h = x.shape[2]
    if target_hw % h != 0 or (target_hw // h) & (target_hw // h - 1):
        raise ContractError(f"cannot upsample {h} to {target_hw} by doubling")
    while x.shape[2] < target_hw:
        x = T.upsample_bilinear_x2(x)
    return x


def _check_binary(g):
    if not np.all((g.data == 0.0) | (g.data == 1.0)):
        raise ContractError("ground truth must be binary (exactly 0 or 1)")


def level_losses(outputs, gt):
    """Unweighted per-level losses, each cross-entropy plus soft-overlap
    (1 - IoU, with 1 added to both intersection and union).

    Every side output is doubled up to the ground-truth resolution and put
    through a sigmoid; probabilities are clamped away from 0 and 1 so the
    log stays finite. The cross-entropy is ``-log q`` with ``q = p*(2gt - 1) + (1 - gt)``, the probability
    of each pixel's label; for a binary mask it has the bits of ``-(gt*log p + (1 - gt)*log(1 - p))``.
    """
    _check_binary(gt)
    target_hw = gt.shape[2]
    sign, offset = Tensor(2.0 * gt.data - 1.0), Tensor(1.0 - gt.data)
    neg_n = Tensor(-float(np.prod(gt.shape)))  # the mean of -log q is the sum of log q over -n
    losses = []
    for s in outputs:
        p = T.clamp(T.sigmoid(_upsample_to(s, target_hw)), 1e-7, 1.0 - 1e-7)
        bce = T.div(T.sum_all(T.log(T.add(T.mul(p, sign), offset))), neg_n)
        inter = T.sum_all(T.mul(p, gt))
        union = T.sub(T.add(T.sum_all(p), T.sum_all(gt)), inter)
        iou = T.sub(Tensor(1.0), T.div(T.add(inter, Tensor(1.0)), T.add(union, Tensor(1.0))))
        losses.append(T.add(bce, iou))
    return losses


def weighted_total(losses):
    """Sum of per-level losses, each deeper level weighted half the previous."""
    total = T.mul(losses[0], Tensor(LEVEL_WEIGHTS[0]))
    for w, l in zip(LEVEL_WEIGHTS[1:], losses[1:]):
        total = T.add(total, T.mul(l, Tensor(w)))
    return total


def loss_total(outputs, gt):
    """The training loss: ``weighted_total`` of ``level_losses``."""
    return weighted_total(level_losses(outputs, gt))


# ---------------------------------------------------------------------------
# optimization


class SGD:
    """Momentum SGD over decoupled groups of ``(name, parameter)`` pairs, all of them in ``params``, with L2
    weight decay folded into the gradient. A parameter whose ``grad`` is None is left as it is."""

    def __init__(self, groups, momentum=0.9, weight_decay=5e-4):
        self.groups = [(list(named), lr) for named, lr in groups]
        self.params = [pair for named, _ in self.groups for pair in named]
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [[np.zeros_like(p.data) for _, p in named] for named, _ in self.groups]

    def step(self):
        for (named, lr), vels in zip(self.groups, self.velocity):
            for (_, p), v in zip(named, vels):
                if p.grad is None:
                    continue
                # The bits of v = m * v + (grad + wd * data); data -= lr * v, with one temporary
                g = p.data * self.weight_decay
                g += p.grad
                v *= self.momentum
                v += g
                if lr != 0.0:
                    p.data -= np.multiply(v, lr, out=g)


def is_backbone_param(name):
    """Backbone = encoder stems and residual stages; everything else
    (pyramid, compression, attention, fusion, decoder) trains faster."""
    return name.startswith("enc_") and (".stem." in name or ".stages." in name)


def make_optimizer(model, config):
    backbone, heads = [], []
    for name, p in model.named_parameters():
        (backbone if is_backbone_param(name) else heads).append((name, p))
    return SGD([(backbone, config.lr_backbone), (heads, config.lr_head)])


# ---------------------------------------------------------------------------
# training loop


def make_batch(samples, indices):
    """Stack dataset samples into (B, 3, H, W) modality tensors and a
    (B, 1, H, W) ground-truth tensor."""
    rgb = Tensor(np.stack([samples[i].rgb for i in indices]))
    depth = Tensor(np.stack([samples[i].depth3 for i in indices]))
    flow = Tensor(np.stack([samples[i].flow3 for i in indices]))
    gt = Tensor(np.stack([samples[i].gt for i in indices]))
    return rgb, depth, flow, gt


def train_step(model, optimizer, batch, step=None):
    rgb, depth, flow, gt = batch
    for _, p in optimizer.params:  # the next backward creates each gradient anew
        p.grad = None
    model.train()
    with T.Tape() as tape:
        outputs = model(rgb, depth, flow)
        per_level = level_losses(outputs, gt)
        total = weighted_total(per_level)
        if not np.isfinite(total.data):
            culprit = tape.first_nonfinite()
            where = f"op '{culprit[0]}' (record {culprit[1]})" if culprit else "loss"
            raise NumericalError(f"non-finite loss at step {step}: first non-finite tensor from {where}")
        T.backward(total)
    for name, p in optimizer.params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericalError(f"non-finite gradient at step {step} in parameter '{name}'; parameters not updated")
    optimizer.step()
    return float(total.data), [float(l.data) for l in per_level]


def fit(model, samples, config, on_step=None):
    """Train on a sample list; returns log rows (step, total, l1..l5).

    Batch composition is drawn from a seeded generator, so a (config, data,
    seed) triple always produces the identical log.
    """
    if not samples:
        raise ConfigError("training requires at least one sample")
    optimizer = make_optimizer(model, config)
    order = np.random.default_rng(config.seed + 1)
    rows = []
    for step in range(config.steps):
        idx = order.integers(0, len(samples), size=config.batch_size)
        loss, per_level = train_step(model, optimizer, make_batch(samples, idx), step=step)
        rows.append((step, loss, *per_level))
        if on_step is not None and on_step(step, loss) is False:
            break
    return rows


# ---------------------------------------------------------------------------
# inference and checkpointing


def predict(model, rgb, depth, flow):
    """Full-resolution saliency probabilities (B, 1, H, W) in [0, 1]."""
    model.eval()
    outputs = model(rgb, depth, flow)
    return T.sigmoid(T.upsample_bilinear_x2(outputs[0])).data


def save_checkpoint(path, model, step=0):
    """Write one file, replaced whole: a compact key-sorted JSON header line
    with ``config``, ``step`` and ``tensors`` (``[name, shape]`` in sorted-name
    order), then each of those tensors as little-endian float64."""
    state = model.state_dict()
    names = sorted(state)
    header = {"config": asdict(model.config), "step": step, "tensors": [[n, list(state[n].shape)] for n in names]}
    text = json.dumps(header, separators=(",", ":"), sort_keys=True) + "\n"
    write_bytes(path, [text.encode(), *(np.ascontiguousarray(state[n].data, dtype="<f8") for n in names)])


def _step(v):
    if type(v) is not int or v < 0:  # a bool is no step
        raise ValueError(f"step must be a non-negative integer, got {v!r:.80}")
    return v


def load_checkpoint(path):
    """(model, step) from a ``save_checkpoint`` file. The header's tensor
    list must equal the built model's, and the payload their bytes, before any
    tensor is read straight into the model: no shape read from disk reaches numpy."""
    with open_to_read(path) as fh:
        header = fh.readline()
        config, step, listed = parse_json(
            path, header, lambda h: (ModelConfig.from_dict(h["config"]), _step(h["step"]), list(h["tensors"]))
        )
        model = build(config)
        state = model.state_dict()
        names = sorted(state)
        # compared as text, so a dimension of 1.0 or true is not 1
        got, need = [repr(e) for e in listed], [repr([n, list(state[n].shape)]) for n in names]
        if got != need:
            i = next((i for i, (a, b) in enumerate(zip(got, need)) if a != b), min(len(got), len(need)))
            a, b = (e[i][:120] if i < len(e) else "nothing" for e in (got, need))
            raise DataError(f"{path}: tensor {i} is {a}, the {config.variant} model needs {b}")
        arrays = [state[n].data for n in names]
        check_payload(path, os.fstat(fh.fileno()).st_size, len(header), sum(a.nbytes for a in arrays))
        for a in arrays:
            if fh.readinto(a) != a.nbytes:  # the file shrank after the length check
                raise DataError(f"{path}: ended inside the tensor data while it was read")
            if not np.little_endian:  # the file holds little-endian float64
                a.byteswap(inplace=True)
    return model, step
