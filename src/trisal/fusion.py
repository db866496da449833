"""Cross-modal stage blocks. The model has two stages that fuse its streams,
and each ablation fills one of them with another block from this module:

- attention (the three deepest levels): ``CrossModalAttention`` or
  ``StreamSelfAttention``; returns the main map and the auxiliary maps, refined;
- fusion (every level): ``RefinementFusion``, ``FlatRefinementFusion`` or
  ``ConcatFuse``; returns one merged map.

Every stage block is built as ``Block(ch, n_aux, rng)`` and called as
``block(x_main, x_aux_list)``, and first checks ``_check_streams``: exactly
``n_aux`` auxiliary maps, each shaped like the main map.
"""

from . import tensor as T
from .blocks import BConv, ChannelAttention, Conv2d, Module, ModuleList
from .errors import ConfigError, ShapeError

GATE_RATIO = 4  # channel reduction inside the refinement fusion's channel gates


def _check_streams(name, n_aux, x_main, x_aux_list):
    """The call contract of a stage block: ``n_aux`` auxiliary maps (a
    ``ConfigError`` otherwise), each shaped like the main map (a ``ShapeError``)."""
    if len(x_aux_list) != n_aux:
        raise ConfigError(f"{name}: expected {n_aux} auxiliary streams, got {len(x_aux_list)}")
    for x in x_aux_list:
        if x.shape != x_main.shape:
            raise ShapeError(f"{name}: input shapes differ, {x_main.shape} vs {x.shape}")


def _tokens(x):
    """(B, C, H, W) -> (B, C, HW) tokens, one column per position."""
    b, c, h, w = x.shape
    return T.reshape(x, (b, c, h * w))


def _affinity(query, key):
    """Row-stochastic (B, HW, HW) matrix from (B, C', H, W) query and key maps."""
    return T.softmax_rows(T.matmul(T.transpose_last2(_tokens(query)), _tokens(key)))


def _attend(attn_t, value):
    """Mix the positions of a (B, C, H, W) value map by the transpose of an
    affinity matrix A: ``out[b, c, i] = sum_j A[b, i, j] * value[b, c, j]``."""
    return T.reshape(T.matmul(_tokens(value), attn_t), value.shape)


class PairAttention(Module):
    """Affinity-guided exchange between the main stream and one auxiliary.

    A shared embedding of the concatenated pair produces query and key maps at
    half width; their product, row-normalized, attends value embeddings of
    each stream separately. Returns the attended (not yet residual) features
    for the main and the auxiliary stream.
    """

    def __init__(self, ch, rng):
        super().__init__()
        if ch % 2 != 0:
            raise ConfigError(f"attention needs an even channel count, got {ch}")
        self.hybrid = BConv(2 * ch, ch, rng)
        self.query = Conv2d(ch, ch // 2, 1, rng)
        self.key = Conv2d(ch, ch // 2, 1, rng, bias=False)  # the row softmax cancels a bias
        self.value_main = Conv2d(ch, ch, 1, rng)
        self.value_aux = Conv2d(ch, ch, 1, rng)
        self.out_main = Conv2d(ch, ch, 1, rng)
        self.out_aux = Conv2d(ch, ch, 1, rng)

    def affinity(self, x_main, x_aux):
        """Row-stochastic (B, HW, HW) attention matrix for the pair."""
        h = self.hybrid(T.concat_channels([x_main, x_aux]))
        return _affinity(self.query(h), self.key(h))

    def forward(self, x_main, x_aux):
        _check_streams("pair attention", 1, x_main, [x_aux])
        attn_t = T.transpose_last2(self.affinity(x_main, x_aux))
        assist_main = self.out_main(_attend(attn_t, self.value_main(x_main)))
        assist_aux = self.out_aux(_attend(attn_t, self.value_aux(x_aux)))
        return assist_main, assist_aux


class CrossModalAttention(Module):
    """Full attention fusion at one pyramid level: one pair block per
    auxiliary stream, then aggregation of the assisted main features.

    Outputs keep stream order (main, aux...) and all shapes. Each auxiliary
    output is its input plus the attended refinement; the main output
    aggregates the per-auxiliary assisted features (each with a residual of
    the raw main features) through a merge block.
    """

    def __init__(self, ch, n_aux, rng):
        super().__init__()
        if n_aux < 1:
            raise ConfigError(f"attention fusion needs at least one auxiliary stream, got {n_aux}")
        self.pairs = ModuleList([PairAttention(ch, rng) for _ in range(n_aux)])
        self.aggregate = BConv(n_aux * ch, ch, rng)
        self.n_aux = n_aux

    def forward(self, x_main, x_aux_list):
        _check_streams("attention fusion", self.n_aux, x_main, x_aux_list)
        assisted, aux_out = [], []
        for pair, x_aux in zip(self.pairs, x_aux_list):
            a_main, a_aux = pair(x_main, x_aux)
            assisted.append(T.add(x_main, a_main))
            aux_out.append(T.add(x_aux, a_aux))
        return self.aggregate(T.concat_channels(assisted)), aux_out


class SelfAttention(Module):
    """Single-stream non-local block with a residual connection; same
    embedding widths as the pair block."""

    def __init__(self, ch, rng):
        super().__init__()
        if ch % 2 != 0:
            raise ConfigError(f"attention needs an even channel count, got {ch}")
        self.query = Conv2d(ch, ch // 2, 1, rng)
        self.key = Conv2d(ch, ch // 2, 1, rng, bias=False)  # the row softmax cancels a bias
        self.value = Conv2d(ch, ch, 1, rng)
        self.out = Conv2d(ch, ch, 1, rng)

    def forward(self, x):
        attn_t = T.transpose_last2(_affinity(self.query(x), self.key(x)))
        return T.add(x, self.out(_attend(attn_t, self.value(x))))


class StreamSelfAttention(ModuleList):
    """The attention stage without cross-modal exchange: one ``SelfAttention``
    per stream, main first, each attending only to its own stream."""

    def __init__(self, ch, n_aux, rng):
        super().__init__([SelfAttention(ch, rng) for _ in range(1 + n_aux)])

    def forward(self, x_main, x_aux_list):
        main, *aux = self
        _check_streams("self attention", len(aux), x_main, x_aux_list)
        return main(x_main), [blk(x) for blk, x in zip(aux, x_aux_list)]


class RefinementFusion(Module):
    """Per-level fusion of the main stream with its auxiliaries.

    The main branch keeps evidence shared with every auxiliary (products)
    plus itself, auxiliaries each keep evidence shared with the main branch
    plus themselves; every branch goes through a merge block and a channel
    gate; auxiliaries are fused together first and then with the main
    branch. A single-auxiliary configuration simply drops the missing
    stream's terms.
    """

    def __init__(self, ch, n_aux, rng):
        super().__init__()
        if n_aux < 1:
            raise ConfigError(f"refinement fusion needs at least one auxiliary stream, got {n_aux}")
        self.n_aux = n_aux
        self.adapt_main = BConv(ch, ch, rng)
        self.adapt_aux = ModuleList([BConv(ch, ch, rng) for _ in range(n_aux)])
        self.merge_main = BConv(ch, ch, rng)
        self.gate_main = ChannelAttention(ch, GATE_RATIO, rng)
        self.merge_aux = ModuleList([BConv(ch, ch, rng) for _ in range(n_aux)])
        self.gate_aux = ModuleList([ChannelAttention(ch, GATE_RATIO, rng) for _ in range(n_aux)])
        self._build_merge(ch, n_aux, rng)

    def _build_merge(self, ch, n_aux, rng):
        self.fuse_aux = BConv(n_aux * ch, ch, rng)
        self.fuse_final = BConv(2 * ch, ch, rng)

    def _merge(self, z_main, z_aux):
        fused_aux = self.fuse_aux(T.concat_channels(z_aux))
        return self.fuse_final(T.concat_channels([z_main, fused_aux]))

    def forward(self, x_main, x_aux_list):
        _check_streams("refinement fusion", self.n_aux, x_main, x_aux_list)
        zm = self.adapt_main(x_main)
        za = [adapt(x) for adapt, x in zip(self.adapt_aux, x_aux_list)]
        main_pre, z_aux = zm, []
        for z, merge, gate in zip(za, self.merge_aux, self.gate_aux):
            shared = T.mul(zm, z)  # feeds the main branch and this auxiliary's
            main_pre = T.add(main_pre, shared)
            z_aux.append(gate(merge(T.add(z, shared))))
        return self._merge(self.gate_main(self.merge_main(main_pre)), z_aux)


class FlatRefinementFusion(RefinementFusion):
    """Refinement fusion without the staged merge: all gated branches are
    concatenated and merged by one block."""

    def _build_merge(self, ch, n_aux, rng):
        self.fuse_all = BConv((1 + n_aux) * ch, ch, rng)

    def _merge(self, z_main, z_aux):
        return self.fuse_all(T.concat_channels([z_main] + z_aux))


class ConcatFuse(Module):
    """Baseline fusion: concatenate the raw streams and merge in one block."""

    def __init__(self, ch, n_aux, rng):
        super().__init__()
        self.merge = BConv((1 + n_aux) * ch, ch, rng)
        self.n_aux = n_aux

    def forward(self, x_main, x_aux_list):
        _check_streams("concat fusion", self.n_aux, x_main, x_aux_list)
        return self.merge(T.concat_channels([x_main] + list(x_aux_list)))
