"""Cross-modal fusion blocks.

Two families live here. The attention fusion computes a joint embedding of
the main modality with one auxiliary modality, turns its pairwise pixel
affinities into a row-stochastic matrix, and uses that matrix to mix value
embeddings of both streams; the mixed features assist the main stream and
refine the auxiliary one. The refinement fusion multiplies aligned feature
maps to keep evidence the modalities agree on, restores each stream through a
residual, gates channels, and merges auxiliaries before the main stream.
"""

from . import tensor as T
from .blocks import BConv, ChannelAttention, Conv2d, Module, ModuleList
from .errors import ConfigError, ShapeError


def _require_same_shape(name, tensors):
    base = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != base:
            raise ShapeError(f"{name}: input shapes differ, {base} vs {t.shape}")


def _flatten_rows(x):
    """(B, C, H, W) -> (B, HW, C) token rows."""
    b, c, h, w = x.shape
    return T.transpose_last2(T.reshape(x, (b, c, h * w)))


def _affinity(query, key):
    """Row-stochastic (B, HW, HW) matrix from (B, C', H, W) query and key maps."""
    b, c, h, w = key.shape
    return T.softmax_rows(T.matmul(_flatten_rows(query), T.reshape(key, (b, c, h * w))))


def _attend(attn, value):
    """Mix the positions of a (B, C, H, W) value map by an affinity matrix."""
    b, c, h, w = value.shape
    mixed = T.matmul(attn, _flatten_rows(value))
    return T.reshape(T.transpose_last2(mixed), (b, c, h, w))


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
        _require_same_shape("pair attention", [x_main, x_aux])
        attn = self.affinity(x_main, x_aux)
        assist_main = self.out_main(_attend(attn, self.value_main(x_main)))
        assist_aux = self.out_aux(_attend(attn, self.value_aux(x_aux)))
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
        if len(x_aux_list) != self.n_aux:
            raise ConfigError(f"expected {self.n_aux} auxiliary streams, got {len(x_aux_list)}")
        _require_same_shape("attention fusion", [x_main] + list(x_aux_list))
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
        attn = _affinity(self.query(x), self.key(x))
        return T.add(x, self.out(_attend(attn, self.value(x))))


class RefinementFusion(Module):
    """Per-level fusion of the main stream with its auxiliaries.

    variant 'full': main branch keeps evidence shared with every auxiliary
    (products) plus itself, auxiliaries each keep evidence shared with the
    main branch plus themselves; every branch goes through a merge block and
    a channel gate; auxiliaries are fused together first and then with the
    main branch. 'flat_concat' skips the staged merge and concatenates all
    gated branches at once. A single-auxiliary configuration simply drops the
    missing stream's terms.
    """

    VARIANTS = ("full", "flat_concat")

    def __init__(self, ch, n_aux, rng, ca_ratio=4, variant="full"):
        super().__init__()
        if variant not in self.VARIANTS:
            raise ConfigError(f"unknown fusion variant {variant!r}; expected one of {self.VARIANTS}")
        if n_aux < 1:
            raise ConfigError(f"refinement fusion needs at least one auxiliary stream, got {n_aux}")
        self.variant = variant
        self.n_aux = n_aux
        self.adapt_main = BConv(ch, ch, rng)
        self.adapt_aux = ModuleList([BConv(ch, ch, rng) for _ in range(n_aux)])
        self.merge_main = BConv(ch, ch, rng)
        self.gate_main = ChannelAttention(ch, ca_ratio, rng)
        self.merge_aux = ModuleList([BConv(ch, ch, rng) for _ in range(n_aux)])
        self.gate_aux = ModuleList([ChannelAttention(ch, ca_ratio, rng) for _ in range(n_aux)])
        if variant == "flat_concat":
            self.fuse_all = BConv((1 + n_aux) * ch, ch, rng)
        else:
            self.fuse_aux = BConv(n_aux * ch, ch, rng)
            self.fuse_final = BConv(2 * ch, ch, rng)

    def forward(self, x_main, x_aux_list):
        if len(x_aux_list) != self.n_aux:
            raise ConfigError(f"expected {self.n_aux} auxiliary streams, got {len(x_aux_list)}")
        _require_same_shape("refinement fusion", [x_main] + list(x_aux_list))
        zm = self.adapt_main(x_main)
        za = [adapt(x) for adapt, x in zip(self.adapt_aux, x_aux_list)]
        main_pre = zm
        for z in za:
            main_pre = T.add(main_pre, T.mul(zm, z))
        z_main = self.gate_main(self.merge_main(main_pre))
        z_aux = []
        for z, merge, gate in zip(za, self.merge_aux, self.gate_aux):
            z_aux.append(gate(merge(T.add(z, T.mul(z, zm)))))
        if self.variant == "flat_concat":
            return self.fuse_all(T.concat_channels([z_main] + z_aux))
        fused_aux = self.fuse_aux(T.concat_channels(z_aux))
        return self.fuse_final(T.concat_channels([z_main, fused_aux]))


class ConcatFuse(Module):
    """Baseline fusion: concatenate the raw streams and merge in one block."""

    def __init__(self, ch, n_streams, rng):
        super().__init__()
        self.merge = BConv(n_streams * ch, ch, rng)
        self.n_streams = n_streams

    def forward(self, x_main, x_aux_list):
        if 1 + len(x_aux_list) != self.n_streams:
            raise ConfigError(f"expected {self.n_streams} streams, got {1 + len(x_aux_list)}")
        _require_same_shape("concat fusion", [x_main] + list(x_aux_list))
        return self.merge(T.concat_channels([x_main] + list(x_aux_list)))
