"""What the cross-modal blocks compute: row-stochastic affinities between a
main stream and auxiliaries, then gated refinement of the exchanged
features."""

import numpy as np

from trisal.fusion import CrossModalAttention, PairAttention, RefinementFusion
from trisal.tensor import Tensor

rng = np.random.default_rng(7)
ch, hw = 8, 6
x_rgb = Tensor(rng.normal(size=(1, ch, hw, hw)))
x_depth = Tensor(rng.normal(size=(1, ch, hw, hw)))
x_flow = Tensor(rng.normal(size=(1, ch, hw, hw)))

# Each (main, aux) pair gets its own affinity over spatial positions.
pair = PairAttention(ch, np.random.default_rng(1))
affinity = pair.affinity(x_rgb, x_depth).data
print("affinity shape:", affinity.shape, "(batch, positions, positions)")
print("row sums:", np.unique(np.round(affinity.sum(axis=-1), 12)))
print("entry range:", round(affinity.min(), 4), "to", round(affinity.max(), 4))

# The attention block exchanges information both ways and keeps residuals.
mam = CrossModalAttention(ch, n_aux=2, rng=np.random.default_rng(2))
y_main, y_aux = mam(x_rgb, [x_depth, x_flow])
print("main out:", y_main.shape, "aux outs:", [tuple(a.shape) for a in y_aux])
drift = np.abs(y_aux[0].data - x_depth.data).mean()
print("aux drift from residual input:", f"{drift:.4f}")

# Refinement fusion mixes adapted streams with elementwise cross terms and
# channel-attention gates. Wrapping a block's forward records its output.
rfm = RefinementFusion(ch, n_aux=2, rng=np.random.default_rng(3))
seen = {}


def record(block, key):
    forward = block.forward

    def recording(*args):
        seen[key] = forward(*args)
        return seen[key]

    block.forward = recording


record(rfm.merge_main, "main_pre_gate")
record(rfm.gate_main, "main_gated")
fused = rfm(y_main, y_aux)
print("fused:", fused.shape, "intermediates:", sorted(seen))
print("gate effect (pre vs post):",
      f"{np.abs(seen['main_pre_gate'].data).mean():.4f}",
      "->",
      f"{np.abs(seen['main_gated'].data).mean():.4f}")
