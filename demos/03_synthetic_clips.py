"""The synthetic clip generator: depth layering and the flow color coding,
plus the on-disk dataset layout."""

import os
import tempfile

import numpy as np

from trisal.data import (
    ClipSpec,
    build_dataset,
    flow_to_color,
    generate_clip,
    preset_specs,
    read_dataset,
    write_dataset,
)

spec = ClipSpec(seed=11, frames=6, size=64, background="textured", contrast=0.8, speed=2.0)
samples = generate_clip(spec)
print("frames:", len(samples))
print("coverage per frame:", [round(float(s.gt.mean()), 3) for s in samples])

# Depth is disparity-like: salient objects sit on bright plateaus.
inside = samples[0].depth[samples[0].gt > 0].mean()
outside = samples[0].depth[samples[0].gt == 0].mean()
print("depth inside object:", round(float(inside), 3), "vs background:", round(float(outside), 3))

# The network sees flow through a fixed 55-color wheel; zero flow is white.
wheel_img = flow_to_color(np.zeros((2, 4, 4), dtype=np.float32))
print("zero-flow color (should be 1.0):", np.unique(wheel_img))

# Datasets round-trip bit-exactly through PPM/PGM/FLO files.
with tempfile.TemporaryDirectory() as root:
    clips = build_dataset(preset_specs("overfit"))
    write_dataset(clips, root)
    back = read_dataset(root)
    same = all(
        np.array_equal(a.rgb, b.rgb) and np.array_equal(a.flow, b.flow)
        for ca, cb in zip(clips, back)
        for a, b in zip(ca.samples, cb.samples)
    )
    print("disk round-trip bit-identical:", same)
    print("files per clip:", sorted(os.listdir(os.path.join(root, "clip00"))))
