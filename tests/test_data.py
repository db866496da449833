"""Unit tests for the synthetic clip generator and its file formats."""

import hashlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from trisal import data as D
from trisal.errors import ConfigError, DataError


def flat_scene(objects, frames=4, size=64, bg=0.5):
    return D.Scene(
        size=size,
        frames=frames,
        background="flat",
        bg_color=np.full(3, bg),
        bg_phases=np.zeros((3, 2)),
        bg_freqs=np.full((2, 2), 0.05),
        bg_amp=0.06,
        bg_speed=0.0,
        clutter=[],
        objects=objects,
    )


def rect(center, half, velocity=(0.0, 0.0), growth=1.0, color=0.9, depth=0.8):
    return D.SceneObject(
        kind="rectangle",
        center=center,
        half_extents=half,
        velocity=velocity,
        growth=growth,
        color=np.full(3, color),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# analytic flow


def test_static_rectangle_zero_flow_constant_mask():
    samples = D.render_scene(flat_scene([rect((32.0, 32.0), (8.0, 6.0))]))
    first_gt = samples[0].gt
    assert first_gt.sum() > 0
    for s in samples:
        npt.assert_array_equal(s.flow, 0.0)
        npt.assert_array_equal(s.gt, first_gt)


def test_translating_rectangle_exact_flow():
    samples = D.render_scene(flat_scene([rect((20.0, 32.0), (6.0, 6.0), velocity=(2.0, 0.0))], frames=5))
    for s in samples:
        mask = s.gt[0] == 1.0
        npt.assert_array_equal(s.flow[0][mask], 2.0)
        npt.assert_array_equal(s.flow[1][mask], 0.0)
        npt.assert_array_equal(s.flow[0][~mask], 0.0)


def test_growing_object_flow_points_outward():
    samples = D.render_scene(flat_scene([rect((32.0, 32.0), (8.0, 8.0), growth=1.02)], frames=3))
    s = samples[0]
    mask = s.gt[0] == 1.0
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    outward = s.flow[0] * (xx - 32.0) + s.flow[1] * (yy - 32.0)
    assert np.all(outward[mask] >= 0.0)
    assert outward[mask].max() > 0.0


def warp_backward(image, flow):
    """Sample ``image`` (C, H, W) at p + flow(p), bilinearly, clamped at the
    border; comparing against the previous frame checks flow consistency."""
    c, h, w = image.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = np.clip(xx + flow[0], 0.0, w - 1.0)
    sy = np.clip(yy + flow[1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = sx - x0
    wy = sy - y0
    out = np.empty_like(image)
    for ch in range(c):
        plane = image[ch]
        top = (1 - wx) * plane[y0, x0] + wx * plane[y0, x1]
        bot = (1 - wx) * plane[y1, x0] + wx * plane[y1, x1]
        out[ch] = (1 - wy) * top + wy * bot
    return out


def test_warp_consistency_flat_background():
    spec = D.ClipSpec(seed=11, frames=6, size=64, background="flat", contrast=0.8, speed=2.0)
    samples = D.generate_clip(spec)
    errs = []
    for t in range(len(samples) - 1):
        warped = warp_backward(samples[t + 1].rgb, samples[t].flow)
        errs.append(np.abs(warped - samples[t].rgb).mean())
    assert max(errs) <= 0.02


# ---------------------------------------------------------------------------
# generation constraints


def test_generate_clip_deterministic():
    spec = D.ClipSpec(seed=5, frames=4, size=64, n_objects=2, background="textured")
    a = D.generate_clip(spec)
    b = D.generate_clip(spec)
    for sa, sb in zip(a, b):
        for fld in ("rgb", "depth", "flow", "gt"):
            assert getattr(sa, fld).tobytes() == getattr(sb, fld).tobytes()


def test_generated_masks_nonempty_and_bounded():
    for seed in range(6):
        spec = D.ClipSpec(seed=seed, frames=4, size=64, n_objects=(seed % 3) + 1)
        samples = D.generate_clip(spec)
        for s in samples:
            assert D.MIN_COVERAGE <= s.gt.mean() <= D.MAX_COVERAGE


def test_infeasible_spec_raises():
    with pytest.raises(ConfigError, match="cannot realize"):
        D.generate_clip(D.ClipSpec(seed=0, frames=40, size=16, n_objects=3, speed=3.0))


def test_spec_validation():
    with pytest.raises(ConfigError):
        D.ClipSpec(n_objects=5)
    with pytest.raises(ConfigError):
        D.ClipSpec(background="starfield")
    with pytest.raises(ConfigError):
        D.ClipSpec(contrast=0.0)
    with pytest.raises(ConfigError):
        D.ClipSpec.from_dict({"sped": 2.0})


def test_moving_background_parallax_consistency():
    spec = D.ClipSpec(seed=21, frames=4, size=64, background="moving", speed=1.0)
    samples = D.generate_clip(spec)
    s = samples[0]
    bg = s.gt[0] == 0.0
    rows = [r for r in range(64) if bg[r].any()]
    speeds = {r: s.flow[0][r][bg[r]].mean() for r in rows}
    depths = {r: s.depth[0][r][bg[r]].mean() for r in rows}
    # clutter-free moving background: strictly increasing depth down the
    # frame must come with non-decreasing speed
    ordered = sorted(rows, key=lambda r: depths[r])
    sp = np.array([speeds[r] for r in ordered])
    assert np.all(np.diff(sp) >= -1e-9)
    assert sp[-1] > sp[0]


def test_depth_near_is_large():
    samples = D.render_scene(flat_scene([rect((32.0, 32.0), (8.0, 8.0), depth=0.8)]))
    s = samples[0]
    fg = s.gt[0] == 1.0
    assert s.depth[0][fg].min() > s.depth[0][~fg].max()


def test_eight_bit_alignment():
    spec = D.ClipSpec(seed=31, frames=2, size=64, background="textured")
    for s in D.generate_clip(spec):
        npt.assert_array_equal(np.round(s.rgb * 255.0) / 255.0, s.rgb)
        npt.assert_array_equal(np.round(s.depth * 255.0) / 255.0, s.depth)
        npt.assert_array_equal(s.flow.astype(np.float32).astype(np.float64), s.flow)


# ---------------------------------------------------------------------------
# flow color coding


def test_flow_color_zero_is_white():
    img = D.flow_to_color(np.zeros((2, 4, 4)))
    npt.assert_allclose(img, 1.0)


def test_flow_color_distinguishes_directions():
    left = D.flow_to_color(np.stack([np.full((4, 4), -5.0), np.zeros((4, 4))]))
    right = D.flow_to_color(np.stack([np.full((4, 4), 5.0), np.zeros((4, 4))]))
    assert np.abs(left - right).max() > 0.2
    assert left.min() >= 0.0 and left.max() <= 1.0


def test_color_wheel_is_pinned():
    # 55 hues from arange arithmetic alone, so the digest holds on every machine
    assert D._WHEEL.shape == (55, 3)
    digest = hashlib.sha256(D._WHEEL.tobytes()).hexdigest()
    assert digest == "41f43ee47fd8a43ffe9637f3279e62b63f4ffdca565d66f8920a6668b3d61ae8"


def test_flow_color_saturates_with_magnitude():
    weak = D.flow_to_color(np.stack([np.full((2, 2), 1.0), np.zeros((2, 2))]))
    strong = D.flow_to_color(np.stack([np.full((2, 2), 9.0), np.zeros((2, 2))]))
    assert (1.0 - strong).sum() > (1.0 - weak).sum()


def test_sample_derived_views():
    spec = D.ClipSpec(seed=41, frames=2, size=64)
    s = D.generate_clip(spec)[0]
    assert s.depth3.shape == (3, 64, 64)
    npt.assert_array_equal(s.depth3[0], s.depth[0])
    npt.assert_array_equal(s.depth3[2], s.depth[0])
    assert s.flow3.shape == (3, 64, 64)
    assert s.flow3.min() >= 0.0 and s.flow3.max() <= 1.0


STORED = {"rgb8": (np.uint8, 3), "depth8": (np.uint8, 1), "flow32": (np.float32, 2), "mask": (np.bool_, 1)}


def test_sample_stores_the_planes_its_files_hold(tmp_path):
    clips = D.build_dataset([D.ClipSpec(seed=43, frames=2, size=48, background="moving", n_objects=2)])
    D.write_dataset(clips, tmp_path / "ds")
    for s in clips[0].samples + D.read_dataset(tmp_path / "ds")[0].samples:
        for fld, (dtype, channels) in STORED.items():
            a = getattr(s, fld)
            assert a.dtype == dtype and a.shape == (channels, 48, 48) and a.flags.c_contiguous, fld
        for fld in ("rgb", "depth", "flow", "gt"):
            assert getattr(s, fld).dtype == np.float64 and getattr(s, fld) is not getattr(s, fld), fld
        assert s.depth3 is s.depth3 and s.flow3 is s.flow3
        # the float64 planes are what generation snapped them to: the 8-bit grid and float32
        for v, v8 in ((s.rgb, s.rgb8), (s.depth, s.depth8)):
            assert v.tobytes() == (np.round(v * 255.0) / 255.0).tobytes()
            assert v.tobytes() == (v8.astype(np.float64) / 255.0).tobytes()
        assert s.flow.tobytes() == s.flow.astype(np.float32).astype(np.float64).tobytes()
        assert s.flow.astype(np.float32).tobytes() == s.flow32.tobytes()
        assert np.array_equal(np.unique(s.gt), [0.0, 1.0]) and np.array_equal(s.gt == 1.0, s.mask)


def test_a_frame_holds_13_bytes_per_pixel(tmp_path):
    """uint8 RGB, depth and mask plus float32 flow; the float64 planes were 56."""
    spec = D.ClipSpec(seed=44, frames=1, size=256)
    D.write_dataset(D.build_dataset([spec]), tmp_path / "ds")
    for make in (lambda: D.generate_clip(spec), lambda: D.read_dataset(tmp_path / "ds")):
        make()  # warm up any lazily built module state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = make()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == 1 and held <= 13 * 256 * 256 + 8192, held / 256**2


# ---------------------------------------------------------------------------
# file formats


def test_dataset_roundtrip_bit_identical(tmp_path):
    clips = D.build_dataset(
        [
            D.ClipSpec(seed=51, frames=3, size=64, background="textured"),
            D.ClipSpec(seed=52, frames=2, size=64, background="moving"),
        ]
    )
    D.write_dataset(clips, tmp_path / "ds")
    back = D.read_dataset(tmp_path / "ds")
    assert [c.name for c in back] == ["clip00", "clip01"]
    for c0, c1 in zip(clips, back):
        assert c0.spec == c1.spec
        for s0, s1 in zip(c0.samples, c1.samples):
            for fld in ("rgb8", "depth8", "flow32", "mask", "rgb", "depth", "flow", "gt", "depth3", "flow3"):
                a0, a1 = getattr(s0, fld), getattr(s1, fld)
                assert a0.dtype == a1.dtype and a0.shape == a1.shape and a0.tobytes() == a1.tobytes(), fld


def test_dataset_write_deterministic_bytes(tmp_path):
    import hashlib

    def digest(root):
        h = hashlib.sha256()
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    specs = [D.ClipSpec(seed=61, frames=2, size=64)]
    D.write_dataset(D.build_dataset(specs), tmp_path / "a")
    D.write_dataset(D.build_dataset(specs), tmp_path / "b")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")


# sha256 of every file write_dataset writes for PINNED_SPECS; flat and cluttered
# backgrounds draw no sines, so the bytes hold on every machine
PINNED_SPECS = [
    D.ClipSpec(seed=81, frames=2, size=32, n_objects=2, background="cluttered", contrast=0.7, speed=1.5),
    D.ClipSpec(seed=82, frames=2, size=32, n_objects=1, background="flat", contrast=0.9, speed=2.0),
]
PINNED_FILES = {
    "clip00/depth/0000.pgm": "9c7f9144453918ed6dcc987e4e49ed3292cc714329fdde2eadf34bc3f396b728",
    "clip00/depth/0001.pgm": "683c7e8b8ee571b60c195af865d3a6c6967f66238468cbae9dc52a4ab8ee3e8f",
    "clip00/flow/0000.flo": "705f6f1408550f4bfd2c778e8af4c91c243dfd4b92336dca4df189a037728775",
    "clip00/flow/0001.flo": "24cb0dd3904ef3da4327c499fb4657e27d0c14f780886b1bbc9a80ff9f7e49b7",
    "clip00/gt/0000.pgm": "9393d6422276ac17e034f925e609ee78604a4516ece607761f0953a49c346b53",
    "clip00/gt/0001.pgm": "ee93551767179fdc8c03717f87ab881375ca38624f426719e62bd3b14034d1b5",
    "clip00/rgb/0000.ppm": "f9d817972288796f413c23bef293846f96b569f7bb75d4fe71880e229ec7cd79",
    "clip00/rgb/0001.ppm": "7519b7f42f530e7ce290827039034bad52f4dea45b5e345634d43a53cf933fc8",
    "clip01/depth/0000.pgm": "bfaa6b51fb70a0d4ad00153987fcf724205e26ae8a93ad1f1f152bd72e8e2e03",
    "clip01/depth/0001.pgm": "1b95eb48b6486acf943ece7645fb09c40729518927668bd3fe7526a8dadb2d58",
    "clip01/flow/0000.flo": "4ae59ebcc8e3db15e9e0d0fd871ea1da96d9d89efb3100ea13f41bf51fb29e8b",
    "clip01/flow/0001.flo": "4715f49af1d4043ff1cd0b1aa42bc57f5cd7de0dcac43656f1e53ca196b1de31",
    "clip01/gt/0000.pgm": "6ab860c880c8c945e2f67ded76c7849da50d65ee1661cc6c955fc9ccbeabc933",
    "clip01/gt/0001.pgm": "732aa045954926b81658539a161e01005b1cb110ec073757409995263111f3dd",
    "clip01/rgb/0000.ppm": "dfad5981885ac8799a24d301113d299ecdd0d13a816df143c98fb9845967ccf7",
    "clip01/rgb/0001.ppm": "2db5f144cf583d912e2cb16f7fc70116ed4755b331ba4ef8aca17843e6fc47f2",
    "manifest.json": "e28a9c556d1564b5222fbd8d97392a2776fdc852d91c47ce9519baf7833d83db",
}


def test_dataset_files_are_pinned(tmp_path):
    """The on-disk format stays byte for byte what it is, not just the same twice."""
    D.write_dataset(D.build_dataset(PINNED_SPECS), tmp_path)
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert written == PINNED_FILES


def test_truncated_ppm_is_parse_error(tmp_path):
    clips = D.build_dataset([D.ClipSpec(seed=71, frames=1, size=64)])
    D.write_dataset(clips, tmp_path / "ds")
    target = tmp_path / "ds" / "clip00" / "rgb" / "0000.ppm"
    target.write_bytes(target.read_bytes()[:-10])
    with pytest.raises(DataError, match="byte"):
        D.read_dataset(tmp_path / "ds")


def test_bad_flow_magic_is_parse_error(tmp_path):
    clips = D.build_dataset([D.ClipSpec(seed=72, frames=1, size=64)])
    D.write_dataset(clips, tmp_path / "ds")
    target = tmp_path / "ds" / "clip00" / "flow" / "0000.flo"
    raw = target.read_bytes()
    target.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataError, match="magic"):
        D.read_dataset(tmp_path / "ds")


def test_missing_manifest_is_data_error(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        D.read_dataset(tmp_path)


def test_truncated_manifest_is_data_error(tmp_path):
    D.write_dataset(D.build_dataset([D.ClipSpec(seed=73, frames=1, size=32)]), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    whole = path.read_bytes()
    for cut in range(len(whole)):
        if whole[:cut].strip() == whole.strip():
            continue
        path.write_bytes(whole[:cut])
        with pytest.raises(DataError):
            D.read_dataset(tmp_path / "ds")


def test_interrupted_dataset_write_is_not_readable(tmp_path, monkeypatch):
    D.write_dataset(D.build_dataset([D.ClipSpec(seed=74, frames=2, size=32)]), tmp_path / "ds")
    clips = D.build_dataset([D.ClipSpec(seed=75, frames=2, size=32)])

    def failing_write_flo(path, flow):
        raise OSError("disk full")

    monkeypatch.setattr(D, "write_flo", failing_write_flo)
    with pytest.raises(OSError, match="disk full"):
        D.write_dataset(clips, tmp_path / "ds")
    with pytest.raises(DataError, match="manifest.json"):
        D.read_dataset(tmp_path / "ds")


def test_flo_format_layout(tmp_path):
    flow = np.zeros((2, 2, 3), dtype=np.float64)
    flow[0, 0, 1] = 1.5
    flow[1, 1, 2] = -2.5
    p = tmp_path / "t.flo"
    D.write_flo(p, flow)
    raw = p.read_bytes()
    assert raw[:4] == b"PIEH"
    import struct

    w, h = struct.unpack("<ii", raw[4:12])
    assert (w, h) == (3, 2)
    vals = np.frombuffer(raw[12:], dtype="<f4").reshape(2, 3, 2)
    assert vals[0, 1, 0] == 1.5
    assert vals[1, 2, 1] == -2.5
    with pytest.raises(DataError, match="header says 3x2, the clip is 3x3"):
        D.read_flo(p, 3)
    square = np.arange(18.0).reshape(2, 3, 3)
    D.write_flo(p, square)
    npt.assert_array_equal(D.read_flo(p, 3), square)


def test_preset_suites():
    assert len(D.preset_specs("overfit")) == 1
    assert len(D.preset_specs("train5")) == 5
    held = D.preset_specs("heldout3")
    assert len(held) == 3
    for spec in held:
        assert spec.contrast <= 0.1 and spec.speed == 0.0
    with pytest.raises(ConfigError):
        D.preset_specs("train99")


def test_preset_clips_realizable():
    for name in ("overfit", "train5", "heldout3"):
        for spec in D.preset_specs(name):
            samples = D.generate_clip(spec)
            assert len(samples) == spec.frames
