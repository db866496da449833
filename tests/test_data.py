"""Unit tests for the synthetic clip generator and its file formats."""

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


def test_warp_consistency_flat_background():
    spec = D.ClipSpec(seed=11, frames=6, size=64, background="flat", contrast=0.8, speed=2.0)
    samples = D.generate_clip(spec)
    errs = []
    for t in range(len(samples) - 1):
        warped = D.warp_backward(samples[t + 1].rgb, samples[t].flow)
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
            for fld in ("rgb", "depth", "flow", "gt"):
                assert getattr(s0, fld).tobytes() == getattr(s1, fld).tobytes(), fld


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
