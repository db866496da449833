"""Deterministic synthetic trimodal video clips.

Each clip is a short sequence of frames holding four aligned planes: an RGB
image, a depth map (larger value = nearer), a two-channel pixel-displacement
flow field to the next frame, and a binary foreground mask. Objects move
under known per-frame affine motion (translation plus isotropic growth about
the object center), so the flow is analytic ground truth rather than an
estimate. RGB and depth are snapped to the 8-bit grid and flow to 32-bit
floats at generation time, making disk round-trips bit-identical.
"""

import contextlib
import os
import struct
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, read_bytes, read_json, reject_unknown_keys, write_json

BACKGROUNDS = ("flat", "textured", "cluttered", "moving")
OBJECT_KINDS = ("rectangle", "ellipse")
FLOW_COLOR_MAX_MAG = 10.0
MIN_COVERAGE = 0.02
MAX_COVERAGE = 0.60
MAX_LAYOUT_ATTEMPTS = 64


@dataclass
class ClipSpec:
    seed: int = 0
    frames: int = 8
    size: int = 64
    n_objects: int = 1
    background: str = "flat"
    contrast: float = 1.0
    speed: float = 2.0  # max object translation, px/frame (0 = static objects)

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.size < 16:
            raise ConfigError(f"size must be >= 16, got {self.size}")
        if not 1 <= self.n_objects <= 3:
            raise ConfigError(f"n_objects must be in 1..3, got {self.n_objects}")
        if self.background not in BACKGROUNDS:
            raise ConfigError(f"unknown background {self.background!r}; expected one of {BACKGROUNDS}")
        if not 0.0 < self.contrast <= 1.0:
            raise ConfigError(f"contrast must be in (0, 1], got {self.contrast}")
        if self.speed < 0.0:
            raise ConfigError(f"speed must be nonnegative, got {self.speed}")

    @classmethod
    def from_dict(cls, d):
        reject_unknown_keys(d, cls, "clip spec")
        return cls(**d)


@dataclass(eq=False)
class TrimodalSample:
    rgb: np.ndarray  # (3, H, W) in [0, 1], 8-bit aligned
    depth: np.ndarray  # (1, H, W) in [0, 1], larger = nearer
    flow: np.ndarray  # (2, H, W) pixel displacements (u right, v down)
    gt: np.ndarray  # (1, H, W) binary {0, 1}

    @cached_property
    def depth3(self):
        """Depth replicated to three channels for the shared encoder stem."""
        return np.repeat(self.depth, 3, axis=0)

    @cached_property
    def flow3(self):
        """Flow rendered to a three-channel color image for the flow stream."""
        return flow_to_color(self.flow)


@dataclass
class SceneObject:
    kind: str  # rectangle | ellipse
    center: tuple  # (cx, cy) at frame 0, pixel coordinates
    half_extents: tuple  # (hx, hy) at frame 0
    velocity: tuple  # (vx, vy) px/frame
    growth: float  # per-frame isotropic scale factor (1.0 = rigid)
    color: np.ndarray  # (3,) in [0, 1]
    depth: float  # plateau value in [0, 1]


@dataclass
class Scene:
    size: int
    frames: int
    background: str
    bg_color: np.ndarray  # (3,)
    bg_phases: np.ndarray  # texture phases per channel
    bg_freqs: np.ndarray  # two spatial frequency pairs
    bg_amp: float
    bg_speed: float  # parallax scale for moving backgrounds
    clutter: list  # static distractor SceneObjects (rendered, never in gt)
    objects: list  # salient SceneObjects


def _object_state(obj, t):
    cx = obj.center[0] + obj.velocity[0] * t
    cy = obj.center[1] + obj.velocity[1] * t
    return cx, cy, obj.growth**t


def _object_mask(obj, t, xx, yy):
    cx, cy, s = _object_state(obj, t)
    hx, hy = obj.half_extents[0] * s, obj.half_extents[1] * s
    if obj.kind == "rectangle":
        return (np.abs(xx - cx) <= hx) & (np.abs(yy - cy) <= hy)
    return ((xx - cx) / hx) ** 2 + ((yy - cy) / hy) ** 2 <= 1.0


def _object_flow(obj, t, xx, yy):
    """Displacement of object pixels from frame t to t+1 under the motion."""
    cx, cy, _ = _object_state(obj, t)
    ratio = obj.growth - 1.0
    u = obj.velocity[0] + ratio * (xx - cx)
    v = obj.velocity[1] + ratio * (yy - cy)
    return u, v


def _object_in_bounds(obj, t, size):
    cx, cy, s = _object_state(obj, t)
    hx, hy = obj.half_extents[0] * s, obj.half_extents[1] * s
    return cx - hx >= 1.0 and cx + hx <= size - 2.0 and cy - hy >= 1.0 and cy + hy <= size - 2.0


def _bg_row_speed(scene, yy_norm):
    """Horizontal parallax speed per row; nearer rows (larger depth) faster."""
    return scene.bg_speed * (0.3 + 0.7 * yy_norm)


def _bg_depth(scene, yy_norm):
    return 0.10 + 0.25 * yy_norm


def _bg_rgb(scene, xx, yy, t):
    size = scene.size
    if scene.background == "flat":
        return np.broadcast_to(scene.bg_color[:, None, None], (3, size, size)).copy()
    x_eff = xx.copy()
    if scene.background == "moving":
        yy_norm = yy / (size - 1.0)
        x_eff = xx - t * _bg_row_speed(scene, yy_norm)
    out = np.empty((3, size, size))
    (f1x, f1y), (f2x, f2y) = scene.bg_freqs
    for ch in range(3):
        p1, p2 = scene.bg_phases[ch]
        wave = 0.6 * np.sin(2 * np.pi * (f1x * x_eff + f1y * yy) + p1)
        wave += 0.4 * np.sin(2 * np.pi * (f2x * x_eff + f2y * yy) + p2)
        out[ch] = scene.bg_color[ch] + scene.bg_amp * wave
    return out


def render_scene(scene):
    """Rasterize every frame of a scene; returns a list of samples.

    Nearer objects overwrite farther ones; the mask is the union of salient
    objects. Flow holds the background motion outside objects and the
    analytic per-object displacement inside.
    """
    size = scene.size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    yy_norm = yy / (size - 1.0)
    samples = []
    for t in range(scene.frames):
        rgb = _bg_rgb(scene, xx, yy, t)
        depth = _bg_depth(scene, yy_norm)[None].copy()
        flow = np.zeros((2, size, size))
        if scene.background == "moving":
            flow[0] = _bg_row_speed(scene, yy_norm)
        gt = np.zeros((1, size, size))
        for obj in scene.clutter:
            mask = _object_mask(obj, t, xx, yy)
            rgb[:, mask] = obj.color[:, None]
            depth[0, mask] = obj.depth
            # clutter is part of the background: it keeps the background flow
        for obj in sorted(scene.objects, key=lambda o: o.depth):
            mask = _object_mask(obj, t, xx, yy)
            rgb[:, mask] = obj.color[:, None]
            depth[0, mask] = obj.depth
            u, v = _object_flow(obj, t, xx, yy)
            flow[0][mask] = u[mask]
            flow[1][mask] = v[mask]
            gt[0] = np.maximum(gt[0], mask.astype(np.float64))
        rgb = np.round(np.clip(rgb, 0.0, 1.0) * 255.0) / 255.0
        depth = np.round(np.clip(depth, 0.0, 1.0) * 255.0) / 255.0
        flow = flow.astype(np.float32).astype(np.float64)
        samples.append(TrimodalSample(rgb=rgb, depth=depth, flow=flow, gt=gt))
    return samples


def _validate_samples(scene, samples):
    size = scene.size
    for obj in scene.objects:
        for t in range(scene.frames + 1):  # +1 keeps the last frame's flow in-bounds
            if not _object_in_bounds(obj, t, size):
                return f"object leaves the frame at step {t}"
    for t, s in enumerate(samples):
        cov = s.gt.mean()
        if not MIN_COVERAGE <= cov <= MAX_COVERAGE:
            return f"mask coverage {cov:.3f} at frame {t} outside [{MIN_COVERAGE}, {MAX_COVERAGE}]"
    return None


def _sample_scene(spec, rng):
    size = spec.size
    bg_color = rng.uniform(0.35, 0.55, size=3)
    objects = []
    depth_levels = 0.60 + 0.12 * rng.permutation(3)[: spec.n_objects] + rng.uniform(0.0, 0.03)
    for i in range(spec.n_objects):
        half = rng.uniform(0.08, 0.16, size=2) * size
        margin = half.max() * (1.06 ** spec.frames) + spec.speed * spec.frames + 2
        margin = min(margin, size / 2.0 - 2.0)
        center = rng.uniform(margin, size - margin, size=2)
        if spec.speed > 0:
            velocity = rng.uniform(-spec.speed, spec.speed, size=2)
        else:
            velocity = np.zeros(2)
        direction = rng.uniform(-1.0, 1.0, size=3)
        direction /= max(np.abs(direction).max(), 1e-9)
        color = np.clip(bg_color + spec.contrast * 0.5 * direction + spec.contrast * 0.25, 0.0, 1.0)
        objects.append(
            SceneObject(
                kind=OBJECT_KINDS[int(rng.integers(len(OBJECT_KINDS)))],
                center=tuple(center),
                half_extents=tuple(half),
                velocity=tuple(velocity),
                growth=float(rng.uniform(0.99, 1.01)) if spec.speed > 0 else 1.0,
                color=color,
                depth=float(depth_levels[i]),
            )
        )
    clutter = []
    if spec.background == "cluttered":
        for _ in range(int(rng.integers(3, 6))):
            half = rng.uniform(0.04, 0.10, size=2) * size
            center = rng.uniform(half.max() + 1, size - half.max() - 2, size=2)
            shade = rng.uniform(-1.0, 1.0, size=3)
            clutter.append(
                SceneObject(
                    kind=OBJECT_KINDS[int(rng.integers(len(OBJECT_KINDS)))],
                    center=tuple(center),
                    half_extents=tuple(half),
                    velocity=(0.0, 0.0),
                    growth=1.0,
                    color=np.clip(bg_color + spec.contrast * 0.5 * shade, 0.0, 1.0),
                    depth=float(rng.uniform(0.28, 0.38)),
                )
            )
    return Scene(
        size=size,
        frames=spec.frames,
        background=spec.background,
        bg_color=bg_color,
        bg_phases=rng.uniform(0, 2 * np.pi, size=(3, 2)),
        bg_freqs=rng.uniform(0.02, 0.08, size=(2, 2)),
        bg_amp=0.06,
        bg_speed=float(rng.uniform(0.5, 1.5)) if spec.background == "moving" else 0.0,
        clutter=clutter,
        objects=objects,
    )


def generate_clip(spec):
    """Render a clip for a spec; identical specs give bit-identical clips.

    Layouts are drawn from the spec's seed until one satisfies the bounds and
    coverage constraints; a spec whose motion cannot stay inside the frame is
    rejected with the last failure reason.
    """
    rng = np.random.default_rng(spec.seed)
    reason = "no attempt made"
    for _ in range(MAX_LAYOUT_ATTEMPTS):
        scene = _sample_scene(spec, rng)
        samples = render_scene(scene)
        reason = _validate_samples(scene, samples)
        if reason is None:
            return samples
    raise ConfigError(f"cannot realize clip spec {spec}: {reason}")


# ---------------------------------------------------------------------------
# flow color coding


def _make_color_wheel():
    ry, yg, gc, cb, bm, mr = 15, 6, 4, 11, 13, 6
    n = ry + yg + gc + cb + bm + mr
    wheel = np.zeros((n, 3))
    col = 0
    wheel[col : col + ry, 0] = 1.0
    wheel[col : col + ry, 1] = np.arange(ry) / ry
    col += ry
    wheel[col : col + yg, 0] = 1.0 - np.arange(yg) / yg
    wheel[col : col + yg, 1] = 1.0
    col += yg
    wheel[col : col + gc, 1] = 1.0
    wheel[col : col + gc, 2] = np.arange(gc) / gc
    col += gc
    wheel[col : col + cb, 1] = 1.0 - np.arange(cb) / cb
    wheel[col : col + cb, 2] = 1.0
    col += cb
    wheel[col : col + bm, 2] = 1.0
    wheel[col : col + bm, 0] = np.arange(bm) / bm
    col += bm
    wheel[col : col + mr, 2] = 1.0 - np.arange(mr) / mr
    wheel[col : col + mr, 0] = 1.0
    return wheel


_WHEEL = _make_color_wheel()


def flow_to_color(flow, max_mag=FLOW_COLOR_MAX_MAG):
    """Map a (2, H, W) flow field to (3, H, W) RGB in [0, 1].

    Direction selects the hue around a fixed color wheel and magnitude
    (normalized by a fixed maximum, keeping the coding identical across
    clips) desaturates toward white at zero motion.
    """
    u = flow[0] / max_mag
    v = flow[1] / max_mag
    rad = np.minimum(np.sqrt(u * u + v * v), 1.0)
    angle = np.arctan2(-v, -u) / np.pi  # in [-1, 1]
    n = _WHEEL.shape[0]
    fk = (angle + 1.0) / 2.0 * (n - 1)
    k0 = np.floor(fk).astype(int)
    k1 = (k0 + 1) % n
    frac = fk - k0
    out = np.empty((3,) + flow.shape[1:])
    for ch in range(3):
        c0 = _WHEEL[k0, ch]
        c1 = _WHEEL[k1, ch]
        col = (1.0 - frac) * c0 + frac * c1
        out[ch] = 1.0 - rad * (1.0 - col)
    return out


# ---------------------------------------------------------------------------
# pixel-perfect warp check helper (used by tests and the generator's oracle)


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


# ---------------------------------------------------------------------------
# file formats


def _write_pnm(path, planes, magic):
    """planes: uint8 (H, W) for P5 or (H, W, 3) for P6."""
    h, w = planes.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(planes.tobytes())


def _check_size(path, w, h, size):
    if (w, h) != (size, size):
        raise DataError(f"{path}: header says {w}x{h}, the clip is {size}x{size}")


def _read_pnm(path, magic, size):
    """A ``size`` x ``size`` P5 (H, W) or P6 (H, W, 3) uint8 image."""
    raw = read_bytes(path)
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated header at byte {start}")
        tokens.append(raw[start:pos])
    if tokens[0] != magic.encode():
        raise DataError(f"{path}: expected {magic} magic at byte 0, got {tokens[0]!r}")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise DataError(f"{path}: non-numeric header field near byte {pos}") from None
    _check_size(path, w, h, size)
    if maxval != 255:
        raise DataError(f"{path}: unsupported max value {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 3 if magic == "P6" else 1
    expected = w * h * channels
    payload = raw[pos : pos + expected]
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} pixel bytes at byte {pos}, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    return arr.reshape((h, w, 3) if channels == 3 else (h, w))


def write_flo(path, flow):
    """flow: (2, H, W) float; stored as interleaved little-endian float32."""
    h, w = flow.shape[1], flow.shape[2]
    inter = np.empty((h, w, 2), dtype="<f4")
    inter[:, :, 0] = flow[0]
    inter[:, :, 1] = flow[1]
    with open(path, "wb") as fh:
        fh.write(b"PIEH")
        fh.write(struct.pack("<ii", w, h))
        fh.write(inter.tobytes())


def read_flo(path, size):
    """A ``size`` x ``size`` flow field as (2, H, W) float64."""
    raw = read_bytes(path)
    if raw[:4] != b"PIEH":
        raise DataError(f"{path}: bad flow magic at byte 0: {raw[:4]!r}")
    if len(raw) < 12:
        raise DataError(f"{path}: truncated flow header at byte {len(raw)}")
    w, h = struct.unpack("<ii", raw[4:12])
    _check_size(path, w, h, size)
    expected = w * h * 2 * 4
    if len(raw) - 12 != expected:
        raise DataError(f"{path}: expected {expected} payload bytes at byte 12, got {len(raw) - 12}")
    inter = np.frombuffer(raw[12:], dtype="<f4").reshape(h, w, 2)
    return np.stack([inter[:, :, 0], inter[:, :, 1]]).astype(np.float64)


# ---------------------------------------------------------------------------
# dataset directories


@dataclass
class Clip:
    name: str
    spec: ClipSpec
    samples: list


def write_dataset(clips, out_dir):
    """Write clips under ``out_dir``, one subdirectory per clip, then the
    manifest naming them in order; a write cut short leaves no manifest."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest)
    entries = []
    for clip in clips:
        base = os.path.join(out_dir, clip.name)
        for sub in ("rgb", "gt", "depth", "flow"):
            os.makedirs(os.path.join(base, sub), exist_ok=True)
        for i, s in enumerate(clip.samples):
            rgb8 = np.round(s.rgb * 255.0).astype(np.uint8).transpose(1, 2, 0)
            _write_pnm(os.path.join(base, "rgb", f"{i:04d}.ppm"), np.ascontiguousarray(rgb8), "P6")
            _write_pnm(
                os.path.join(base, "gt", f"{i:04d}.pgm"),
                (s.gt[0] * 255.0).astype(np.uint8),
                "P5",
            )
            _write_pnm(
                os.path.join(base, "depth", f"{i:04d}.pgm"),
                np.round(s.depth[0] * 255.0).astype(np.uint8),
                "P5",
            )
            write_flo(os.path.join(base, "flow", f"{i:04d}.flo"), s.flow)
        entries.append({"name": clip.name, "frames": len(clip.samples), "spec": asdict(clip.spec)})
    write_json(manifest, {"clips": entries})


def _read_manifest(data_dir):
    """(name, clip directory, frame indices, spec) for each manifest entry."""
    return read_json(
        os.path.join(data_dir, "manifest.json"),
        lambda m: [
            (e["name"], os.path.join(data_dir, e["name"]), range(e["frames"]), ClipSpec.from_dict(e["spec"]))
            for e in m["clips"]
        ],
    )


def _read_mask(base, i, size):
    """Frame ``i``'s mask as a (1, size, size) binary {0, 1} plane."""
    gt8 = _read_pnm(os.path.join(base, "gt", f"{i:04d}.pgm"), "P5", size)
    if np.count_nonzero((gt8 != 0) & (gt8 != 255)):
        bad = np.setdiff1d(np.unique(gt8), [0, 255])
        raise DataError(f"{base}/gt/{i:04d}.pgm: non-binary values {bad.tolist()}")
    return (gt8[None] == 255).astype(np.float64)


def read_dataset(data_dir):
    clips = []
    for name, base, frames, spec in _read_manifest(data_dir):
        samples = []
        for i in frames:
            rgb8 = _read_pnm(os.path.join(base, "rgb", f"{i:04d}.ppm"), "P6", spec.size)
            gt = _read_mask(base, i, spec.size)
            depth8 = _read_pnm(os.path.join(base, "depth", f"{i:04d}.pgm"), "P5", spec.size)
            flow = read_flo(os.path.join(base, "flow", f"{i:04d}.flo"), spec.size)
            samples.append(
                TrimodalSample(
                    rgb=rgb8.transpose(2, 0, 1).astype(np.float64) / 255.0,
                    depth=depth8[None].astype(np.float64) / 255.0,
                    flow=flow,
                    gt=gt,
                )
            )
        clips.append(Clip(name=name, spec=spec, samples=samples))
    return clips


def read_masks(data_dir):
    """(name, [(H, W) binary mask per frame]) for each clip: the manifest and
    the masks only, without decoding RGB, depth or flow."""
    clips = _read_manifest(data_dir)
    return [(name, [_read_mask(base, i, spec.size)[0] for i in frames]) for name, base, frames, spec in clips]


def build_dataset(specs):
    """Generate one clip per spec, named clip00, clip01, ..."""
    return [Clip(name=f"clip{i:02d}", spec=spec, samples=generate_clip(spec)) for i, spec in enumerate(specs)]


# ---------------------------------------------------------------------------
# preset clip suites for the scaled experiments


def preset_specs(name):
    """Named clip-spec suites.

    ``overfit``: one bright, easy clip for the memorization check.
    ``train5``: a mixed-difficulty training set; two clips have nearly
    invisible objects in RGB but strong depth plateaus.
    ``heldout3``: evaluation clips where RGB contrast is near zero, objects
    are static (flow is silent), and only depth separates the object.
    """
    if name == "overfit":
        return [ClipSpec(seed=101, frames=8, size=64, n_objects=1, background="flat", contrast=0.9, speed=2.0)]
    if name == "train5":
        return [
            ClipSpec(seed=201, frames=6, size=64, n_objects=1, background="flat", contrast=0.9, speed=2.0),
            ClipSpec(seed=202, frames=6, size=64, n_objects=2, background="textured", contrast=0.7, speed=1.5),
            ClipSpec(seed=203, frames=6, size=64, n_objects=1, background="moving", contrast=0.6, speed=2.0),
            ClipSpec(seed=204, frames=6, size=64, n_objects=1, background="textured", contrast=0.05, speed=0.0),
            ClipSpec(seed=205, frames=6, size=64, n_objects=2, background="cluttered", contrast=0.06, speed=0.0),
        ]
    if name == "heldout3":
        return [
            ClipSpec(seed=301, frames=4, size=64, n_objects=1, background="textured", contrast=0.05, speed=0.0),
            ClipSpec(seed=302, frames=4, size=64, n_objects=2, background="cluttered", contrast=0.06, speed=0.0),
            ClipSpec(seed=303, frames=4, size=64, n_objects=1, background="textured", contrast=0.04, speed=0.0),
        ]
    raise ConfigError(f"unknown preset {name!r}; expected overfit, train5, or heldout3")
