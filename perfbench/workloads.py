"""The four benchmark workloads.

Each is a closed loop in one process: the next operation starts when the
previous one returns. A workload sets up its inputs from the seed, runs whole
rounds of its operations until the run length and its minimum operation count
are both reached, and checks its outputs after the timed loop.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

from trisal import cli
from trisal import data as D
from trisal import model as M

import checks
import oracles
import spans

# Central-difference steps, tried in turn. A parameter upstream of a ReLU
# moves many pre-activations at once, and a step of 1e-5 can carry one across
# the kink (seen: rel err 1.8e-3 at 1e-5, 6e-10 at 1e-6, same coordinate).
# A coordinate passes at the first step whose interval holds no kink; a wrong
# gradient matches at none of them.
FD_STEPS = (1e-6, 1e-7, 1e-8)


@dataclasses.dataclass
class Round:
    """One round of a timed loop."""

    latencies: list  # seconds per timed operation
    items: int  # samples or frames those operations processed
    busy: float  # seconds of operation time
    units: int  # what per-layer metrics are counted per: train steps run, clips or frames
    traced: bool = False
    failed: int = 0
    outputs: object = None


@dataclasses.dataclass
class Phase:
    """The rounds of one timed loop. End-to-end figures come from the
    untraced rounds; in a traced run every second round is traced."""

    rounds: list

    def _of(self, traced):
        return [r for r in self.rounds if r.traced == traced]

    @property
    def latencies(self):
        return [x for r in self._of(False) for x in r.latencies]

    @property
    def items(self):
        return sum(r.items for r in self._of(False))

    @property
    def busy(self):
        return sum(r.busy for r in self._of(False))

    @property
    def traced(self):
        """The traced rounds taken together, as one Round."""
        rounds = self._of(True)
        return Round(
            [x for r in rounds for x in r.latencies],
            sum(r.items for r in rounds),
            sum(r.busy for r in rounds),
            sum(r.units for r in rounds),
            True,
        )

    @property
    def attempted(self):
        return sum(len(r.latencies) for r in self.rounds)

    @property
    def failed(self):
        return sum(r.failed for r in self.rounds)

    def overhead_pct(self):
        """Median over adjacent (untraced, traced) round pairs of the traced
        round's operation time over the untraced one's, minus 1, so that the
        host's drift over the run cancels out."""
        pairs = zip(self.rounds, self.rounds[1:])
        ratios = [b.busy / a.busy for a, b in pairs if b.traced and not a.traced]
        return 100.0 * (statistics.median(ratios) - 1.0)

    def done(self, min_ops, seconds, tracing):
        """Enough untraced operations and operation time; a traced loop also
        ends on a traced round, so that every untraced round has its pair."""
        enough = len(self.latencies) >= min_ops and self.busy >= seconds
        return enough and (not tracing or self.rounds[-1].traced)


def _seed_rng(*keys):
    return np.random.default_rng([k % 2**32 for k in keys])


def _samples(clips):
    return [s for c in clips for s in c.samples]


def _read_pgm(path):
    """8-bit P5 image as floats in [0, 1]; the oracles' own reader."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", raw)  # one whitespace byte ends the header
    if header is None:
        raise ValueError(f"{path}: not an 8-bit P5 image")
    w, h = int(header.group(1)), int(header.group(2))
    return np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=header.end()).reshape(h, w) / 255.0


# ---------------------------------------------------------------------------
# training


def _fit_timed(model, samples, cfg, after_step, on_first=None):
    """``fit`` with each step's latency, the time from one step's end to the
    next step's end, passed to ``after_step(step, seconds)``, which returns
    whether to go on. The callbacks' own work is not counted."""
    mark = [0.0]

    def on_step(step, loss):
        dt = time.perf_counter() - mark[0]
        if step == 0 and on_first is not None:
            on_first(model)
        go = after_step(step, dt)
        mark[0] = time.perf_counter()
        return go

    mark[0] = time.perf_counter()
    return [r[1] for r in M.fit(model, samples, cfg, on_step=on_step)]


def _grad_probe(rng, n_random):
    """Records, at the end of the first step, the gradient of the finest head's
    bias and the largest-magnitude coordinate of ``n_random`` seeded parameter
    tensors."""
    picked = {}

    def probe(model):
        params = list(model.named_parameters())
        names = ["heads.0.bias"] + [params[i][0] for i in rng.choice(len(params), n_random, replace=False)]
        grads = dict(params)
        for name in names:
            g = grads[name].grad.reshape(-1)
            i = int(np.argmax(np.abs(g)))
            picked[(name, i)] = float(g[i])

    return picked, probe


def _check_training(cfg, samples, losses, grads, label):
    """First-step loss against the numpy recomputation, and the recorded
    gradient coordinates against central differences, on a fresh model built
    from the same config (so the same initial weights and first batch)."""
    model = M.build(cfg)
    idx = np.random.default_rng(cfg.seed + 1).integers(0, len(samples), size=cfg.batch_size)
    rgb, depth, flow, gt = M.make_batch(samples, idx)
    model.train()

    def side_outputs():
        return [o.data for o in model(rgb, depth, flow)]

    failures = checks.first_loss(losses[0], side_outputs(), gt.data, label)
    params = dict(model.named_parameters())
    for coord, analytic in grads.items():
        flat = params[coord[0]].data.reshape(-1)
        orig = flat[coord[1]]
        for step in FD_STEPS:
            flat[coord[1]] = orig + step
            up = oracles.total_loss(side_outputs(), gt.data)
            flat[coord[1]] = orig - step
            down = oracles.total_loss(side_outputs(), gt.data)
            flat[coord[1]] = orig
            miss = checks.gradients({coord: analytic}, {coord: (up - down) / (2 * step)}, f"{label} step {step:g}")
            if not miss:
                break
        failures += miss
    return failures


def _rounds(run_round, min_ops, seconds, tracer):
    """One untimed warm-up round, then whole rounds until ``min_ops``
    untraced operations and ``seconds`` of their operation time. With a
    tracer, rounds alternate untraced and traced. ``run_round(traced)``
    returns a Round; returns the Phase."""
    run_round(False)
    if tracer is not None:
        tracer.start_phase()
    phase = Phase([])
    switch = spans.Switch(tracer)
    try:
        while not phase.done(min_ops, seconds, tracer is not None):
            switch.set(len(phase.rounds) % 2 == 1)
            phase.rounds.append(run_round(switch.on))
    finally:
        switch.set(False)
    return phase


def _train_data():
    # In memory: disk I/O in a set-up this short made setup_s swing by 30-40%
    # from run to run; infer-clips and score-maps measure the dataset files.
    return _samples(D.build_dataset(D.preset_specs("train5")))


class TrainFull:
    """``fit`` on the Full variant at the default ModelConfig on train5; the
    model is trained on from the seed's initial weights for the whole run.
    One operation, and one round, is one step."""

    name = "train-full"
    unit = "step"
    min_ops = 40  # timed steps; p75 then has ten steps beyond it
    warmup = 2  # the first steps fault in the working memory; not timed
    loss_window = 5  # train_loss_end: mean over steps 35..39

    def __init__(self, seed):
        self.seed = seed
        self.cfg = M.ModelConfig(seed=seed % 2**31, steps=10**6)

    def setup(self, workdir, trace):
        self.samples = _train_data()
        self.model = M.build(self.cfg)

    def measure(self, seconds, tracer=None):
        grads, probe = _grad_probe(_seed_rng(self.seed, 1), 2)
        phase = Phase([])
        switch = spans.Switch(tracer)

        def after_step(step, dt):
            t = step - self.warmup  # timed index of the step that just ended
            if t >= 0:
                phase.rounds.append(Round([dt], self.cfg.batch_size, dt, 1, switch.on))
            if switch.on:
                tracer.count_live_tapes()
            if t == -1 and tracer is not None:
                tracer.start_phase()
            done = t >= 0 and phase.done(self.min_ops, seconds, tracer is not None)
            switch.set(not done and t >= 0 and t % 2 == 0)  # odd timed steps are traced
            return not done

        try:
            self.losses = _fit_timed(self.model, self.samples, self.cfg, after_step, probe)
        finally:
            switch.set(False)
        self.grads = grads
        return phase

    def quality(self):
        return {"train_loss_end": float(np.mean(self.losses[self.min_ops - self.loss_window : self.min_ops])), "losses": self.losses}

    def check(self):
        failures = _check_training(self.cfg, self.samples, self.losses, self.grads, "Full")
        return failures + checks.losses_fall(self.losses[: self.min_ops], self.loss_window)


class AblateSmall:
    """All eight variants, each trained ``steps`` steps from the same seed at
    the acceptance-6 config on train5, as ``trisal ablate`` trains them. One
    round trains every variant once; runs are whole rounds. The first step of
    each variant is not timed (see ``steps``)."""

    name = "ablate-small"
    unit = "step"
    # ``trisal ablate`` trains 200 steps per variant, so its first steps,
    # which include make_optimizer and touch fresh memory, are 1 in 200.
    # Here they are kept out of the latencies and reported apart, as
    # first_step_ms; the other steps of a variant are steady ones, and four
    # of them per variant keep a round of all eight variants near 6 s.
    steps = 5
    min_ops = 128  # four rounds of 32 timed steps
    loss_window = 2

    def __init__(self, seed):
        self.seed = seed
        self.base = M.ModelConfig(width=8, cp_width=8, batch_size=2, steps=self.steps, seed=seed % 2**31)

    def setup(self, workdir, trace):
        """The data and the eight models; the warm-up round trains these
        models, every timed round builds its own."""
        self.samples = _train_data()
        self.prebuilt = {v: M.build(dataclasses.replace(self.base, variant=v)) for v in M.VARIANTS}

    def _round(self, tracer, traced):
        lat, first, results = [], [], {}
        for i, variant in enumerate(M.VARIANTS):
            cfg = dataclasses.replace(self.base, variant=variant)
            grads, probe = _grad_probe(_seed_rng(self.seed, 2, i), 1)
            model = self.prebuilt.pop(variant, None) or M.build(cfg)
            step_lat = []

            def after_step(step, dt):
                step_lat.append(dt)
                if traced:
                    tracer.count_live_tapes()
                return True

            losses = _fit_timed(model, self.samples, cfg, after_step, probe)
            first.append(step_lat[0])
            lat += step_lat[1:]
            results[variant] = (cfg, losses, grads)
        n = len(M.VARIANTS) * self.steps
        return Round(lat, len(lat) * self.base.batch_size, sum(lat), n, traced, outputs=(results, first))

    def measure(self, seconds, tracer=None):
        phase = _rounds(lambda traced: self._round(tracer, traced), self.min_ops, seconds, tracer)
        self.first_steps = [x for r in phase.rounds if not r.traced for x in r.outputs[1]]
        self.first_round, last = phase.rounds[0].outputs[0], phase.rounds[-1].outputs[0]
        self.rounds_equal = [last[v][1] for v in M.VARIANTS] == [self.first_round[v][1] for v in M.VARIANTS]
        return phase

    def quality(self):
        ends = [np.mean(losses[-self.loss_window :]) for _, losses, _ in self.first_round.values()]
        return {
            "train_loss_end": float(np.mean(ends)),
            "first_step_p50_ms": statistics.median(self.first_steps) * 1e3,
            "first_step_ms": [x * 1e3 for x in self.first_steps],
        }

    def check(self):
        failures = [] if self.rounds_equal else ["the first and the last timed round gave different losses"]
        for variant, (cfg, losses, grads) in self.first_round.items():
            failures += _check_training(cfg, self.samples, losses, grads, variant)
            if not all(np.isfinite(losses)):
                failures.append(f"{variant}: non-finite loss")
        return failures


# ---------------------------------------------------------------------------
# inference

PREP_STEPS = 2


def prepare_checkpoint(workdir, seed, trace):
    """Train the Full model PREP_STEPS steps on train5, save it, and save the
    saved model's own prediction of the first heldout3 clip. Runs in a child
    process so the training's memory does not count in the predict process."""
    tracer = spans.Tracer() if trace else None
    patches = spans.instrument(tracer) if trace else contextlib.ExitStack()
    samples = _samples(D.read_dataset(os.path.join(workdir, "train5")))
    cfg = M.ModelConfig(seed=seed % 2**31, steps=PREP_STEPS)
    model = M.build(cfg)
    M.fit(model, samples, cfg)
    M.save_checkpoint(os.path.join(workdir, "checkpoint"), model, step=PREP_STEPS)
    patches.close()
    if tracer is not None:
        tracer.write(os.path.join(workdir, "child_trace.json"), {"counters": dict(tracer.counters)})
    clip = D.read_dataset(os.path.join(workdir, "heldout3"))[0]
    np.save(os.path.join(workdir, "reference.npy"), _predict_clip(model, clip))


def _predict_clip(model, clip):
    rgb, depth, flow, _ = M.make_batch(clip.samples, range(len(clip.samples)))
    return M.predict(model, rgb, depth, flow)


class InferClips:
    """``predict`` of one clip per call over the train5 and heldout3 clips with
    a Full default-config model, trained a few steps, saved and reloaded."""

    name = "infer-clips"
    unit = "clip"
    min_ops = 104  # 13 rounds of 8 clips

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir, trace):
        os.makedirs(workdir)
        D.write_dataset(D.build_dataset(D.preset_specs("train5")), os.path.join(workdir, "train5"))
        D.write_dataset(D.build_dataset(D.preset_specs("heldout3")), os.path.join(workdir, "heldout3"))
        run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
        subprocess.run(
            [sys.executable, run_py, "--prepare-checkpoint", workdir, "--seed", str(self.seed), "--trace", str(int(trace))],
            check=True,
            timeout=170,
        )
        self.model, _ = M.load_checkpoint(os.path.join(workdir, "checkpoint"))
        train = D.read_dataset(os.path.join(workdir, "train5"))
        self.clips = train + D.read_dataset(os.path.join(workdir, "heldout3"))
        self.reference = np.load(os.path.join(workdir, "reference.npy"))
        self.reference_clip = len(train)  # the first heldout3 clip
        self.child_trace = os.path.join(workdir, "child_trace.json")

    def _round(self, traced):
        """Latencies are per frame of each clip: the clips have 4 or 6
        frames, and a median over whole clips falls between the two groups."""
        lat, busy, preds = [], 0.0, []
        for clip in self.clips:
            t0 = time.perf_counter()
            preds.append(_predict_clip(self.model, clip))
            dt = time.perf_counter() - t0
            lat.append(dt / len(clip.samples))
            busy += dt
        return Round(lat, sum(len(c.samples) for c in self.clips), busy, len(lat), traced, outputs=preds)

    def measure(self, seconds, tracer=None):
        phase = _rounds(self._round, self.min_ops, seconds, tracer)
        self.first, self.last = phase.rounds[0].outputs, phase.rounds[-1].outputs
        return phase

    def quality(self):
        errs = [np.abs(p[:, 0] - np.stack([s.gt[0] for s in c.samples])).mean() for p, c in zip(self.last, self.clips)]
        return {"predict_mae": float(np.mean(errs))}

    def check(self):
        failures = []
        for i, (a, b) in enumerate(zip(self.first, self.last)):
            failures += checks.in_unit_range(b, f"clip {i}")
            failures += checks.identical(a, b, f"clip {i} first vs last round")
        for i in (0, len(self.clips) - 1):
            clip = self.clips[i]
            singles = np.concatenate(
                [_predict_clip(self.model, dataclasses.replace(clip, samples=[s])) for s in clip.samples]
            )
            failures += checks.batch_independent(self.last[i], singles, f"clip {i}")
        failures += checks.identical(self.last[self.reference_clip], self.reference, "reloaded vs saved model")
        return failures


# ---------------------------------------------------------------------------
# scoring


SCORE_SIZE = 256
SCORE_FRAMES = 4


def score_specs(seed):
    """One 256x256 clip per background and object count (12 clips)."""
    rng = _seed_rng(seed, 3)
    return [
        D.ClipSpec(
            seed=int(rng.integers(2**31)),
            frames=SCORE_FRAMES,
            size=SCORE_SIZE,
            n_objects=n,
            background=bg,
            contrast=float(rng.uniform(0.3, 1.0)),
            speed=float(rng.uniform(0.5, 3.0)),
        )
        for bg in D.BACKGROUNDS
        for n in (1, 2, 3)
    ]


def _blur(img, radius):
    """Separable box blur with edge replication."""
    k = 2 * radius + 1
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        c = np.cumsum(np.pad(img, pad, mode="edge"), axis=axis)
        c = np.insert(c, 0, 0.0, axis=axis)
        img = (np.take(c, np.arange(k, c.shape[axis]), axis=axis) - np.take(c, np.arange(c.shape[axis] - k), axis=axis)) / k
    return img


def make_prediction(mask, rng):
    """Seeded imperfect saliency map for a mask: box blur of radius 1-4 px,
    affine squash into [0.1, 0.9], Gaussian noise (sigma 0.02-0.10), clipped
    and quantized to 8 bits."""
    soft = _blur(mask, int(rng.integers(1, 5)))
    noisy = 0.1 + 0.8 * soft + rng.normal(0.0, rng.uniform(0.02, 0.10), mask.shape)
    return np.round(np.clip(noisy, 0.0, 1.0) * 255.0).astype(np.uint8)


def _write_eval_clip(root, clip, preds8):
    """A one-clip dataset plus its predictions, laid out for ``eval --pred-dir``."""
    D.write_dataset([clip], os.path.join(root, "data"))
    pred_dir = os.path.join(root, "pred", clip.name)
    os.makedirs(pred_dir)
    for i, p in enumerate(preds8):
        D._write_pnm(os.path.join(pred_dir, f"{i:04d}.pgm"), np.ascontiguousarray(p), "P5")


def trisal_eval(root):
    """``trisal eval --pred-dir`` on one eval clip directory, run as the
    command line runs it; its report goes to ``root/report``. Returns the
    exit code."""
    argv = ["eval", "--data", os.path.join(root, "data"), "--pred-dir", os.path.join(root, "pred")]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", os.path.join(root, "report")])


def read_report(root):
    """Per-sequence scores of the last ``trisal_eval`` of ``root``."""
    with open(os.path.join(root, "report", "report.json")) as fh:
        return json.load(fh)["per_sequence"]


class ScoreMaps:
    """``trisal eval --pred-dir`` of one 256x256 clip per call over twelve
    seeded clips, with predictions made from the masks by the benchmark."""

    name = "score-maps"
    unit = "clip"
    min_ops = 108  # 9 rounds of 12 clips

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir, trace):
        clips = D.build_dataset(score_specs(self.seed))
        self.roots = []
        for i, clip in enumerate(clips):
            rng = _seed_rng(self.seed, 4, i)
            root = os.path.join(workdir, clip.name)
            _write_eval_clip(root, clip, [make_prediction(s.gt[0], rng) for s in clip.samples])
            self.roots.append(root)
        self.planted = os.path.join(workdir, "planted")
        first = clips[0]
        _write_eval_clip(self.planted, first, [(s.gt[0] * 255).astype(np.uint8) for s in first.samples])

    def _round(self, traced):
        lat, failed = [], 0
        for root in self.roots:
            t0 = time.perf_counter()
            code = trisal_eval(root)
            lat.append((time.perf_counter() - t0) / SCORE_FRAMES)
            failed += code != 0
        frames = len(lat) * SCORE_FRAMES
        return Round(lat, frames, sum(lat) * SCORE_FRAMES, frames, traced, failed)

    def measure(self, seconds, tracer=None):
        return _rounds(self._round, self.min_ops, seconds, tracer)

    def quality(self):
        reports = [next(iter(read_report(root).values())) for root in self.roots]
        return {k: float(np.mean([r[k] for r in reports])) for k in ("mae", "max_f", "s_measure")}

    def check(self):
        failures = []
        rng = _seed_rng(self.seed, 5)
        for i in rng.choice(len(self.roots), 2, replace=False):
            root = self.roots[i]
            ((name, reported),) = read_report(root).items()
            frames = []
            for k in range(reported["frames"]):
                pred = _read_pgm(os.path.join(root, "pred", name, f"{k:04d}.pgm"))
                gt = (_read_pgm(os.path.join(root, "data", name, "gt", f"{k:04d}.pgm")) == 1.0).astype(np.float64)
                frames.append((pred, gt))
            failures += checks.metrics_match(reported, frames, f"clip {name}")
        if trisal_eval(self.planted) != 0:
            return failures + ["eval of the planted clip failed"]
        (planted,) = read_report(self.planted).values()
        failures += checks.perfect_scores(planted, "planted prediction = mask")
        return failures


WORKLOADS = {w.name: w for w in (TrainFull, AblateSmall, InferClips, ScoreMaps)}
