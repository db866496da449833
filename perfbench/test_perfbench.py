"""Tests of the benchmark itself: every correctness check passes on the
program's real outputs and fails on a deliberately corrupted one.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from trisal import data as D  # noqa: E402
from trisal import model as M  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = M.ModelConfig(input_size=32, width=4, cp_width=8, batch_size=2, steps=2, seed=3)


@pytest.fixture(scope="module")
def tiny_samples():
    return D.generate_clip(D.ClipSpec(seed=7, frames=3, size=32, n_objects=1, contrast=0.8))


@pytest.fixture(scope="module")
def trained(tiny_samples):
    grads, probe = workloads._grad_probe(np.random.default_rng(0), 2)
    losses = workloads._fit_timed(M.build(TINY), tiny_samples, TINY, lambda step, dt: True, probe)
    return losses, grads


# -- training checks ----------------------------------------------------------


def test_training_checks_pass_on_program_outputs(tiny_samples, trained):
    losses, grads = trained
    assert workloads._check_training(TINY, tiny_samples, losses, grads, "tiny") == []


def test_flipped_gradient_sign_fails(tiny_samples, trained):
    losses, grads = trained
    key = next(iter(grads))
    assert abs(grads[key]) > 1e-3
    flipped = {**grads, key: -grads[key]}
    assert workloads._check_training(TINY, tiny_samples, losses, flipped, "tiny")


def test_changed_loss_term_fails(tiny_samples):
    model = M.build(TINY)
    rgb, depth, flow, gt = M.make_batch(tiny_samples, [0, 1])
    outputs = model(rgb, depth, flow)
    sides = [o.data for o in outputs]
    levels = [float(l.data) for l in M.level_losses(outputs, gt)]
    assert checks.first_loss(float(M.loss_total(outputs, gt).data), sides, gt.data, "ok") == []
    weights = [1.0, 0.5, 0.25, 0.125, 0.125]  # deepest level weighted 1/8, not 1/16
    changed = sum(w * l for w, l in zip(weights, levels))
    assert checks.first_loss(changed, sides, gt.data, "changed")


def test_losses_fall():
    assert checks.losses_fall([3.0, 2.9, 2.8, 2.5, 2.4, 2.3], 2) == []
    assert checks.losses_fall([3.0, 2.9, 2.8, 2.9, 3.0, 3.1], 2)
    assert checks.losses_fall([3.0, 2.9, float("nan"), 2.5, 2.4, 2.3], 2)


# -- inference checks -------------------------------------------------------------


def test_inference_checks_pass_and_fail_on_one_pixel(tiny_samples, tmp_path):
    model = M.build(TINY)
    clip = D.Clip(name="c", spec=None, samples=tiny_samples)
    batched = workloads._predict_clip(model, clip)
    singles = np.concatenate(
        [workloads._predict_clip(model, dataclasses.replace(clip, samples=[s])) for s in tiny_samples]
    )
    assert checks.batch_independent(batched, singles, "ok") == []
    assert checks.in_unit_range(batched, "ok") == []
    M.save_checkpoint(str(tmp_path / "ck"), model)
    reloaded, _ = M.load_checkpoint(str(tmp_path / "ck"))
    assert checks.identical(workloads._predict_clip(reloaded, clip), batched, "ok") == []

    bad = batched.copy()
    bad[0, 0, 5, 5] += 1e-9
    assert checks.batch_independent(bad, singles, "bad")
    assert checks.identical(bad, batched, "bad")
    bad[0, 0, 5, 5] = 1.0 + 1e-9
    assert checks.in_unit_range(bad, "bad")


# -- scoring checks ------------------------------------------------------------------


@pytest.fixture(scope="module")
def scored_clip(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("score") / "clip")
    clip = D.build_dataset([D.ClipSpec(seed=11, frames=2, size=64, n_objects=2, background="cluttered")])[0]
    rng = np.random.default_rng(5)
    preds = [workloads.make_prediction(s.gt[0], rng) for s in clip.samples]
    workloads._write_eval_clip(root, clip, preds)
    frames = [(p / 255.0, s.gt[0]) for p, s in zip(preds, clip.samples)]
    return root, clip, preds, frames


def _score(root):
    assert workloads.trisal_eval(root) == 0
    (reported,) = workloads.read_report(root).values()
    return reported


def test_scores_match_oracles(scored_clip):
    root, clip, _, frames = scored_clip
    assert checks.metrics_match(_score(root), frames, "ok") == []


def test_one_perturbed_prediction_pixel_fails(scored_clip, tmp_path):
    root, clip, preds, frames = scored_clip
    bad = [p.copy() for p in preds]
    bad[1][10, 10] ^= 1  # one 8-bit level on one pixel
    workloads._write_eval_clip(str(tmp_path / "bad"), clip, bad)
    assert checks.metrics_match(_score(str(tmp_path / "bad")), frames, "bad")


def test_planted_perfect_prediction(scored_clip, tmp_path):
    _, clip, _, _ = scored_clip
    masks = [(s.gt[0] * 255).astype(np.uint8) for s in clip.samples]
    workloads._write_eval_clip(str(tmp_path / "planted"), clip, masks)
    assert checks.perfect_scores(_score(str(tmp_path / "planted")), "planted") == []
    masks[0][0, 0] = 255 - masks[0][0, 0]
    workloads._write_eval_clip(str(tmp_path / "flipped"), clip, masks)
    assert checks.perfect_scores(_score(str(tmp_path / "flipped")), "flipped")


def test_missing_prediction_is_a_failed_eval(scored_clip, tmp_path):
    _, clip, preds, _ = scored_clip
    root = str(tmp_path / "missing")
    workloads._write_eval_clip(root, clip, preds)
    os.remove(os.path.join(root, "pred", clip.name, "0001.pgm"))
    assert workloads.trisal_eval(root) == 3


def test_traced_eval_records_the_prediction_reads(scored_clip):
    root, clip, _, _ = scored_clip
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert workloads.trisal_eval(root) == 0
    top_reads = [s for s in tracer.spans if s[0] == "data.read" and s[1] == -1]
    assert len(top_reads) == 1 + len(clip.samples)  # read_dataset, then one read per prediction
    assert tracer.counters["frames.data.read"] == len(clip.samples)


def test_score_specs_cover_backgrounds_and_object_counts():
    specs = workloads.score_specs(123)
    assert {(s.background, s.n_objects) for s in specs} == {(b, n) for b in D.BACKGROUNDS for n in (1, 2, 3)}
    assert [s.seed for s in specs] == [s.seed for s in workloads.score_specs(123)]


def test_oracle_upsample_matches_program():
    x = np.random.default_rng(1).normal(size=(2, 1, 3, 5))
    from trisal import tensor as T

    assert np.allclose(oracles.upsample_x2(x), T.upsample_bilinear_x2(T.Tensor(x)).data, rtol=0, atol=1e-14)


# -- tracer -----------------------------------------------------------------------------


def test_self_time_and_outermost_totals():
    tr = spans.Tracer()
    tr.spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],  # nested call of the same function
        ["c", 0, 3.5, 6.0],  # overlaps b: covered once
    ]
    self_t = tr.self_times()
    assert self_t["a"] == pytest.approx(10.0 - 5.0)
    assert self_t["b"] == pytest.approx(2.0 + 1.0)
    seconds, calls = tr.outermost()
    assert seconds["b"] == pytest.approx(3.0) and calls["b"] == 1


def test_traced_step_attributes_backward_to_modules(tiny_samples):
    from trisal import tensor as T

    originals = (M.SaliencyModel.forward, T.conv2d, T.Tape, M.train_step)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        losses = workloads._fit_timed(M.build(TINY), tiny_samples, TINY, lambda step, dt: True)
    plain = workloads._fit_timed(M.build(TINY), tiny_samples, TINY, lambda step, dt: True)
    assert losses == plain  # tracing does not change the numbers
    layers = spans.summarize(tracer, len(losses), 0, 0.0)
    assert set(layers) == {name for name, _ in spans.per_layer_names()}
    assert layers["tensor.conv2d.calls"] > 0 and layers["tensor.conv2d.bwd_ms"] > 0
    for group in spans.MODULE_GROUPS:
        assert layers[f"{group}.fwd_ms"] > 0 and layers[f"{group}.bwd_ms"] > 0
    # The groups' backward covers every forward record; the loss's is the rest.
    groups_bwd = sum(layers[f"{g}.bwd_ms"] for g in spans.MODULE_GROUPS)
    assert groups_bwd < layers["tensor.backward_ms"]
    assert (M.SaliencyModel.forward, T.conv2d, T.Tape, M.train_step) == originals  # patches undone


def test_alternating_trace_traces_every_other_step(tiny_samples):
    """Tracing switched on and off between the steps of one fit: only the
    traced steps leave spans, and every live Tape is counted, traced or not."""
    tracer = spans.Tracer()
    switch = spans.Switch(tracer)
    traced = []

    def after_step(step, dt):
        traced.append(switch.on)
        if switch.on:
            tracer.count_live_tapes()
        switch.set(step % 2 == 0)
        return True

    cfg = dataclasses.replace(TINY, steps=4)
    try:
        losses = workloads._fit_timed(M.build(cfg), tiny_samples, cfg, after_step)
    finally:
        switch.set(False)
    assert traced == [False, True, False, True]
    assert losses == workloads._fit_timed(M.build(cfg), tiny_samples, cfg, lambda step, dt: True)
    assert sum(1 for s in tracer.spans if s[0] == "model.train_step") == 2
    assert tracer.counters["live_tapes"] >= 2  # the tape of each traced step is still alive


def test_phase_pairs_rounds_for_the_overhead():
    R = workloads.Round
    phase = workloads.Phase([R([1.0], 1, 1.0, 1), R([1.2], 1, 1.2, 1, True), R([2.0], 1, 2.0, 1), R([2.2], 1, 2.2, 1, True)])
    assert phase.overhead_pct() == pytest.approx(100 * (statistics.median([1.2, 1.1]) - 1))
    assert phase.latencies == [1.0, 2.0] and phase.traced.latencies == [1.2, 2.2] and phase.attempted == 4
    assert phase.done(2, 3.0, tracing=True) and not phase.done(3, 3.0, tracing=False)
    assert not workloads.Phase(phase.rounds[:3]).done(2, 3.0, tracing=True)  # must end on a traced round


# -- the benchmark's contract --------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
