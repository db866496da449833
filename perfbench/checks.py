"""Correctness checks run after each workload's timed loop. Each takes plain
numbers and arrays and returns a list of failure messages (empty = pass), so
the tests can feed it deliberately corrupted outputs."""

import math

import numpy as np

import oracles

LOSS_RTOL = 1e-9
GRAD_TOL = 1e-4  # acceptance criterion 1's tolerance for whole-model coordinates
# Batched and single-frame predictions run the same BLAS products on
# different shapes, so they may round differently in the last bit.
BATCH_ATOL = 1e-12
METRIC_TOL = {"mae": 1e-12, "max_f": 1e-12, "s_measure": 1e-9}  # criterion 3's oracle tolerances


def first_loss(program_loss, side_outputs, gt, label):
    """The loss fit reported for a step equals the numpy recomputation of
    BCE + soft-IoU, weighted 1..1/16, from that step's side-output arrays."""
    ref = oracles.total_loss(side_outputs, gt)
    if not abs(program_loss - ref) <= LOSS_RTOL * max(1.0, abs(ref)):
        return [f"{label}: first-step loss {program_loss!r} != numpy recomputation {ref!r}"]
    return []


def gradients(analytic, numeric, label):
    """Recorded gradient coordinates against central differences, with
    criterion 1's relative error |a - n| / max(1, |a|, |n|)."""
    failures = []
    for coord, a in analytic.items():
        n = numeric[coord]
        err = abs(a - n) / max(1.0, abs(a), abs(n))
        if not err <= GRAD_TOL:
            failures.append(f"{label}: gradient {coord} analytic {a!r} vs central difference {n!r} (rel err {err:.2e})")
    return failures


def losses_fall(losses, window):
    """Every loss is finite and the last ``window`` losses average below the first."""
    if not all(math.isfinite(v) for v in losses):
        return ["train loss is not finite at every step"]
    first, last = np.mean(losses[:window]), np.mean(losses[-window:])
    if not last < first:
        return [f"train loss did not fall: first {window} steps mean {first!r}, last {window} mean {last!r}"]
    return []


def in_unit_range(pred, label):
    if not (np.all(np.isfinite(pred)) and pred.min() >= 0.0 and pred.max() <= 1.0):
        return [f"{label}: prediction outside [0, 1]"]
    return []


def batch_independent(batched, singles, label):
    """Eval-mode predictions do not depend on the batch, up to rounding."""
    if batched.shape != singles.shape or not np.max(np.abs(batched - singles)) <= BATCH_ATOL:
        return [f"{label}: batched and frame-by-frame predictions differ by more than {BATCH_ATOL}"]
    return []


def identical(a, b, label):
    if a.shape != b.shape or not np.array_equal(a, b):
        diff = float(np.max(np.abs(a - b))) if a.shape == b.shape else float("nan")
        return [f"{label}: arrays differ (max abs diff {diff!r})"]
    return []


def metrics_match(reported, frames, label):
    """Per-sequence means reported by the program against the oracles on the
    same (pred, gt) frames."""
    failures = []
    ref = {
        "mae": np.mean([oracles.mae(p, g) for p, g in frames]),
        "max_f": np.mean([oracles.max_f(p, g) for p, g in frames]),
        "s_measure": np.mean([oracles.s_measure(p, g) for p, g in frames]),
    }
    for key, tol in METRIC_TOL.items():
        if not abs(reported[key] - ref[key]) <= tol:
            failures.append(f"{label}: {key} {reported[key]!r} != oracle {ref[key]!r}")
    return failures


def perfect_scores(reported, label):
    """A prediction equal to its mask scores exactly MAE 0, max-F 1 and S 1."""
    want = {"mae": 0.0, "max_f": 1.0, "s_measure": 1.0}
    return [f"{label}: {k} {reported[k]!r} != {v}" for k, v in want.items() if reported[k] != v]
