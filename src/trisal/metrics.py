"""Saliency evaluation: mean absolute error, maximum F-measure over a
threshold sweep, and the structure measure.

The protocol is the field's fixed one, held in three module constants:
``BETA_SQ`` = 0.3 weighs precision in the F-measure, ``THRESHOLDS`` = 256
is the length of the threshold sweep, and ``ALPHA`` = 0.5 balances the
object and region terms of the structure measure.

Conventions, fixed here and mirrored by the test oracles:
- thresholds are the ``THRESHOLDS`` evenly spaced values k/T in [0, 1), and a
  pixel is foreground when pred is STRICTLY greater than the threshold (so an
  all-zero prediction has zero recall at every threshold);
- any 0/0 ratio in precision, recall, or F collapses to 0;
- structure measure: region statistics use population (N-normalized)
  variance; quadrant weights are each quadrant's share of the foreground;
  degenerate ground truth scores 1 - mean(pred) when empty and the
  object-similarity of the prediction when full; final value clamped to [0, 1].
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError, ShapeError, write_bytes, write_json

BETA_SQ = 0.3
ALPHA = 0.5
THRESHOLDS = 256


def _check_pair(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"prediction shape {pred.shape} != ground truth shape {gt.shape}")
    lo, hi = pred.min(), pred.max()  # NaN if any pixel is NaN
    if not np.isfinite(lo + hi):
        bad = np.count_nonzero(~np.isfinite(pred))
        raise NumericalError(f"prediction holds {bad} non-finite pixels (NaN or inf)")
    if lo < 0.0 or hi > 1.0:
        raise ContractError(f"prediction values outside [0, 1]: [{lo}, {hi}]")
    if not np.all((gt == 0.0) | (gt == 1.0)):
        raise ContractError("ground truth must be binary")
    return pred, gt


def mae(pred, gt):
    """Mean absolute difference between the saliency map and the mask."""
    pred, gt = _check_pair(pred, gt)
    d = pred - gt
    return float(np.abs(d, out=d).mean())


def _count_above(values, ts):
    """Number of ``values`` strictly greater than each threshold in ``ts``."""
    return (values.size - np.searchsorted(np.sort(values), ts, side="right")).astype(np.float64)


def max_f_measure(pred, gt):
    """(max F over thresholds, per-threshold precision, per-threshold recall).

    The per-threshold pixel counts come from the sorted values, in
    O(N log N + T log N); they are exact integers.
    """
    pred, gt = _check_pair(pred, gt)
    pred = pred.reshape(-1)
    fg = gt.reshape(-1) == 1.0
    n_fg = float(np.count_nonzero(fg))
    ts = np.arange(THRESHOLDS) / THRESHOLDS
    tp = _count_above(pred[fg], ts)
    pp = _count_above(pred, ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pp > 0, tp / pp, 0.0)
        recall = np.where(n_fg > 0, tp / max(n_fg, 1.0), 0.0)
        num = (1.0 + BETA_SQ) * precision * recall
        den = BETA_SQ * precision + recall
        f = np.where(den > 0, num / den, 0.0)
    return float(f.max()), precision, recall


def _object_similarity(x):
    m = x.mean()
    d = (x - m).ravel()
    s = np.sqrt(d @ d / d.size)  # population
    return 2.0 * m / (m * m + 1.0 + 2.0 * s)


def _region_similarity(x, y, n_fg):
    """Similarity of the prediction ``x`` and the binary mask ``y``, which holds
    ``n_fg`` foreground pixels, from dot products of the centred deviations."""
    n = x.size
    mx, my = x.mean(), n_fg / n
    dx, dy = (x - mx).ravel(), (y - my).ravel()
    vx, vy, cov = dx @ dx / n, dy @ dy / n, dx @ dy / n  # population
    num = 4.0 * mx * my * cov
    den = (mx * mx + my * my) * (vx + vy)
    if num == 0.0:
        return 1.0 if den == 0.0 else 0.0
    return num / den


def _mean_index(counts):
    """Mean index weighted by the integer ``counts``; the sums are exact, so it is
    the same float as the mean of the indices that ``np.nonzero`` lists."""
    return counts @ np.arange(counts.size) / counts.sum()


def s_measure(pred, gt):
    """Structure measure: object term + region term, balanced by ``ALPHA``."""
    pred, gt = _check_pair(pred, gt)
    fg = gt == 1.0
    rows, cols = np.count_nonzero(fg, axis=1), np.count_nonzero(fg, axis=0)
    total_fg = rows.sum()
    if total_fg == 0:
        return float(np.clip(1.0 - pred.mean(), 0.0, 1.0))
    if total_fg == fg.size:
        return float(np.clip(_object_similarity(pred), 0.0, 1.0))

    mu = total_fg / fg.size
    s_obj = mu * _object_similarity(pred[fg]) + (1.0 - mu) * _object_similarity(1.0 - pred[~fg])

    cy, cx = (int(np.floor(_mean_index(c) + 0.5)) for c in (rows, cols))
    top, left = rows[: cy + 1].sum(), cols[: cx + 1].sum()
    top_left = np.count_nonzero(fg[: cy + 1, : cx + 1])
    s_reg = 0.0
    for rs, cs, q in (
        (slice(0, cy + 1), slice(0, cx + 1), top_left),
        (slice(0, cy + 1), slice(cx + 1, None), top - top_left),
        (slice(cy + 1, None), slice(0, cx + 1), left - top_left),
        (slice(cy + 1, None), slice(cx + 1, None), total_fg - top - left + top_left),
    ):
        if q:  # a quadrant with no foreground, an empty one included, weighs 0
            s_reg += q / total_fg * _region_similarity(pred[rs, cs], gt[rs, cs], q)

    s = ALPHA * s_obj + (1.0 - ALPHA) * s_reg
    return float(np.clip(s, 0.0, 1.0))


# ---------------------------------------------------------------------------
# dataset-level evaluation


@dataclass
class MetricsReport:
    per_sequence: dict  # name -> {"s_measure", "max_f", "mae", "frames"}
    aggregate: dict  # {"s_measure", "max_f", "mae", "sequences"}

    def write_csv(self, path):
        text = io.StringIO()
        w = csv.writer(text)
        w.writerow(["sequence", "s_measure", "max_f", "mae"])
        for name in sorted(self.per_sequence):
            row = self.per_sequence[name]
            w.writerow([name, f"{row['s_measure']:.6f}", f"{row['max_f']:.6f}", f"{row['mae']:.6f}"])
        write_bytes(path, [text.getvalue().encode()])

    def write_json(self, path):
        write_json(path, {"aggregate": self.aggregate, "per_sequence": self.per_sequence})


def evaluate_sequences(sequences):
    """sequences: iterable of (name, [(pred, gt), ...]).

    Per-frame metrics are averaged within each sequence, then sequence means
    are averaged with equal weight; the result is independent of input order.
    """
    per_sequence = {}
    for name, frames in sequences:
        if not frames:
            raise ContractError(f"sequence {name!r} has no frames")
        if name in per_sequence:
            raise ContractError(f"duplicate sequence name {name!r}")
        vals = {"mae": [], "max_f": [], "s_measure": []}
        for pred, gt in frames:
            vals["mae"].append(mae(pred, gt))
            vals["max_f"].append(max_f_measure(pred, gt)[0])
            vals["s_measure"].append(s_measure(pred, gt))
        per_sequence[name] = {k: float(np.mean(v)) for k, v in vals.items()}
        per_sequence[name]["frames"] = len(frames)
    if not per_sequence:
        raise ContractError("no sequences to evaluate")
    names = sorted(per_sequence)
    aggregate = {
        k: float(np.mean([per_sequence[n][k] for n in names])) for k in ("s_measure", "max_f", "mae")
    }
    aggregate["sequences"] = len(names)
    return MetricsReport(per_sequence=per_sequence, aggregate=aggregate)
