"""Reference computations written apart from trisal, in plain numpy and
Python, from the definitions the package documents. The correctness checks
compare the program's outputs against these."""

import math

import numpy as np

# Deep-supervision weights, finest side output first.
LEVEL_WEIGHTS = (1.0, 1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16)
PROB_CLAMP = 1e-7
IOU_EPS = 1.0


def upsample_x2(a):
    """Bilinear x2 on the last two axes, half-pixel centers, edges clamped,
    by gathering the two neighbours along each axis in turn."""
    for axis in (-2, -1):
        n = a.shape[axis]
        src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n - 1)
        frac = src - lo
        shape = [1] * a.ndim
        shape[axis] = 2 * n
        frac = frac.reshape(shape)
        a = np.take(a, lo, axis=axis) * (1.0 - frac) + np.take(a, hi, axis=axis) * frac
    return a


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def level_loss(logits, gt):
    """Binary cross-entropy (mean over pixels) plus soft-IoU with +1 smoothing,
    for one side output of logits brought up to the mask size."""
    while logits.shape[-1] < gt.shape[-1]:
        logits = upsample_x2(logits)
    p = np.clip(_sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
    bce = float(np.mean(-(gt * np.log(p) + (1.0 - gt) * np.log(1.0 - p))))
    inter = float(np.sum(p * gt))
    union = float(np.sum(p)) + float(np.sum(gt)) - inter
    return bce + 1.0 - (inter + IOU_EPS) / (union + IOU_EPS)


def total_loss(side_outputs, gt):
    """Weighted sum of the five level losses; ``side_outputs`` finest first."""
    return sum(w * level_loss(s, gt) for w, s in zip(LEVEL_WEIGHTS, side_outputs))


def mae(pred, gt):
    return math.fsum(np.abs(pred - gt).ravel().tolist()) / pred.size


def max_f(pred, gt, thresholds=256, beta_sq=0.3):
    """Max over t = k/thresholds of F_beta, with pred > t as foreground and
    every 0/0 ratio taken as 0."""
    fg = gt == 1.0
    n_fg = int(fg.sum())
    best = 0.0
    for k in range(thresholds):
        on = pred > k / thresholds
        tp = int(np.count_nonzero(on & fg))
        pp = int(np.count_nonzero(on))
        precision = tp / pp if pp else 0.0
        recall = tp / n_fg if n_fg else 0.0
        den = beta_sq * precision + recall
        f = (1.0 + beta_sq) * precision * recall / den if den > 0 else 0.0
        best = max(best, f)
    return best


def _object_score(values):
    m = float(np.mean(values))
    sd = math.sqrt(float(np.mean((values - m) ** 2)))
    return 2.0 * m / (m * m + 1.0 + 2.0 * sd)


def _ssim(x, y):
    mx, my = float(np.mean(x)), float(np.mean(y))
    vx = float(np.mean((x - mx) ** 2))
    vy = float(np.mean((y - my) ** 2))
    cov = float(np.mean((x - mx) * (y - my)))
    num = 4.0 * mx * my * cov
    den = (mx * mx + my * my) * (vx + vy)
    if num == 0.0:
        return 1.0 if den == 0.0 else 0.0
    return num / den


def s_measure(pred, gt, alpha=0.5):
    """Structure measure from its definition: object term over foreground and
    background, region term over the four quadrants split at the rounded
    mask centroid (centroid row and column belong to the upper-left)."""
    mu = float(gt.mean())
    if mu == 0.0:
        return min(max(1.0 - float(pred.mean()), 0.0), 1.0)
    if mu == 1.0:
        return min(max(_object_score(pred), 0.0), 1.0)
    s_obj = mu * _object_score(pred[gt == 1.0]) + (1.0 - mu) * _object_score(1.0 - pred[gt == 0.0])
    ys, xs = np.nonzero(gt)
    cy = math.floor(float(ys.mean()) + 0.5)
    cx = math.floor(float(xs.mean()) + 0.5)
    n_fg = float(gt.sum())
    s_reg = 0.0
    for rows in (slice(0, cy + 1), slice(cy + 1, gt.shape[0])):
        for cols in (slice(0, cx + 1), slice(cx + 1, gt.shape[1])):
            g = gt[rows, cols]
            if g.size == 0 or g.sum() == 0:
                continue
            s_reg += float(g.sum()) / n_fg * _ssim(pred[rows, cols], g)
    return min(max(alpha * s_obj + (1.0 - alpha) * s_reg, 0.0), 1.0)
