"""Metric tests: hand cases, properties, and independent from-definition
oracles coded with explicit loops (nothing shared with the library path)."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trisal import metrics as MT
from trisal.errors import ContractError, NumericalError, ShapeError


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# oracles


def oracle_mae(pred, gt):
    total = 0.0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            total += abs(pred[i, j] - gt[i, j])
    return total / (h * w)


def oracle_max_f(pred, gt, thresholds=256, beta_sq=0.3):
    h, w = pred.shape
    best = 0.0
    for k in range(thresholds):
        t = k / thresholds
        tp = fp = fn = 0
        for i in range(h):
            for j in range(w):
                hit = pred[i, j] > t
                if hit and gt[i, j] == 1.0:
                    tp += 1
                elif hit:
                    fp += 1
                elif gt[i, j] == 1.0:
                    fn += 1
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        den = beta_sq * p + r
        f = (1 + beta_sq) * p * r / den if den > 0 else 0.0
        best = max(best, f)
    return best


def _oracle_object(vals):
    n = len(vals)
    m = sum(vals) / n
    var = sum((v - m) ** 2 for v in vals) / n
    return 2.0 * m / (m * m + 1.0 + 2.0 * math.sqrt(var))


def _oracle_region(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((v - mx) ** 2 for v in xs) / n
    vy = sum((v - my) ** 2 for v in ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / n
    num = 4.0 * mx * my * cov
    den = (mx * mx + my * my) * (vx + vy)
    if num == 0.0:
        return 1.0 if den == 0.0 else 0.0
    return num / den


def oracle_s_measure(pred, gt, alpha=0.5):
    h, w = gt.shape
    fg = [(i, j) for i in range(h) for j in range(w) if gt[i, j] == 1.0]
    if not fg:
        return min(max(1.0 - pred.mean(), 0.0), 1.0)
    if len(fg) == h * w:
        return min(max(_oracle_object([pred[i, j] for i, j in fg]), 0.0), 1.0)
    mu = len(fg) / (h * w)
    fg_vals = [pred[i, j] for i, j in fg]
    bg_vals = [1.0 - pred[i, j] for i in range(h) for j in range(w) if gt[i, j] == 0.0]
    s_obj = mu * _oracle_object(fg_vals) + (1 - mu) * _oracle_object(bg_vals)

    cy = math.floor(sum(i for i, _ in fg) / len(fg) + 0.5)
    cx = math.floor(sum(j for _, j in fg) / len(fg) + 0.5)
    s_reg = 0.0
    for rlo, rhi, clo, chi in (
        (0, cy + 1, 0, cx + 1),
        (0, cy + 1, cx + 1, w),
        (cy + 1, h, 0, cx + 1),
        (cy + 1, h, cx + 1, w),
    ):
        cells = [(i, j) for i in range(rlo, rhi) for j in range(clo, chi)]
        if not cells:
            continue
        fg_in_q = sum(1 for i, j in cells if gt[i, j] == 1.0)
        if fg_in_q == 0:
            continue
        weight = fg_in_q / len(fg)
        s_reg += weight * _oracle_region([pred[i, j] for i, j in cells], [gt[i, j] for i, j in cells])
    return min(max(alpha * s_obj + (1 - alpha) * s_reg, 0.0), 1.0)


def random_pair(seed, hw=4, fg_prob=None):
    g = rng(seed)
    pred = g.uniform(0, 1, (hw, hw))
    gt = (g.uniform(0, 1, (hw, hw)) < (fg_prob if fg_prob is not None else g.uniform(0.1, 0.9))).astype(
        np.float64
    )
    return pred, gt


# ---------------------------------------------------------------------------
# mae


def test_mae_identity_and_complement():
    _, gt = random_pair(1)
    assert MT.mae(gt, gt) == 0.0
    assert MT.mae(1.0 - gt, gt) == 1.0


def test_mae_shape_mismatch():
    with pytest.raises(ShapeError):
        MT.mae(np.zeros((4, 4)), np.zeros((4, 5)))


def test_mae_matches_oracle():
    for seed in range(60):
        pred, gt = random_pair(seed)
        npt.assert_allclose(MT.mae(pred, gt), oracle_mae(pred, gt), atol=1e-12)


def test_mae_complement_symmetry():
    for seed in range(20):
        pred, gt = random_pair(100 + seed)
        npt.assert_allclose(MT.mae(pred, gt), MT.mae(1.0 - pred, 1.0 - gt), atol=1e-15)


# ---------------------------------------------------------------------------
# max F


def test_max_f_perfect_map():
    _, gt = random_pair(2, fg_prob=0.5)
    assert gt.sum() > 0
    f, _, _ = MT.max_f_measure(gt, gt)
    assert f == 1.0


def test_max_f_all_zero_prediction():
    _, gt = random_pair(3, fg_prob=0.5)
    assert gt.sum() > 0
    f, _, _ = MT.max_f_measure(np.zeros_like(gt), gt)
    assert f == 0.0


def test_max_f_matches_oracle():
    for seed in range(40):
        pred, gt = random_pair(200 + seed)
        f, _, _ = MT.max_f_measure(pred, gt)
        npt.assert_allclose(f, oracle_max_f(pred, gt), atol=1e-12)


def brute_force_max_f(pred, gt, thresholds=256, beta_sq=0.3):
    """max_f_measure as a T x N boolean matrix: every pixel compared with
    every threshold, the counts summed along the pixels."""
    pred = pred.reshape(-1)
    gt = gt.reshape(-1)
    n_fg = gt.sum()
    ts = np.arange(thresholds) / thresholds
    binary = pred[None, :] > ts[:, None]
    tp = (binary & (gt == 1.0)[None, :]).sum(axis=1).astype(np.float64)
    pp = binary.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pp > 0, tp / pp, 0.0)
        recall = np.where(n_fg > 0, tp / max(n_fg, 1.0), 0.0)
        num = (1.0 + beta_sq) * precision * recall
        den = beta_sq * precision + recall
        f = np.where(den > 0, num / den, 0.0)
    return float(f.max()), precision, recall


@st.composite
def tied_maps(draw):
    """(pred, gt): a map up to 16x16 whose values sit on a grid k/n that the
    threshold grid k/256 holds (n = 2, 32, 256) or does not (n = 255), on
    the 8-bit grid k/255, or at 0 and 1, so many pixels equal a threshold;
    the mask may be empty, full or drawn."""
    n = draw(st.sampled_from([2, 32, 255, 256]))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=16))
    value = st.one_of(
        st.integers(0, n).map(lambda k: k / n),
        st.integers(0, 255).map(lambda k: k / 255),
        st.sampled_from([0.0, 1.0]),
    )
    pred = draw(hnp.arrays(np.float64, shape, elements=value))
    mask = draw(st.sampled_from(["empty", "full", "drawn"]))
    if mask == "drawn":
        gt = draw(hnp.arrays(np.bool_, shape)).astype(np.float64)
    else:
        gt = np.full(shape, 1.0 if mask == "full" else 0.0)
    return pred, gt


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_maps())
def test_max_f_exact_on_ties(case):
    pred, gt = case
    f, precision, recall = MT.max_f_measure(pred, gt)
    want_f, want_precision, want_recall = brute_force_max_f(pred, gt)
    assert np.array_equal(precision, want_precision)
    assert np.array_equal(recall, want_recall)
    assert f == want_f


def test_max_f_rejects_out_of_range_prediction():
    with pytest.raises(ContractError):
        MT.max_f_measure(np.full((2, 2), 1.5), np.ones((2, 2)))


@pytest.mark.parametrize("metric", [MT.mae, MT.max_f_measure, MT.s_measure], ids=lambda f: f.__name__)
def test_metrics_reject_nonfinite_prediction(metric):
    gt = np.zeros((8, 8))
    gt[2:6, 2:6] = 1.0
    pred = gt.copy()
    pred[3, 3] = np.nan
    pred[0, 7] = np.inf
    with pytest.raises(NumericalError, match="2 non-finite"):
        metric(pred, gt)


def test_pixel_metrics_permutation_invariant():
    g = rng(4)
    pred, gt = random_pair(5, hw=6)
    perm = g.permutation(36)
    pred_p = pred.reshape(-1)[perm].reshape(6, 6)
    gt_p = gt.reshape(-1)[perm].reshape(6, 6)
    npt.assert_allclose(MT.mae(pred, gt), MT.mae(pred_p, gt_p), atol=1e-15)
    f0, _, _ = MT.max_f_measure(pred, gt)
    f1, _, _ = MT.max_f_measure(pred_p, gt_p)
    npt.assert_allclose(f0, f1, atol=1e-15)


# ---------------------------------------------------------------------------
# S-measure


def test_s_measure_perfect_binary():
    for seed in range(10):
        _, gt = random_pair(400 + seed, hw=8)
        if gt.sum() in (0, 64):
            continue
        assert abs(MT.s_measure(gt, gt) - 1.0) <= 1e-6


def test_region_similarity_of_a_mask_with_itself_is_exactly_one():
    """With x == y the region term's vx, vy and cov are the same float, so a map
    equal to its mask scores every quadrant exactly 1, which the benchmark's
    planted clip relies on."""
    for seed in range(300):
        g = rng(seed)
        y = (g.uniform(0, 1, tuple(g.integers(1, 40, 2))) < g.uniform(0.05, 0.95)).astype(np.float64)
        n_fg = np.count_nonzero(y)
        if n_fg:
            assert MT._region_similarity(y, y, n_fg) == 1.0, seed


def test_s_measure_degenerate_gt():
    pred = rng(6).uniform(0, 1, (8, 8))
    zeros = np.zeros((8, 8))
    npt.assert_allclose(MT.s_measure(zeros, zeros), 1.0)
    npt.assert_allclose(MT.s_measure(pred, zeros), 1.0 - pred.mean(), atol=1e-12)
    ones = np.ones((8, 8))
    expected = 2 * pred.mean() / (pred.mean() ** 2 + 1 + 2 * pred.std())
    npt.assert_allclose(MT.s_measure(pred, ones), expected, atol=1e-12)


def test_s_measure_matches_independent_oracle():
    for seed in range(60):
        pred, gt = random_pair(500 + seed, hw=8)
        npt.assert_allclose(MT.s_measure(pred, gt), oracle_s_measure(pred, gt), atol=1e-9)


def _s_measure_edge_cases():
    """(pred, gt) params, named by case, that reach the S-measure's edge branches."""
    g = rng(15)
    mixed = (g.uniform(0, 1, (8, 8)) < 0.5).astype(np.float64)
    block = np.zeros((8, 8))
    block[:5, :5] = 1.0  # centroid (2, 2): the top-left quadrant is all foreground
    block[6, 7] = 1.0
    block_pred = g.uniform(0, 1, (8, 8))
    block_pred[:3, :3] = 0.5
    one_quadrant = g.uniform(0, 1, (8, 8))
    one_quadrant[:5, :5] = 0.25  # the top-left quadrant of `mixed`, whose centroid is (4, 4)
    last_row, last_col, single = np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 8))
    last_row[7, 2:6] = 1.0
    last_col[1:5, 7] = 1.0
    single[3, 5] = 1.0
    row = (g.uniform(0, 1, (1, 9)) < 0.5).astype(np.float64)
    row[0, :2] = (0.0, 1.0)
    yy, xx = np.mgrid[:256, :256]
    disc = (((yy - 100) ** 2 + (xx - 150) ** 2) < 60**2).astype(np.float64)
    for name, pred, gt in (
        ("constant_map", np.full((8, 8), 0.5), mixed),
        ("constant_zero_map", np.zeros((8, 8)), mixed),
        ("constant_map_full_quadrant", np.full((8, 8), 0.5), block),
        ("full_quadrant", g.uniform(0, 1, (8, 8)), block),
        ("constant_full_quadrant", block_pred, block),
        ("constant_mixed_quadrant", one_quadrant, mixed),
        ("centroid_on_last_row", g.uniform(0, 1, (8, 8)), last_row),
        ("centroid_on_last_col", g.uniform(0, 1, (8, 8)), last_col),
        ("single_pixel", g.uniform(0, 1, (8, 8)), single),
        ("one_row", g.uniform(0, 1, (1, 9)), row),
        ("one_col", g.uniform(0, 1, (9, 1)), row.T.copy()),
        ("eight_bit_disc", g.integers(0, 256, (256, 256)) / 255.0, disc),
        ("eight_bit_noise", g.integers(0, 256, (256, 256)) / 255.0, (g.uniform(0, 1, (256, 256)) < 0.3) * 1.0),
    ):
        yield pytest.param(pred, gt, id=name)


@pytest.mark.parametrize("pred,gt", _s_measure_edge_cases())
def test_s_measure_edge_cases_match_oracle(pred, gt):
    npt.assert_allclose(MT.s_measure(pred, gt), oracle_s_measure(pred, gt), rtol=0, atol=1e-9)
    rows, cols = np.nonzero(gt)
    fg = gt == 1.0
    centroid = MT._mean_index(np.count_nonzero(fg, axis=1)), MT._mean_index(np.count_nonzero(fg, axis=0))
    assert centroid == (rows.mean(), cols.mean())  # the same floats, to the bit


def test_s_measure_not_permutation_invariant():
    # Structure matters: scrambling pixels must be able to change the score.
    pred, gt = random_pair(7, hw=8, fg_prob=0.4)
    perm = rng(8).permutation(64)
    pred_p = pred.reshape(-1)[perm].reshape(8, 8)
    gt_p = gt.reshape(-1)[perm].reshape(8, 8)
    assert abs(MT.s_measure(pred, gt) - MT.s_measure(pred_p, gt_p)) > 1e-6


def test_metrics_exhaustive_small_masks_sampled():
    g = rng(9)
    preds = [g.uniform(0, 1, (4, 4)) for _ in range(10)]
    patterns = g.choice(2 ** 16, size=40, replace=False)
    for bits in patterns:
        gt = np.array([(int(bits) >> k) & 1 for k in range(16)], dtype=np.float64).reshape(4, 4)
        for pred in preds[:3]:
            npt.assert_allclose(MT.mae(pred, gt), oracle_mae(pred, gt), atol=1e-12)
            f, _, _ = MT.max_f_measure(pred, gt)
            npt.assert_allclose(f, oracle_max_f(pred, gt), atol=1e-12)
            npt.assert_allclose(MT.s_measure(pred, gt), oracle_s_measure(pred, gt), atol=1e-9)


# ---------------------------------------------------------------------------
# dataset evaluation


def test_evaluate_perfect_dataset():
    _, gt = random_pair(10, hw=8, fg_prob=0.5)
    report = MT.evaluate_sequences([("seq", [(gt, gt)])])
    assert report.aggregate["max_f"] == 1.0
    assert abs(report.aggregate["s_measure"] - 1.0) <= 1e-6
    assert report.aggregate["mae"] == 0.0


def test_evaluate_order_independent():
    frames = []
    for seed in range(4):
        frames.append(random_pair(600 + seed, hw=8))
    seq_a = [("a", frames[:2]), ("b", frames[2:])]
    seq_b = [("b", frames[2:]), ("a", frames[:2])]
    ra = MT.evaluate_sequences(seq_a)
    rb = MT.evaluate_sequences(seq_b)
    for key in ("s_measure", "max_f", "mae"):
        npt.assert_allclose(ra.aggregate[key], rb.aggregate[key], atol=1e-12)


def test_evaluate_two_sequences_hand_average():
    p1, g1 = random_pair(11, hw=8)
    p2, g2 = random_pair(12, hw=8)
    p3, g3 = random_pair(13, hw=8)
    report = MT.evaluate_sequences([("one", [(p1, g1), (p2, g2)]), ("two", [(p3, g3)])])
    seq_one_mae = (MT.mae(p1, g1) + MT.mae(p2, g2)) / 2.0
    seq_two_mae = MT.mae(p3, g3)
    npt.assert_allclose(report.per_sequence["one"]["mae"], seq_one_mae, atol=1e-15)
    npt.assert_allclose(report.aggregate["mae"], (seq_one_mae + seq_two_mae) / 2.0, atol=1e-15)


def test_evaluate_calls_each_metric_through_the_module_once_per_frame(monkeypatch):
    """The benchmark tracer times ``mae``, ``max_f_measure`` and ``s_measure`` by
    wrapping the module's names, so ``evaluate_sequences`` must call them there."""
    calls = {"mae": 0, "max_f_measure": 0, "s_measure": 0}
    for name in calls:

        def counted(pred, gt, fn=getattr(MT, name), name=name):
            calls[name] += 1
            return fn(pred, gt)

        monkeypatch.setattr(MT, name, counted)
    frames = [random_pair(700 + seed, hw=8) for seed in range(5)]
    MT.evaluate_sequences([("a", frames[:3]), ("b", frames[3:])])
    assert calls == {"mae": 5, "max_f_measure": 5, "s_measure": 5}


def test_evaluate_rejects_empty_sequence():
    with pytest.raises(ContractError):
        MT.evaluate_sequences([("empty", [])])


def test_report_csv_and_json(tmp_path):
    p, g = random_pair(14, hw=8)
    report = MT.evaluate_sequences([("clip00", [(p, g)])])
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "sequence,s_measure,max_f,mae"
    assert lines[1].startswith("clip00,")
    import json as json_mod

    blob = json_mod.loads(json_path.read_text())
    assert set(blob["aggregate"]) >= {"s_measure", "max_f", "mae"}
