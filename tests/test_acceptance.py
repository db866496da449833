"""Acceptance gate: one test per release criterion, named so `pytest -v`
prints one pass/fail line each. The heavy end-to-end criteria (overfit,
variant sweep) train real models and take a few minutes combined."""

import json
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from test_metrics import oracle_mae, oracle_max_f, oracle_s_measure
from trisal import cli, verify
from trisal import data as D
from trisal import fusion as F
from trisal import metrics as MT
from trisal import model as M
from trisal import tensor as T
from trisal.tensor import Tensor


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_gradient_suite():
    t0 = time.time()
    checks = verify.op_checks() + verify.block_checks() + verify.model_checks()
    elapsed = time.time() - t0
    for name, err, tol in checks:
        assert err <= tol, f"{name}: rel err {err:.3e} exceeds {tol:.0e}"
    worst = max(err for _, err, _ in checks)
    assert elapsed <= 180.0
    _report("1 gradient-suite", f"{len(checks)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_attention_rows_stochastic():
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(100):
        ch = int(rng.choice([4, 8]))
        hw = int(rng.choice([4, 6, 8]))
        pair = F.PairAttention(ch, np.random.default_rng(int(rng.integers(1 << 30))))
        x_main = Tensor(rng.normal(0, 2.0, (1, ch, hw, hw)))
        x_aux = Tensor(rng.normal(0, 2.0, (1, ch, hw, hw)))
        a = pair.affinity(x_main, x_aux).data
        assert a.min() >= 0.0 and a.max() <= 1.0, f"case {case}: entries outside [0,1]"
        dev = np.abs(a.sum(axis=-1) - 1.0).max()
        assert dev <= 1e-9, f"case {case}: row sum off by {dev:.2e}"
        worst = max(worst, dev)
    _report("2 attention-normalization", f"100 inputs, worst row-sum deviation {worst:.2e}")


def test_criterion_3_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(303)
    cfg = MT.MetricsConfig()
    for case in range(1000):
        pred = rng.random((4, 4))
        gt = (rng.random((4, 4)) > rng.uniform(0.2, 0.8)).astype(np.float64)
        assert_allclose(MT.mae(pred, gt), oracle_mae(pred, gt), rtol=0, atol=1e-12)
        got, _, _ = MT.max_f_measure(pred, gt, cfg)
        assert_allclose(got, oracle_max_f(pred, gt), rtol=0, atol=1e-12, err_msg=f"case {case}")
    for case in range(200):
        pred = rng.random((8, 8))
        gt = (rng.random((8, 8)) > rng.uniform(0.2, 0.8)).astype(np.float64)
        assert_allclose(
            MT.s_measure(pred, gt, cfg), oracle_s_measure(pred, gt), rtol=0, atol=1e-9,
            err_msg=f"case {case}",
        )
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report("3 metric-oracles", f"1000 MAE/max-F cases at 1e-12, 200 S cases at 1e-9, {elapsed:.1f}s")


def test_criterion_4_loss_contract():
    rng = np.random.default_rng(404)
    gt = Tensor(np.ones((2, 1, 32, 32)))
    sizes = [16, 8, 4, 2, 1]
    perfect = [Tensor(np.full((2, 1, s, s), 20.0)) for s in sizes]
    total = M.loss_total(perfect, gt)
    assert float(total.data) <= 1e-6

    base = [Tensor(np.full((2, 1, s, s), 20.0)) for s in sizes]
    t_perfect = float(M.loss_total(base, gt).data)
    deltas = []
    for lvl in range(5):
        maps = [Tensor(np.full((2, 1, s, s), 20.0)) for s in sizes]
        maps[lvl] = Tensor(np.zeros((2, 1, sizes[lvl], sizes[lvl])))
        deltas.append(float(M.loss_total(maps, gt).data) - t_perfect)
    ratios = [d / deltas[0] for d in deltas]
    assert ratios == [1.0, 0.5, 0.25, 0.125, 0.0625], ratios
    _report("4 loss-contract", f"perfect loss {float(total.data):.2e}, ratios {ratios}")


@pytest.mark.slow
def test_criterion_5_overfit_oracle():
    t0 = time.time()
    clip = D.generate_clip(D.preset_specs("overfit")[0])
    cfg = M.ModelConfig(steps=500, lr_backbone=1e-3, lr_head=1e-2)
    model = M.build(cfg)
    state = {}

    def stop_when_low(step, loss):
        state.setdefault("init", loss)
        if loss <= 0.05 * state["init"]:
            return False

    rows = M.fit(model, clip, cfg, on_step=stop_when_low)
    elapsed = time.time() - t0
    ratio = rows[-1][1] / rows[0][1]
    assert len(rows) <= 500
    assert ratio < 0.10, f"loss ratio {ratio:.3f} after {len(rows)} steps"

    batch = M.make_batch(clip, range(len(clip)))
    probs = M.predict(model, batch[0], batch[1], batch[2])
    frames = [(probs[i, 0], clip[i].gt[0]) for i in range(len(clip))]
    agg = MT.evaluate_sequences([("overfit", frames)]).aggregate
    assert agg["max_f"] >= 0.95, agg
    assert agg["s_measure"] >= 0.90, agg
    assert agg["mae"] <= 0.05, agg
    assert elapsed <= 600.0
    _report(
        "5 overfit-oracle",
        f"{len(rows)} steps, loss ratio {ratio:.3f}, max_f {agg['max_f']:.3f}, "
        f"s {agg['s_measure']:.3f}, mae {agg['mae']:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_6_ablation_smoke(tmp_path):
    t0 = time.time()
    run = {
        "model": {"width": 8, "cp_width": 8, "batch_size": 2, "steps": 200},
        "preset": "train5",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run))
    train_dir, held_dir, out = tmp_path / "train5", tmp_path / "held3", tmp_path / "ab"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(train_dir)]) == 0
    held_cfg = tmp_path / "held.json"
    held_cfg.write_text(json.dumps({"preset": "heldout3"}))
    assert cli.main(["gen-data", "--config", str(held_cfg), "--out", str(held_dir)]) == 0

    code = cli.main(
        [
            "ablate",
            "--config", str(cfg_path),
            "--data", str(train_dir),
            "--eval-data", str(held_dir),
            "--out", str(out),
        ]
    )
    assert code == 0, "a variant failed numerically"
    rows = open(out / "ablation.csv").read().splitlines()
    assert rows[0] == "variant,max_f,s_measure,mae"
    table = {r.split(",")[0]: [float(v) for v in r.split(",")[1:]] for r in rows[1:]}
    assert list(table) == ["A1", "B1", "B2", "C1", "C2", "C3", "C4", "Ours"]
    full_mae, a1_mae = table["Ours"][2], table["A1"][2]
    elapsed = time.time() - t0
    assert full_mae <= a1_mae + 0.01, f"Full mae {full_mae:.4f} vs no-depth {a1_mae:.4f}"
    _report(
        "6 ablation-smoke",
        f"8 variants x 200 steps, held-out mae full {full_mae:.4f} <= no-depth {a1_mae:.4f} + 0.01, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_determinism(tmp_path):
    run = {
        "model": {"input_size": 32, "width": 4, "cp_width": 8, "batch_size": 2, "steps": 8},
        "clips": [{"seed": 17, "frames": 4, "size": 32, "contrast": 0.8, "speed": 1.0}],
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(run))
    data_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0

    trees = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert (
            cli.main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(out)])
            == 0
        )
        tree = {}
        for base, _, files in os.walk(out):
            for f in files:
                p = os.path.join(base, f)
                tree[os.path.relpath(p, out)] = open(p, "rb").read()
        trees.append(tree)
    assert sorted(trees[0]) == sorted(trees[1])
    mismatched = [k for k in trees[0] if trees[0][k] != trees[1][k]]
    assert not mismatched, mismatched
    _report("7 determinism", f"{len(trees[0])} files byte-identical across two runs")


def test_criterion_8_shape_suite():
    for size in (32, 64, 96):
        cfg = M.ModelConfig(input_size=size, width=4, cp_width=8, seed=1)
        model = M.build(cfg)
        model.eval()
        rng = np.random.default_rng(size)
        x = [Tensor(rng.uniform(0, 1, (1, 3, size, size))) for _ in range(3)]

        levels = model.enc_rgb(x[0])
        expect = [size // (2 ** (i + 1)) for i in range(5)]
        assert [lv.shape[2] for lv in levels] == expect
        assert all(lv.shape[1] == cfg.cp_width for lv in levels)

        with T.Tape() as tape:
            outputs = model(x[0], x[1], x[2])
        for i, s in enumerate(outputs):
            assert s.shape == (1, 1, size // (2 ** (i + 1)), size // (2 ** (i + 1)))
        counts = tape.op_counts()
        assert counts.get("softmax_rows", 0) == 6  # 3 deepest levels x 2 aux streams

        fused = model.fuse[2](levels[2], [levels[2], levels[2]])
        assert fused.shape == levels[2].shape
    _report("8 shape-suite", "sizes 32/64/96: pyramid, side outputs, fusion shapes exact; "
            "attention only at the three deepest levels")
