"""Unit tests for network assembly, supervision, and the training loop."""

import errno
import gc
import hashlib
import math
import os
import re
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest

from trisal import errors
from trisal import model as M
from trisal import tensor as T
from trisal.errors import ConfigError, ContractError, DataError, NumericalError
from trisal.tensor import Tensor


def small_config(**kw):
    base = dict(input_size=64, width=4, cp_width=8, seed=7, batch_size=2, steps=3)
    base.update(kw)
    return M.ModelConfig(**base)


def rand_inputs(b=1, hw=64, seed=0):
    rng = np.random.default_rng(seed)
    return (
        Tensor(rng.uniform(0, 1, (b, 3, hw, hw))),
        Tensor(rng.uniform(0, 1, (b, 3, hw, hw))),
        Tensor(rng.uniform(0, 1, (b, 3, hw, hw))),
    )


def make_samples(n=4, hw=64, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        gt = (rng.uniform(0, 1, (1, hw, hw)) > 0.7).astype(np.float64)
        out.append(
            types.SimpleNamespace(
                rgb=rng.uniform(0, 1, (3, hw, hw)),
                depth3=rng.uniform(0, 1, (3, hw, hw)),
                flow3=rng.uniform(0, 1, (3, hw, hw)),
                gt=gt,
            )
        )
    return out


# ---------------------------------------------------------------------------
# config


def test_config_rejects_bad_input_size():
    with pytest.raises(ConfigError):
        M.ModelConfig(input_size=50)


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        M.ModelConfig(variant="D9")


def test_config_rejects_indivisible_attention_width():
    with pytest.raises(ConfigError):
        M.ModelConfig(cp_width=18)


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="learning_rate"):
        M.ModelConfig.from_dict({"learning_rate": 0.1})


# ---------------------------------------------------------------------------
# build


def test_full_has_more_parameters_than_no_depth():
    full = M.build(small_config(variant="Full"))
    a1 = M.build(small_config(variant="A1_no_depth"))
    assert full.parameter_count() > a1.parameter_count()


def test_same_seed_bit_identical_parameters():
    m1 = M.build(small_config())
    m2 = M.build(small_config())
    s1, s2 = m1.state_dict(), m2.state_dict()
    assert s1.keys() == s2.keys()
    for k in s1:
        assert s1[k].data.tobytes() == s2[k].data.tobytes(), k


# Each variant's tensor count and the sha256 of its sorted "name [shape]"
# lines at small_config. A rename or reshape here is a checkpoint of that
# variant that no longer loads.
CHECKPOINT_LAYOUTS = {
    "Full": (877, "9959e8ccd8c825d6ab3c4dd07964694d98b2b85262138afe7212818691f4097d"),
    "A1_no_depth": (602, "524edd3510209031bdce13ec2186154c9c0bdd2ebb0db740ff66b9060e98a2b4"),
    "B1_depth_main": (877, "9959e8ccd8c825d6ab3c4dd07964694d98b2b85262138afe7212818691f4097d"),
    "B2_flow_main": (877, "9959e8ccd8c825d6ab3c4dd07964694d98b2b85262138afe7212818691f4097d"),
    "C1_no_mam": (766, "8cdf903c2b1bf2d462f3e5e1f227c7522685d969b4a70bcd96f30b2092a21093"),
    "C2_self_nonlocal": (829, "1192ef1dd3153beaa2bb8e0eb524c129f707a1b41fb74aea79458ce8ec7efe10"),
    "C3_no_rfm": (642, "92dc9e10e8e37be6abc6c09252cf7cb26747f643e78c96ccc1f61241ba1dd104"),
    "C4_flat_concat": (852, "9b8d23a616f8a60ef8bdd282d404d2169c9d2e06cd8baab6426a2af018a54bae"),
}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_checkpoint_layout_pinned(variant):
    state = M.build(small_config(variant=variant)).state_dict()
    text = "".join(f"{n} {list(state[n].shape)}\n" for n in sorted(state))
    assert (len(state), hashlib.sha256(text.encode()).hexdigest()) == CHECKPOINT_LAYOUTS[variant]


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_all_variants_forward_smoke(variant):
    model = M.build(small_config(variant=variant))
    outs = model(*rand_inputs(seed=1))
    assert len(outs) == 5
    for lvl, s in enumerate(outs, start=1):
        assert s.shape == (1, 1, 64 // 2**lvl, 64 // 2**lvl)
        assert np.all(np.isfinite(s.data))


def test_side_output_shapes_stride_arithmetic():
    model = M.build(small_config())
    outs = model(*rand_inputs(seed=2))
    assert [s.shape[2] for s in outs] == [32, 16, 8, 4, 2]


def test_eval_forward_bit_identical():
    model = M.build(small_config()).eval()
    ins = rand_inputs(seed=3)
    a = model(*ins)
    b = model(*ins)
    for x, y in zip(a, b):
        assert x.data.tobytes() == y.data.tobytes()


def test_forward_rejects_mismatched_modalities():
    model = M.build(small_config())
    rgb, depth, _ = rand_inputs(seed=4)
    flow = Tensor(np.zeros((1, 3, 32, 32)))
    with pytest.raises(ConfigError):
        model(rgb, depth, flow)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_every_parameter_gets_a_finite_gradient(variant):
    # backward creates each grad it reaches, so a parameter it misses would keep None
    model = M.build(small_config(variant=variant))
    rgb, depth, flow = rand_inputs(seed=5)
    gt = Tensor((np.random.default_rng(6).uniform(0, 1, (1, 1, 64, 64)) > 0.6).astype(np.float64))
    with T.Tape():
        T.backward(M.loss_total(model(rgb, depth, flow), gt))
    n_checked = 0
    for name, p in model.named_parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad)), name
        n_checked += 1
    assert n_checked == sum(1 for _ in model.parameters())


def test_attention_op_counts_by_variant():
    # softmax appears only inside attention blocks: the cross-modal design
    # runs one per auxiliary per deep level (2*3), the self-attention variant
    # one per stream per deep level (3*3), the no-attention variant none.
    expected = {"Full": 6, "C2_self_nonlocal": 9, "C1_no_mam": 0}
    for variant, count in expected.items():
        model = M.build(small_config(variant=variant))
        with T.Tape() as tape:
            rgb, depth, flow = rand_inputs(seed=8)
            rgb.requires_grad = True
            model(rgb, depth, flow)
        assert tape.op_counts()["softmax_rows"] == count, variant


# ---------------------------------------------------------------------------
# loss


def _const_outputs(levels_hw, value):
    return [Tensor(np.full((1, 1, h, h), value)) for h in levels_hw]


LEVEL_HW = [16, 8, 4, 2, 1]  # for 32x32 ground truth


def test_perfect_prediction_loss_tiny():
    gt = Tensor(np.ones((1, 1, 32, 32)))
    losses = M.level_losses(_const_outputs(LEVEL_HW, 20.0), gt)
    for l in losses:
        assert float(l.data) <= 1e-6


def test_loss_rejects_nonbinary_gt():
    gt = Tensor(np.full((1, 1, 32, 32), 0.5))
    with pytest.raises(ContractError):
        M.level_losses(_const_outputs(LEVEL_HW, 0.0), gt)


def test_loss_hand_case_half_probability():
    gt = Tensor(np.ones((1, 1, 2, 2)))
    outputs = [Tensor(np.zeros((1, 1, 1, 1)))]
    (l,) = M.level_losses(outputs, gt)
    inter = 0.5 * 4
    union = 0.5 * 4 + 4 - inter
    expected = math.log(2.0) + 1.0 - (inter + 1.0) / (union + 1.0)
    npt.assert_allclose(float(l.data), expected, atol=1e-12)


def test_level_weights_by_isolation():
    assert M.LEVEL_WEIGHTS == (1.0, 0.5, 0.25, 0.125, 0.0625)
    gt = Tensor(np.ones((1, 1, 32, 32)))
    perfect = float(M.loss_total(_const_outputs(LEVEL_HW, 20.0), gt).data)
    totals = []
    for lvl in range(5):
        maps = [Tensor(np.full((1, 1, h, h), 20.0)) for h in LEVEL_HW]
        maps[lvl] = Tensor(np.zeros((1, 1, LEVEL_HW[lvl], LEVEL_HW[lvl])))
        totals.append(float(M.loss_total(maps, gt).data))
    base = totals[0] - perfect
    for lvl in range(5):
        npt.assert_allclose((totals[lvl] - perfect) / base, M.LEVEL_WEIGHTS[lvl], atol=1e-12)


def test_loss_nonnegative_random_sweep():
    rng = np.random.default_rng(9)
    for _ in range(20):
        gt = Tensor((rng.uniform(0, 1, (1, 1, 32, 32)) > rng.uniform(0.2, 0.8)).astype(np.float64))
        maps = [Tensor(rng.normal(scale=3.0, size=(1, 1, h, h))) for h in LEVEL_HW]
        assert float(M.loss_total(maps, gt).data) >= 0.0


def test_iou_permutation_invariance():
    rng = np.random.default_rng(10)
    gt_flat = (rng.uniform(0, 1, 64) > 0.5).astype(np.float64)
    logits = rng.normal(size=64)
    perm = rng.permutation(64)

    def one_level_loss(g, s):
        out = [Tensor(s.reshape(1, 1, 8, 8))]
        return float(M.level_losses(out, Tensor(g.reshape(1, 1, 8, 8)))[0].data)

    npt.assert_allclose(
        one_level_loss(gt_flat, logits), one_level_loss(gt_flat[perm], logits[perm]), atol=1e-12
    )


def two_log_level_losses(outputs, gt):
    """Per-level BCE + (1 - IoU) with the cross-entropy in its two-log form,
    ``-(gt*log p + (1 - gt)*log(1 - p))``."""
    n = float(np.prod(gt.shape))
    losses = []
    for s in outputs:
        p = T.clamp(T.sigmoid(M._upsample_to(s, gt.shape[2])), 1e-7, 1.0 - 1e-7)
        log_both = T.add(T.mul(gt, T.log(p)), T.mul(T.sub(Tensor(1.0), gt), T.log(T.sub(Tensor(1.0), p))))
        bce = T.div(T.sum_all(T.sub(Tensor(0.0), log_both)), Tensor(n))
        inter = T.sum_all(T.mul(p, gt))
        union = T.sub(T.add(T.sum_all(p), T.sum_all(gt)), inter)
        iou = T.sub(Tensor(1.0), T.div(T.add(inter, Tensor(1.0)), T.add(union, Tensor(1.0))))
        losses.append(T.add(bce, iou))
    return losses


@pytest.mark.parametrize("mask", ["mixed", "zeros", "ones"])
def test_level_losses_equal_the_two_log_form_bit_for_bit(mask):
    rng = np.random.default_rng(11)
    gt = {
        "mixed": (rng.uniform(0, 1, (2, 1, 32, 32)) > 0.5).astype(np.float64),
        "zeros": np.zeros((2, 1, 32, 32)),
        "ones": np.ones((2, 1, 32, 32)),
    }[mask]
    logits = [rng.normal(scale=8.0, size=(2, 1, h, h)) for h in LEVEL_HW]
    assert any(np.any(np.abs(l) > 17.0) for l in logits)  # beyond the 1e-7 clamp
    results = []
    for losses_of in (M.level_losses, two_log_level_losses):
        outputs = [Tensor(l.copy(), requires_grad=True) for l in logits]
        with T.Tape():
            losses = losses_of(outputs, Tensor(gt))
            T.backward(M.weighted_total(losses))
        results.append(([float(l.data) for l in losses], [o.grad for o in outputs]))
    (values, grads), (ref_values, ref_grads) = results
    assert values == ref_values
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


# ---------------------------------------------------------------------------
# optimizer and training


def test_parameter_groups_cover_everything():
    model = M.build(small_config())
    names = [n for n, _ in model.named_parameters()]
    backbone = [n for n in names if M.is_backbone_param(n)]
    heads = [n for n in names if not M.is_backbone_param(n)]
    assert backbone and heads
    assert len(backbone) + len(heads) == len(names)
    stems_and_stages = {
        f"enc_{s}.{part}.{n}"
        for s in model.streams
        for part in ("stem", "stages")
        for n, _ in getattr(getattr(model, f"enc_{s}"), part).named_parameters()
    }
    assert set(backbone) == stems_and_stages
    assert any(".aspp." in n for n in heads) and any(".cp." in n for n in heads)


def test_sgd_step_is_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(19)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 4), (5,))]
    opt = M.SGD([([("a", params[0])], 0.1), ([("b", params[1])], 0.03)], momentum=0.9, weight_decay=5e-4)
    data, vel = [p.data.copy() for p in params], [np.zeros_like(p.data) for p in params]
    for _ in range(3):
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        for i, (p, lr) in enumerate(zip(params, (0.1, 0.03))):
            vel[i] = 0.9 * vel[i] + (p.grad + 5e-4 * data[i])
            data[i] = data[i] - lr * vel[i]
            assert p.data.tobytes() == data[i].tobytes()


def test_on_step_reads_the_gradients_of_the_step_that_just_ended():
    samples = make_samples(3, seed=20)
    cfg = small_config(steps=2)
    model = M.build(cfg)
    seen = []

    def on_step(step, loss):
        seen.append({n: p.grad.copy() for n, p in model.named_parameters()})

    M.fit(model, samples, cfg, on_step=on_step)
    replay = M.build(cfg)
    opt = M.make_optimizer(replay, cfg)
    order = np.random.default_rng(cfg.seed + 1)
    for step, grads in enumerate(seen):
        M.train_step(replay, opt, M.make_batch(samples, order.integers(0, len(samples), size=cfg.batch_size)))
        params = dict(replay.named_parameters())
        assert grads.keys() == params.keys()
        for name, g in grads.items():
            assert g.tobytes() == params[name].grad.tobytes(), (step, name)
    assert any(not np.array_equal(seen[0][n], seen[1][n]) for n in seen[0])


def test_one_step_reduces_loss_on_same_batch():
    samples = make_samples(2, seed=11)
    cfg = small_config(lr_backbone=1e-3, lr_head=1e-3)
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    batch = M.make_batch(samples, [0, 1])

    def eval_loss():
        model.train()
        with T.Tape():
            return float(M.loss_total(model(batch[0], batch[1], batch[2]), batch[3]).data)

    before = eval_loss()
    M.train_step(model, opt, batch)
    after = eval_loss()
    assert after < before


def test_zero_lr_freezes_parameters_bitwise():
    samples = make_samples(2, seed=12)
    cfg = small_config(lr_backbone=0.0, lr_head=0.0)
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    before = {k: v.data.tobytes() for k, v in model.state_dict().items() if v.requires_grad}
    M.train_step(model, opt, M.make_batch(samples, [0, 1]))
    after = {k: v.data.tobytes() for k, v in model.state_dict().items() if v.requires_grad}
    assert before == after


def test_train_step_drops_the_gradients_of_the_step_before():
    samples = make_samples(2, seed=15)
    cfg = small_config(lr_backbone=0.0, lr_head=0.0)  # the same weights and batch, so the same gradients
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    batch = M.make_batch(samples, [0, 1])
    M.train_step(model, opt, batch)
    first = [p.grad.tobytes() for _, p in opt.params]
    M.train_step(model, opt, batch)
    assert [p.grad.tobytes() for _, p in opt.params] == first


def test_train_step_leaves_no_tape_alive():
    samples = make_samples(2, seed=16)
    cfg = small_config()
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    batch = M.make_batch(samples, [0, 1])
    gc.collect()
    gc.disable()
    try:
        M.train_step(model, opt, batch)
        live = sum(isinstance(o, T.Tape) for o in gc.get_objects())
    finally:
        gc.enable()
    assert live == 0


def test_train_step_builds_the_loss_once(monkeypatch):
    samples = make_samples(2, seed=17)
    cfg = small_config()
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    calls = []
    level_losses = M.level_losses

    def counted(outputs, gt):
        calls.append((outputs, gt))
        return level_losses(outputs, gt)

    monkeypatch.setattr(M, "level_losses", counted)
    total, per_level = M.train_step(model, opt, M.make_batch(samples, [0, 1]))
    monkeypatch.undo()
    assert len(calls) == 1
    outputs, gt = calls[0]
    assert total == float(M.loss_total(outputs, gt).data)
    assert per_level == [float(l.data) for l in M.level_losses(outputs, gt)]


def test_non_finite_gradient_stops_the_step_before_sgd(monkeypatch):
    samples = make_samples(2, seed=18)
    cfg = small_config()
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    params = list(model.named_parameters())
    run_backward = T.Tape.run_backward

    def planted(tape, loss):  # the loss stays finite; two gradients do not
        run_backward(tape, loss)
        params[5][1].grad.flat[0] = np.nan
        params[9][1].grad.flat[0] = np.inf

    monkeypatch.setattr(T.Tape, "run_backward", planted)
    before = [p.data.copy() for _, p in params]
    with pytest.raises(NumericalError, match=f"non-finite gradient at step 3 in parameter '{re.escape(params[5][0])}'"):
        M.train_step(model, opt, M.make_batch(samples, [0, 1]), step=3)
    for (_, p), b in zip(params, before):
        assert p.data.tobytes() == b.tobytes()
    assert not any(v.any() for vels in opt.velocity for v in vels)


def test_non_finite_loss_names_its_first_op_and_updates_nothing():
    samples = make_samples(2, seed=19)
    cfg = small_config()
    model = M.build(cfg)
    opt = M.make_optimizer(model, cfg)
    model.enc_rgb.stem.conv.weight.data.flat[0] = np.nan  # the first conv of the forward
    before = [(n, p.data.tobytes()) for n, p in model.named_parameters()]
    msg = "non-finite loss at step 0: first non-finite tensor from op 'conv2d' (record 0)"
    with pytest.raises(NumericalError, match=re.escape(msg)):
        M.train_step(model, opt, M.make_batch(samples, [0, 1]), step=0)
    assert [(n, p.data.tobytes()) for n, p in model.named_parameters()] == before
    assert not any(v.any() for vels in opt.velocity for v in vels)


def test_train_step_computes_no_input_gradient_for_the_frames(monkeypatch):
    samples = make_samples(2, seed=20)
    cfg = small_config()
    model = M.build(cfg)
    batch = M.make_batch(samples, [0, 1])
    conv2d, skipped = T.conv2d, []

    def watched(x, *args):  # notes each input whose gradient the backward skips
        out = conv2d(x, *args)
        record = T._TAPES[-1].ops[-1]
        backward_fn = record.backward_fn

        def spied(g):
            grads = backward_fn(g)
            if grads[0] is None:
                skipped.append(x)
            return grads

        record.backward_fn = spied
        return out

    monkeypatch.setattr(T, "conv2d", watched)
    M.train_step(model, M.make_optimizer(model, cfg), batch, step=0)
    assert [id(x) for x in skipped] == [id(t) for t in reversed(batch[:3])]
    assert all(t.grad is None for t in batch)


def test_fit_log_deterministic():
    samples = make_samples(3, seed=13)
    cfg = small_config(steps=3)

    def run():
        return M.fit(M.build(cfg), samples, cfg)

    assert run() == run()


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_config()
    trained = M.build(cfg)
    M.fit(trained, make_samples(2, seed=14), cfg)
    path = tmp_path / "run" / "ck"  # save_checkpoint creates the run directory
    for model in [trained] + [M.build(small_config(variant=v)) for v in M.VARIANTS if v != "Full"]:
        M.save_checkpoint(path, model, step=3)
        loaded, step = M.load_checkpoint(path)
        assert step == 3 and loaded.config == model.config
        s1, s2 = model.state_dict(), loaded.state_dict()
        assert s1.keys() == s2.keys()
        for k in s1:
            assert s1[k].data.tobytes() == s2[k].data.tobytes(), (model.config.variant, k)


class _FullDisk:
    """A file that takes ``room`` bytes, then fails the way a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        chunk = memoryview(chunk).cast("B")
        self.fh.write(chunk[: self.room])
        self.room -= len(chunk)
        if self.room < 0:
            raise OSError(errno.ENOSPC, "No space left on device")


def test_interrupted_checkpoint_save_keeps_the_old_one(tmp_path, monkeypatch):
    old, new = M.build(small_config(seed=1)), M.build(small_config(seed=2))
    path = tmp_path / "ck"
    M.save_checkpoint(path, old, step=1)
    before = path.read_bytes()
    monkeypatch.setattr(errors, "open", lambda p, mode: _FullDisk(open(p, mode), len(before) // 2), raising=False)
    with pytest.raises(DataError, match=re.escape(f"{path}: cannot write: No space left on device")):
        M.save_checkpoint(path, new, step=2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    loaded, step = M.load_checkpoint(path)
    assert step == 1
    s1, s2 = old.state_dict(), loaded.state_dict()
    assert all(s1[k].data.tobytes() == s2[k].data.tobytes() for k in s1)
    assert os.listdir(tmp_path) == ["ck"]


def test_checkpoint_save_over_a_directory_is_data_error(tmp_path):
    # a checkpoint from before the one-file format is a directory
    (tmp_path / "ck" / "tensors").mkdir(parents=True)
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "ck"))):
        M.save_checkpoint(tmp_path / "ck", M.build(small_config()))
    assert os.listdir(tmp_path) == ["ck"]
    with pytest.raises(DataError, match=re.escape(str(tmp_path / "ck"))):
        M.load_checkpoint(tmp_path / "ck")


def test_truncated_checkpoint_is_data_error(tmp_path):
    model = M.build(small_config())
    path = tmp_path / "ck"
    M.save_checkpoint(path, model, step=3)
    whole = path.read_bytes()
    start = whole.index(b"\n") + 1
    state = model.state_dict()
    boundaries = np.cumsum([0] + [state[n].data.size * 8 for n in sorted(state)])
    assert start + boundaries[-1] == len(whole)
    for cut in [*range(start), *(start + boundaries[:-1])]:
        path.write_bytes(whole[:cut])
        with pytest.raises(DataError, match=re.escape(str(path))):
            M.load_checkpoint(path)


def test_checkpoint_load_reads_each_tensor_into_the_model(tmp_path):
    """No whole-file buffer beside the model it fills: that buffer took the peak
    to 2.5x the model's bytes at this size."""
    model = M.build(small_config())
    M.save_checkpoint(tmp_path / "ck", model, step=4)
    nbytes = sum(t.data.nbytes for t in model.state_dict().values())
    tracemalloc.start()
    try:
        loaded, step = M.load_checkpoint(tmp_path / "ck")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step == 4 and peak <= 1.6 * nbytes, peak / nbytes
    s1, s2 = model.state_dict(), loaded.state_dict()
    assert all(s1[k].data.tobytes() == s2[k].data.tobytes() for k in s1)


def test_checkpoint_cut_while_it_is_read_is_data_error(tmp_path, monkeypatch):
    # a file that shrinks after the length check passed: the tensor read comes up short
    model = M.build(small_config())
    path = tmp_path / "ck"
    M.save_checkpoint(path, model, step=1)
    path.write_bytes(path.read_bytes()[:-3])
    monkeypatch.setattr(M, "check_payload", lambda *args: None)
    with pytest.raises(DataError, match=re.escape(f"{path}: ended inside the tensor data")):
        M.load_checkpoint(path)


def test_every_state_array_can_be_read_into():
    # load_checkpoint reads into each array's buffer, which must be C-contiguous, writable float64
    for v in M.VARIANTS:
        for name, t in M.build(small_config(variant=v)).state_dict().items():
            a = t.data
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable, (v, name)


def test_predict_shape_and_range():
    model = M.build(small_config())
    pred = M.predict(model, *rand_inputs(seed=15))
    assert pred.shape == (1, 1, 64, 64)
    assert pred.min() >= 0.0 and pred.max() <= 1.0
