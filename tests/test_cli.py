import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from trisal import cli
from trisal.data import _read_pnm, _write_pnm

TINY_RUN = {
    "model": {
        "input_size": 32,
        "width": 4,
        "cp_width": 8,
        "ca_ratio": 4,
        "batch_size": 2,
        "steps": 6,
        "seed": 0,
    },
    "clips": [{"seed": 5, "frames": 3, "size": 32, "contrast": 0.9, "speed": 1.5}],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(TINY_RUN))
    data_dir = root / "data"
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    train_out = root / "train"
    assert (
        cli.main(
            ["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(train_out)]
        )
        == 0
    )
    return {"root": root, "cfg": str(cfg_path), "data": str(data_dir), "train": str(train_out)}


def _tree_bytes(path):
    out = {}
    for base, _, files in os.walk(path):
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, path)] = fh.read()
    return out


def test_gen_data_layout(workdir):
    data = workdir["data"]
    assert os.path.isfile(os.path.join(data, "manifest.json"))
    assert os.path.isfile(os.path.join(data, "config.json"))
    for sub, ext in (("rgb", "ppm"), ("gt", "pgm"), ("depth", "pgm"), ("flow", "flo")):
        for i in range(3):
            assert os.path.isfile(os.path.join(data, "clip00", sub, f"{i:04d}.{ext}"))


def test_train_artifacts(workdir):
    out = workdir["train"]
    log = open(os.path.join(out, "loss_log.csv")).read().splitlines()
    assert log[0] == "step,loss,l1,l2,l3,l4,l5"
    assert len(log) == 1 + TINY_RUN["model"]["steps"]
    assert all(len(line.split(",")) == 7 for line in log[1:])
    assert os.path.isfile(os.path.join(out, "checkpoint"))
    assert os.path.isfile(os.path.join(out, "config.json"))


def test_train_determinism_bytes(workdir, tmp_path):
    out2 = tmp_path / "train2"
    assert (
        cli.main(
            ["train", "--config", workdir["cfg"], "--data", workdir["data"], "--out", str(out2)]
        )
        == 0
    )
    first, second = _tree_bytes(workdir["train"]), _tree_bytes(out2)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


def test_eval_checkpoint(workdir, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(
        [
            "eval",
            "--config",
            workdir["cfg"],
            "--checkpoint",
            os.path.join(workdir["train"], "checkpoint"),
            "--data",
            workdir["data"],
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = open(out / "report.csv").read().splitlines()
    assert rows[0] == "sequence,s_measure,max_f,mae"
    assert rows[1].startswith("clip00,")
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["sequences"] == 1
    assert 0.0 <= report["aggregate"]["mae"] <= 1.0


def test_predict_roundtrips_through_eval(workdir, tmp_path):
    pred_out = tmp_path / "p"
    ck = os.path.join(workdir["train"], "checkpoint")
    args = ["--config", workdir["cfg"], "--data", workdir["data"]]
    assert cli.main(["predict", "--checkpoint", ck, *args, "--out", str(pred_out)]) == 0
    maps = sorted(os.listdir(pred_out / "pred" / "clip00"))
    assert maps == ["0000.pgm", "0001.pgm", "0002.pgm"]
    img = _read_pnm(str(pred_out / "pred" / "clip00" / "0000.pgm"), "P5", 32)
    assert img.shape == (32, 32) and img.dtype == np.uint8

    direct, via_files = tmp_path / "e1", tmp_path / "e2"
    assert cli.main(["eval", "--checkpoint", ck, *args, "--out", str(direct)]) == 0
    assert (
        cli.main(["eval", "--pred-dir", str(pred_out / "pred"), *args, "--out", str(via_files)]) == 0
    )
    a = json.loads((direct / "report.json").read_text())["aggregate"]
    b = json.loads((via_files / "report.json").read_text())["aggregate"]
    for key in ("mae", "max_f", "s_measure"):
        assert abs(a[key] - b[key]) <= 0.005, key


def test_gradcheck_ops_passes(capsys):
    assert cli.main(["gradcheck", "--scope", "ops"]) == 0
    out = capsys.readouterr().out
    table = [line for line in out.splitlines() if "rel_err" in line]
    assert len(table) >= 12
    assert all("PASS" in line for line in table)


def test_gradcheck_failure_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify, "run_scope", lambda scope: [("broken", 1.0, 1e-6)])
    assert cli.main(["gradcheck", "--scope", "ops"]) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert captured.err.startswith("ERROR VERIFY:")


def test_eval_without_source_exits_2(workdir, capsys):
    assert cli.main(["eval", "--data", workdir["data"]]) == 2
    assert capsys.readouterr().err.startswith("ERROR CONFIG:")


def test_missing_dataset_exits_3(tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith("ERROR DATA:")


def _drop_manifest_frames(data_dir):
    path = os.path.join(data_dir, "manifest.json")
    doc = json.loads(open(path).read())
    del doc["clips"][0]["frames"]
    with open(path, "w") as fh:
        json.dump(doc, fh)


DATA_FAULTS = [
    ("missing_rgb_frame", lambda d: os.remove(os.path.join(d, "clip00", "rgb", "0003.ppm")), "0003.ppm"),
    ("missing_flow_frame", lambda d: os.remove(os.path.join(d, "clip00", "flow", "0000.flo")), "0000.flo"),
    ("manifest_entry_without_frames", _drop_manifest_frames, "'frames'"),
]


@pytest.fixture(scope="module")
def four_frame_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps({"clips": [{"seed": 5, "frames": 4, "size": 32, "contrast": 0.9}]}))
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("name,damage,named", DATA_FAULTS, ids=[c[0] for c in DATA_FAULTS])
def test_damaged_dataset_exits_3(four_frame_data, tmp_path, name, damage, named):
    data = tmp_path / "data"
    shutil.copytree(four_frame_data, data)
    damage(str(data))
    proc = subprocess.run(
        [sys.executable, "-m", "trisal.cli", "train", "--data", str(data), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), proc.stderr
    assert named in lines[0]


def test_non_binary_mask_exits_3(four_frame_data, tmp_path, capsys):
    data, pred = tmp_path / "data", tmp_path / "pred"
    shutil.copytree(four_frame_data, data)
    shutil.copytree(data / "clip00" / "gt", pred / "clip00")
    gt_path = str(data / "clip00" / "gt" / "0002.pgm")
    mask = _read_pnm(gt_path, "P5", 32).copy()
    mask[5, 7] = 128
    _write_pnm(gt_path, mask, "P5")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY_RUN))
    common = ["--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")]
    for argv in (["train", *common], ["eval", "--pred-dir", str(pred), *common]):
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3, (argv[0], err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), err
        assert gt_path in lines[0] and "[128]" in lines[0], err


def _edit_json(edit):
    def damage(path):
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)

    return damage


def _write_bytes(raw):
    def damage(path):
        with open(path, "wb") as fh:
            fh.write(raw)

    return damage


def _resize(by):
    """Cut ``-by`` bytes off the end of the file, or append ``by`` zero bytes."""

    def damage(path):
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:by] if by < 0 else raw + bytes(by))

    return damage


def _read_checkpoint(path):
    with open(path, "rb") as fh:
        header, _, payload = fh.read().partition(b"\n")
    return json.loads(header), payload


def _write_checkpoint(path, doc, payload):
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc).encode() + b"\n" + payload)


def _edit_header(edit):
    def damage(path):
        doc, payload = _read_checkpoint(path)
        edit(doc)
        _write_checkpoint(path, doc, payload)

    return damage


def _drop_first_tensor(path):
    """The header and the payload both lose the first tensor, so the file is
    self-consistent but lacks a tensor the model needs."""
    doc, payload = _read_checkpoint(path)
    _, shape = doc["tensors"].pop(0)
    _write_checkpoint(path, doc, payload[8 * int(np.prod(shape)) :])


def _negative_first_shape(doc):
    # the first tensor holds 8 values, so the product of dimensions still fits its payload
    doc["tensors"][0][1] = [-1, -8]


def _ones_in_first_1x1_conv(fill):
    """Every 1 in the first 1x1 conv's shape becomes ``fill``, equal to 1 in
    Python for ``True`` and ``1.0``; the payload stays as it is."""

    def edit(doc):
        entry = next(e for e in doc["tensors"] if e[1][2:] == [1, 1])
        entry[1] = [fill if d == 1 else d for d in entry[1]]

    return _edit_header(edit)


def _ck(data, ck, pred):
    return ck


def _data_manifest(data, ck, pred):
    return os.path.join(data, "manifest.json")


def _frame(sub, name):
    return lambda data, ck, pred: os.path.join(data, "clip00", sub, name)


def _prediction(name):
    return lambda data, ck, pred: os.path.join(pred, "clip00", name)


# name: (the file to damage, from the dataset, checkpoint and prediction
# paths; the damage). The ERROR DATA line has to name that file.
FILE_FAULTS = {
    "checkpoint_missing": (_ck, os.remove),
    "checkpoint_header_malformed": (_ck, _write_bytes(b"{bad\n" + bytes(64))),
    "checkpoint_header_without_step": (_ck, _edit_header(lambda doc: doc.pop("step"))),
    "checkpoint_header_without_tensors": (_ck, _edit_header(lambda doc: doc.pop("tensors"))),
    "checkpoint_tensors_list_short": (_ck, _edit_header(lambda doc: doc["tensors"].pop(0))),
    "checkpoint_tensor_deleted": (_ck, _drop_first_tensor),
    "checkpoint_of_other_variant": (_ck, _edit_header(lambda doc: doc["config"].update(variant="A1_no_depth"))),
    "checkpoint_tensor_truncated": (_ck, _resize(-8)),
    "checkpoint_payload_8_bytes_long": (_ck, _resize(8)),
    "checkpoint_tensor_negative_dims": (_ck, _edit_header(_negative_first_shape)),
    "checkpoint_tensor_bool_dims": (_ck, _ones_in_first_1x1_conv(True)),
    "checkpoint_tensor_float_dims": (_ck, _ones_in_first_1x1_conv(1.0)),
    "checkpoint_tensor_string_dims": (_ck, _ones_in_first_1x1_conv("a")),
    "dataset_clips_not_a_list": (_data_manifest, _write_bytes(b'{"clips": 5}')),
    "dataset_root_not_an_object": (_data_manifest, _write_bytes(b"[1, 2]")),
    "dataset_frames_not_a_number": (_data_manifest, _edit_json(lambda doc: doc["clips"][0].update(frames="two"))),
    "dataset_spec_unknown_key": (_data_manifest, _edit_json(lambda doc: doc["clips"][0]["spec"].update(sede=1))),
    "dataset_spec_too_small": (_data_manifest, _edit_json(lambda doc: doc["clips"][0]["spec"].update(size=8))),
    # each negative header's product of dimensions matches its payload
    "flow_header_negative_dims": (
        _frame("flow", "0000.flo"),
        _write_bytes(b"PIEH" + struct.pack("<ii", -1, -8) + bytes(64)),
    ),
    "depth_header_negative_dims": (_frame("depth", "0000.pgm"), _write_bytes(b"P5\n-1 -8\n255\n" + bytes(8))),
    # a well-formed 16 px map in a 32 px clip
    "depth_map_wrong_size": (_frame("depth", "0001.pgm"), _write_bytes(b"P5\n16 16\n255\n" + bytes(256))),
    "prediction_map_missing": (_prediction("0001.pgm"), os.remove),
    "prediction_map_wrong_size": (_prediction("0000.pgm"), _write_bytes(b"P5\n16 16\n255\n" + bytes(256))),
}


@pytest.fixture(scope="module")
def one_step_run(tmp_path_factory):
    """A 2-frame dataset, a 32 px checkpoint trained one step, and its predictions."""
    root = tmp_path_factory.mktemp("file_faults")
    run = {**TINY_RUN, "model": {**TINY_RUN["model"], "steps": 1}, "clips": [{**TINY_RUN["clips"][0], "frames": 2}]}
    cfg = root / "run.json"
    cfg.write_text(json.dumps(run))
    data, train, pred = str(root / "data"), str(root / "train"), str(root / "pred")
    assert cli.main(["gen-data", "--config", str(cfg), "--out", data]) == 0
    assert cli.main(["train", "--config", str(cfg), "--data", data, "--out", train]) == 0
    ck = os.path.join(train, "checkpoint")
    assert cli.main(["predict", "--config", str(cfg), "--data", data, "--checkpoint", ck, "--out", pred]) == 0
    return {"cfg": str(cfg), "data": data, "ck": ck, "pred": os.path.join(pred, "pred")}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
def test_damaged_file_exits_3(one_step_run, tmp_path, capsys, fault):
    data, ck, pred = (str(tmp_path / name) for name in ("data", "ck", "pred"))
    shutil.copytree(one_step_run["data"], data)
    shutil.copyfile(one_step_run["ck"], ck)
    shutil.copytree(one_step_run["pred"], pred)
    target, damage = FILE_FAULTS[fault]
    named = target(data, ck, pred)
    damage(named)
    source = ["--pred-dir", pred] if fault.startswith("prediction") else ["--checkpoint", ck]
    capsys.readouterr()
    code = cli.main(["eval", "--config", one_step_run["cfg"], "--data", data, *source, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), err
    assert named in lines[0] and len(lines[0]) <= 500


def test_eval_pred_dir_reads_only_masks(one_step_run, tmp_path, capsys):
    stripped = tmp_path / "stripped"
    shutil.copytree(one_step_run["data"], stripped)
    for sub in ("rgb", "depth", "flow"):
        shutil.rmtree(stripped / "clip00" / sub)
    common = ["eval", "--config", one_step_run["cfg"]]
    scored = {}
    for name, data in (("intact", one_step_run["data"]), ("stripped", str(stripped))):
        out = tmp_path / name
        assert cli.main([*common, "--data", data, "--pred-dir", one_step_run["pred"], "--out", str(out)]) == 0
        scored[name] = [(out / f).read_bytes() for f in ("report.json", "report.csv")]
    assert scored["stripped"] == scored["intact"]

    capsys.readouterr()
    checkpoint = ["--checkpoint", one_step_run["ck"], "--out", str(tmp_path / "ck")]
    code = cli.main([*common, "--data", str(stripped), *checkpoint])
    err = capsys.readouterr().err
    assert code == 3, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR DATA:"), err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.startswith("ERROR CONFIG:")


def test_env_var_sets_out_dir(workdir, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("TRISAL_OUT", str(env_dir))
    assert cli.main(["gen-data", "--config", workdir["cfg"]]) == 0
    assert os.path.isfile(env_dir / "manifest.json")

    flag_dir = tmp_path / "from_flag"
    assert cli.main(["gen-data", "--config", workdir["cfg"], "--out", str(flag_dir)]) == 0
    assert os.path.isfile(flag_dir / "manifest.json")
    assert not os.path.isdir(flag_dir / "from_env")


def test_ablate_report(workdir, tmp_path):
    root = workdir["root"]
    cfg_path = root / "ablate.json"
    doc = json.loads(open(workdir["cfg"]).read())
    doc["model"]["steps"] = 2
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "ab"
    code = cli.main(
        ["ablate", "--config", str(cfg_path), "--data", workdir["data"], "--out", str(out)]
    )
    assert code == 0
    rows = open(out / "ablation.csv").read().splitlines()
    assert rows[0] == "variant,max_f,s_measure,mae"
    labels = [r.split(",")[0] for r in rows[1:]]
    assert labels == ["A1", "B1", "B2", "C1", "C2", "C3", "C4", "Ours"]
    assert len(rows) == 9
    logs = sorted(os.listdir(out / "logs"))
    assert len(logs) == 8


def test_predict_requires_checkpoint_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--data", "x"])
    assert exc.value.code == 2


def test_console_entry_point(workdir):
    exe = shutil.which("trisal")
    argv = [exe] if exe else [sys.executable, "-m", "trisal.cli"]
    proc = subprocess.run(
        [*argv, "gradcheck", "--scope", "blocks"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
