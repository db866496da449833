import json

import pytest

from trisal.config import RunConfig, echo_config, load_config
from trisal.data import ClipSpec
from trisal.errors import ConfigError


def test_empty_document_is_complete():
    cfg = RunConfig.from_dict({})
    assert cfg.model.width == 16
    assert cfg.metrics.thresholds == 256
    assert cfg.preset == "overfit"
    assert cfg.data_dir == "data"
    assert cfg.out_dir == "out"


def test_empty_document_is_the_dataclass_default():
    assert RunConfig.from_dict({}) == RunConfig()


def test_load_config_none_gives_defaults():
    assert load_config(None) == RunConfig.from_dict({})


def test_nested_sections_parsed():
    cfg = RunConfig.from_dict(
        {
            "model": {"width": 8, "steps": 3, "variant": "A1_no_depth"},
            "metrics": {"thresholds": 16},
            "clips": [{"seed": 9, "frames": 2, "size": 32}],
            "out_dir": "runs/x",
        }
    )
    assert cfg.model.width == 8
    assert cfg.model.variant == "A1_no_depth"
    assert cfg.metrics.thresholds == 16
    assert cfg.clips == [ClipSpec(seed=9, frames=2, size=32)]
    assert cfg.out_dir == "runs/x"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="wdith"):
        RunConfig.from_dict({"wdith": 8})


def test_unknown_nested_keys_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"model": {"widht": 8}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"metrics": {"beta": 0.3}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"clips": [{"sede": 1}]})


def test_explicit_clips_override_preset():
    cfg = RunConfig.from_dict({"preset": "train5", "clips": [{"seed": 3}]})
    assert cfg.specs() == [ClipSpec(seed=3)]
    assert len(RunConfig.from_dict({"preset": "train5"}).specs()) == 5


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": {"seed": 7}, "preset": "heldout3"}))
    cfg = load_config(str(path))
    assert cfg.model.seed == 7
    assert len(cfg.specs()) == 3


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.json")


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(str(path))


def test_load_config_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path))


def test_echo_config_roundtrips(tmp_path):
    cfg = RunConfig.from_dict({"model": {"width": 8}, "clips": [{"seed": 2, "frames": 2}]})
    path = echo_config(cfg, str(tmp_path / "out"))
    with open(path) as fh:
        doc = json.load(fh)
    assert RunConfig.from_dict(doc) == cfg
