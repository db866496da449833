"""Run configuration: one JSON document covering the model, the metrics, and
the dataset/output paths. Every field has a default, so ``{}`` is a complete
config; unknown keys anywhere in the document are rejected."""

import os
from dataclasses import asdict, dataclass, field

from .data import ClipSpec, preset_specs
from .errors import ConfigError, read_json, reject_unknown_keys, write_json
from .metrics import MetricsConfig
from .model import ModelConfig

@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    preset: str = "overfit"
    clips: list = field(default_factory=list)  # explicit ClipSpecs override the preset
    data_dir: str = "data"
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, d):
        reject_unknown_keys(d, cls, "config")
        parse = {
            "model": ModelConfig.from_dict,
            "metrics": MetricsConfig.from_dict,
            "clips": lambda clips: [ClipSpec.from_dict(c) for c in clips],
        }
        return cls(**{k: parse.get(k, lambda v: v)(v) for k, v in d.items()})

    def specs(self):
        """Clip specs to generate: explicit list if given, else the preset."""
        return list(self.clips) if self.clips else preset_specs(self.preset)


def load_config(path=None):
    """Parse a JSON run config; a missing path means all defaults."""
    if path is None:
        return RunConfig.from_dict({})
    return read_json(path, RunConfig.from_dict, ConfigError)


def echo_config(cfg, out_dir):
    """Write the fully resolved config next to the run's outputs."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    write_json(path, asdict(cfg))
    return path
