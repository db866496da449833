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
        return cls(
            model=ModelConfig.from_dict(d.get("model", {})),
            metrics=MetricsConfig.from_dict(d.get("metrics", {})),
            preset=d.get("preset", "overfit"),
            clips=[ClipSpec.from_dict(c) for c in d.get("clips", [])],
            data_dir=d.get("data_dir", "data"),
            out_dir=d.get("out_dir", "out"),
        )

    def specs(self):
        """Clip specs to generate: explicit list if given, else the preset."""
        return list(self.clips) if self.clips else preset_specs(self.preset)

    def resolved(self):
        return asdict(self)


def load_config(path=None):
    """Parse a JSON run config; a missing path means all defaults."""
    if path is None:
        return RunConfig.from_dict({})
    return read_json(path, RunConfig.from_dict, ConfigError)


def echo_config(cfg, out_dir):
    """Write the fully resolved config next to the run's outputs."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    write_json(path, cfg.resolved())
    return path
