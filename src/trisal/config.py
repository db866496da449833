"""Run configuration: one JSON document covering the model and the
dataset/output paths. Every field has a default, so ``{}`` is a complete
config; unknown keys anywhere in the document are rejected."""

import os
from dataclasses import asdict, dataclass, field

from .data import ClipSpec, preset_specs
from .errors import ConfigError, from_fields, read_json, write_json
from .model import ModelConfig


def _clip_specs(docs):
    if not isinstance(docs, list):
        raise ConfigError(f"clips must be a JSON list, got {docs!r:.80}")
    return [ClipSpec.from_dict(d) for d in docs]


# The fields of RunConfig that hold a nested document, and how each is parsed.
NESTED = {"model": ModelConfig.from_dict, "clips": _clip_specs}


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    preset: str = "overfit"
    clips: list = field(default_factory=list)  # explicit ClipSpecs override the preset
    data_dir: str = "data"
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, d):
        return from_fields(cls, d, "config", NESTED)

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
    path = os.path.join(out_dir, "config.json")
    write_json(path, asdict(cfg))
    return path
