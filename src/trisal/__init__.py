"""Desk-scale trimodal (appearance, depth, motion) video salient object
detection: a dense-tensor autodiff engine, the network blocks built on it,
cross-modal attention and refinement fusion, synthetic clip generation,
saliency metrics, and a CLI. Everything runs on numpy in float64 and is
deterministic for a fixed seed."""

from .config import RunConfig, load_config
from .data import ClipSpec, TrimodalSample, generate_clip, preset_specs, read_dataset, write_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    NumericalError,
    ShapeError,
    TrisalError,
    VerificationError,
)
from .metrics import evaluate_sequences, mae, max_f_measure, s_measure
from .model import (
    VARIANT_LABELS,
    VARIANTS,
    ModelConfig,
    SaliencyModel,
    build,
    fit,
    load_checkpoint,
    loss_total,
    predict,
    save_checkpoint,
)
from .tensor import Tape, Tensor, grad_check

__version__ = "0.1.0"

__all__ = [
    "ClipSpec",
    "ConfigError",
    "ContractError",
    "DataError",
    "ModelConfig",
    "NumericalError",
    "RunConfig",
    "SaliencyModel",
    "ShapeError",
    "Tape",
    "Tensor",
    "TrimodalSample",
    "TrisalError",
    "VARIANTS",
    "VARIANT_LABELS",
    "VerificationError",
    "build",
    "evaluate_sequences",
    "fit",
    "generate_clip",
    "grad_check",
    "load_checkpoint",
    "load_config",
    "loss_total",
    "mae",
    "max_f_measure",
    "predict",
    "preset_specs",
    "read_dataset",
    "s_measure",
    "save_checkpoint",
    "write_dataset",
    "__version__",
]
