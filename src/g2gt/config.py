"""Declarative run configuration: a flat YAML key-value file plus overrides.

Resolution order for every setting: command-line flag, then config file,
then (for the seed only) the ``G2GT_SEED`` environment variable, then the
built-in default.  Unknown keys and values of the wrong type are rejected.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import yaml

from .errors import DataError, UsageError
from .model import ModelConfig
from .refine import RefinementConfig

__all__ = ["RunConfig", "load_config_file"]

SEED_ENV_VAR = "G2GT_SEED"


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """The architecture settings of :class:`ModelConfig` plus the settings
    of one run.  Every field is a config-file key."""

    # data and artifacts
    train_file: Optional[str] = None
    dev_file: Optional[str] = None
    model_out: str = "model.g2gt"
    # optimization
    seed: int = 0
    epochs: int = 200
    batch_size: int = 4
    lr: float = 1e-3
    stop_at_las: Optional[float] = None
    # refinement
    t_train: int = RefinementConfig.t_train
    t_max: int = RefinementConfig.t_max

    def __post_init__(self):
        # the architecture's dimension checks run in validate_for_training
        self.check_types()

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.to_dict())

    def refinement_config(self) -> RefinementConfig:
        return RefinementConfig(t_max=self.t_max, t_train=self.t_train)

    def validate_for_training(self) -> None:
        if not self.train_file:
            raise UsageError("training needs train_file")
        if not Path(self.train_file).is_file():
            raise DataError(f"train_file not found: {self.train_file}")
        if self.dev_file and not Path(self.dev_file).is_file():
            raise DataError(f"dev_file not found: {self.dev_file}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 < self.lr < math.inf):
            raise UsageError(f"lr must be a positive finite number, got {self.lr}")
        if self.stop_at_las is not None and not (0 <= self.stop_at_las <= 100):
            raise UsageError(f"stop_at_las must lie in [0, 100], got {self.stop_at_las}")
        self.model_config()       # raises UsageError on bad dimensions
        self.refinement_config()

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_sources(cls, file_values: Optional[dict] = None,
                     overrides: Optional[dict] = None) -> "RunConfig":
        """Merge config-file values and flag overrides over the defaults."""
        merged: dict = {}
        for source in (file_values or {}, overrides or {}):
            for key, value in source.items():
                if value is None:
                    continue
                if key not in cls.field_names():
                    raise UsageError(f"unknown configuration key {key!r}")
                merged[key] = value
        if "seed" not in merged:
            env_seed = os.environ.get(SEED_ENV_VAR)
            if env_seed is not None:
                try:
                    merged["seed"] = int(env_seed)
                except ValueError:
                    raise UsageError(
                        f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                    ) from None
        return cls(**merged)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, but a plain scalar with an exponent, such as
    ``1e-3``, ``2E5`` or ``1.0e3``, is a float as in YAML 1.2; YAML 1.1 reads
    it as a string.  A quoted ``'1e-3'`` stays a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except yaml.YAMLError as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a flat key-value mapping")
    return raw
