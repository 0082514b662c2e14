"""Experiment configuration: a strict, nested JSON file.

The schema is the dataclasses themselves: :class:`RunConfig` and the
classes its fields name.  Unknown keys are fatal, values are checked
against the field annotations, and a field without a default is required.
Every field, defaults materialized, enters the config hash recorded in
checkpoints.  Parsing failures report the JSON line/column; validation
failures report the dotted field path.  A dataset the model cannot take
(an ``image_size`` other than ``arch.image_size``) fails validation, and so
does a finetune dataset that reuses a pretraining dataset's id with another
spec: one id names one dataset.  Checkpoint manifests are decoded by the
same rules.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass

from .engine import TrainConfig
from .model import ArchConfig
from .synthdata import SynthDatasetSpec

__all__ = ["ConfigError", "FinetuneSpec", "RunConfig", "load_run_config",
           "run_config_from_dict", "config_hash"]


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


@dataclass(frozen=True)
class FinetuneSpec:
    dataset: SynthDatasetSpec
    mode: str = "full"
    few_shot: int | None = None
    epochs: int = 5

    def __post_init__(self):
        if self.mode not in ("full", "head_only"):
            raise ValueError(f"finetune mode must be 'full' or 'head_only', got {self.mode!r}")
        if self.epochs < 1:
            raise ValueError("finetune epochs must be >= 1")
        if self.few_shot is not None and self.few_shot < 1:
            raise ValueError("few_shot must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    datasets: tuple[SynthDatasetSpec, ...]
    arch: ArchConfig = ArchConfig()
    train: TrainConfig = TrainConfig()
    finetune: FinetuneSpec | None = None


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _coerce(value, expected, path: str):
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"{path}: expected int, got bool")
    if not isinstance(value, expected):
        raise ConfigError(
            f"{path}: expected {expected.__name__}, got {type(value).__name__}"
        )
    return value


def _value(tp, value, path: str):
    """A JSON value converted to the field annotation ``tp``."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        # ``X | None`` fields take an X; leave the key out for None
        (tp,) = [a for a in args if a is not type(None)]
        return _value(tp, value, path)
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, path)
    if typing.get_origin(tp) is dict:
        items = _coerce(value, dict, path)
        return {k: _value(args[1], v, _join(path, k)) for k, v in items.items()}
    if typing.get_origin(tp) is tuple:
        items = _coerce(value, list, path)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(items)
        elif len(items) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} items, got {len(items)}")
        return tuple(_value(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, items)))
    return _coerce(value, tp, path)


@functools.cache
def _hints(cls) -> dict:
    """Field annotations of dataclass ``cls``, resolved once per class."""
    return typing.get_type_hints(cls)


def _from_dict(cls, d, path: str):
    """Build dataclass ``cls`` from a JSON object, schema from its fields."""
    where = path or "top level"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in d:
        if key not in fields:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    hints = _hints(cls)
    kw = {}
    for name, f in fields.items():
        field_path = _join(path, name)
        if name not in d:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{field_path}: required key missing")
        else:
            kw[name] = _value(hints[name], d[name], field_path)
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}")


def run_config_from_dict(d: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, d, "")
    if not cfg.datasets:
        raise ConfigError("datasets: at least one dataset is required")
    # the model takes the generated images as they are, arch.image_size wide
    specs = [(f"datasets[{i}]", spec) for i, spec in enumerate(cfg.datasets)]
    if cfg.finetune is not None:
        specs.append(("finetune.dataset", cfg.finetune.dataset))
    for where, spec in specs:
        if spec.image_size != cfg.arch.image_size:
            raise ConfigError(f"{where}.image_size: {spec.image_size} differs from "
                              f"arch.image_size {cfg.arch.image_size}")
    seen_ids = set()
    for i, spec in enumerate(cfg.datasets):
        if spec.dataset_id in seen_ids:
            raise ConfigError(f"datasets[{i}].dataset_id: duplicate '{spec.dataset_id}'")
        seen_ids.add(spec.dataset_id)
    if cfg.finetune is not None:
        new = cfg.finetune.dataset
        for i, spec in enumerate(cfg.datasets):
            if spec.dataset_id == new.dataset_id and spec != new:
                raise ConfigError(f"finetune.dataset: reuses the id '{new.dataset_id}' of "
                                  f"datasets[{i}] with another spec; one id names one dataset")
    return cfg


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    return run_config_from_dict(data)


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 over every field, defaults materialized, except ``out_dir``.

    The output location does not change the experiment.
    """
    canon = dataclasses.asdict(cfg)
    del canon["out_dir"]
    payload = json.dumps(canon, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
