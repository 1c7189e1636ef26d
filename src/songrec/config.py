"""Experiment configuration: one JSON document, strictly validated.

Defaults reproduce the reference experimental setup. Each section has
one settings type, the only place its reference values are written: the
dataclasses here for ``data`` and ``model``, and
:class:`songrec.evaluation.EvalConfig` for ``eval``. The type of every
setting is checked when the config loads, and its value whenever a
section is built (``dataclasses.replace`` too), so a bad one fails
before any data is read. Unknown keys are rejected so
typos cannot silently fall back to defaults. All randomness fans out from the single
root seed via named subseeds (see :func:`songrec.util.derive_seed`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from typing import ClassVar

from . import FAMILIES
from .data import OVERLAP_MODES, SHUFFLE_UNITS
from .evaluation import EvalConfig
from .models import Hyperparams
from .util import check_bounds, config_hash, derive_seed

MODEL_FAMILIES = tuple(FAMILIES)


# field annotation -> (what the value must be, its test)
_LEAF_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: (isinstance(v, int) and not isinstance(v, bool))
            or (isinstance(v, float) and math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
    tuple: ("a list", lambda v: isinstance(v, list)),
    str | None: ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def _from_dict(cls, d: dict, path: str):
    if not isinstance(d, dict):
        raise ValueError(f"{path} must be a JSON object, got {type(d).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"unknown config key(s) under {path}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in d:
            continue
        value = d[f.name]
        key = f"{path}.{f.name}"
        if dataclasses.is_dataclass(hints[f.name]):
            value = _from_dict(hints[f.name], value, key)
        else:
            what, ok = _LEAF_TYPES[hints[f.name]]
            if not ok(value):
                raise ValueError(f"{key} must be {what}, got {value!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


@dataclass
class DataConfig:
    raw_path: str | None = None
    prepared_dir: str | None = None
    vocab_cap: int = 10000
    gap_seconds: int = 3600
    ratios: list = field(default_factory=lambda: [0.7, 0.1, 0.2])
    overlap_mode: str = "drop-seen"
    shuffle_unit: str = "session"

    # (setting, comparison, bound), checked when the section is built
    BOUNDS: ClassVar = (("vocab_cap", ">=", 1), ("gap_seconds", ">=", 1))

    def __post_init__(self):
        is_number = _LEAF_TYPES[float][1]
        check_bounds(self, self.BOUNDS, "config.data.")
        if len(self.ratios) != 3 or not all(map(is_number, self.ratios)):
            raise ValueError(f"config.data.ratios must be three finite numbers, "
                             f"got {self.ratios!r}")
        if any(r < 0 for r in self.ratios):
            raise ValueError("need three non-negative ratios")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)}")
        if self.overlap_mode not in OVERLAP_MODES:
            raise ValueError(f"overlap_mode must be one of {OVERLAP_MODES}")
        if self.shuffle_unit not in SHUFFLE_UNITS:
            raise ValueError(f"shuffle_unit must be one of {SHUFFLE_UNITS}")


@dataclass
class W2vConfig:
    window: int = 5
    negatives: int = 5
    lr: float = 0.025
    epochs: int = 5

    BOUNDS: ClassVar = (("window", ">=", 1), ("negatives", ">=", 1), ("lr", ">", 0),
                        ("epochs", ">=", 0))


@dataclass
class WmfConfig:
    f: int = 60
    alpha: float = 40.0
    lam: float = 0.1
    iters: int = 15

    BOUNDS: ClassVar = (("f", ">=", 1), ("alpha", ">=", 0), ("lam", ">", 0), ("iters", ">=", 1))


@dataclass
class FpmcConfig:
    f: int = 32
    lr: float = 0.05
    lam: float = 0.01
    epochs: int = 30

    BOUNDS: ClassVar = (("f", ">=", 1), ("lr", ">", 0), ("lam", ">=", 0), ("epochs", ">=", 0))


@dataclass
class ModelConfig:
    family: str = "cnnrec"
    d: int = 60
    j: int = 5
    h: int = 300
    m: int = 325
    w: int = 2
    stride: int = 1
    epochs: int = 25
    batch: int = 50
    lr: float = 0.01
    dropout: float = 0.7
    dtype: str = "float64"
    w2v: W2vConfig = field(default_factory=W2vConfig)
    wmf: WmfConfig = field(default_factory=WmfConfig)
    fpmc: FpmcConfig = field(default_factory=FpmcConfig)

    # neural settings, read by cnnrec and nnrec (d by w2v too) and checked
    # for every family: Hyperparams' table, dropout_p under its key here
    BOUNDS: ClassVar = tuple(("dropout" if key == "dropout_p" else key, op, bound)
                             for key, op, bound in Hyperparams.BOUNDS)

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"family must be one of {MODEL_FAMILIES}, got {self.family!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")
        if self.dtype != "float64" and self.family not in ("cnnrec", "nnrec"):
            raise ValueError(f"config.model.dtype must be float64 for {self.family}: "
                             f"only cnnrec and nnrec train in {self.dtype}")
        for prefix, section in (("config.model.", self), ("config.model.w2v.", self.w2v),
                                ("config.model.wmf.", self.wmf), ("config.model.fpmc.", self.fpmc)):
            check_bounds(section, section.BOUNDS, prefix)
        if self.family == "cnnrec" and self.w > self.j:  # only cnnrec has filters
            raise ValueError(f"config.model.w must be <= config.model.j: filter width "
                             f"{self.w} exceeds context length {self.j}")

    def hyperparams(self) -> Hyperparams:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(Hyperparams)
                  if f.name != "dropout_p"}
        if self.family != "cnnrec":
            # only cnnrec has filters, so for every other family the
            # filter width must not bind the context length
            values["w"] = min(self.w, self.j)
        return Hyperparams(**values, dropout_p=self.dropout)


@dataclass
class ExperimentConfig:
    seed: int = 1
    out_dir: str = "run"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _from_dict(cls, d, "config")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())

    def subseed(self, component: str) -> int:
        return derive_seed(self.seed, component)

    def prepared_dir(self) -> str:
        import os

        return self.data.prepared_dir or os.path.join(self.out_dir, "prepared")


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one ``--set dotted.key=value`` override to the raw config dict.

    The value is parsed as JSON when possible, else taken as a string.
    """
    key, sep, text = assignment.partition("=")
    if not sep:
        raise ValueError(f"--set needs key=value, got {assignment!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot override through non-object key {part!r} in {key!r}")
    node[parts[-1]] = value
