"""Experiment configuration: one JSON document, strictly validated.

Defaults reproduce the reference experimental setup. Each section has
one settings type, the only place its reference values are written: the
dataclasses here for ``data`` and ``model`` (which extends
:class:`songrec.models.Hyperparams`), and :class:`songrec.evaluation.EvalConfig`
for ``eval``. The type of every setting is checked when the config loads,
and its value whenever a ``data``, ``model`` or ``eval`` section is built
(``dataclasses.replace`` too), so a bad one fails before any data is read;
``w2v``, ``wmf`` and ``fpmc`` are checked as part of ``model``, not alone.
Unknown keys are rejected so typos cannot silently fall back to defaults.
All randomness fans out from the single root seed via named subseeds (see
:func:`songrec.util.derive_seed`).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import ClassVar

from . import FAMILIES
from .data import OVERLAP_MODES, SHUFFLE_UNITS
from .evaluation import EvalConfig
from .models import Hyperparams
from .util import LEAF_TYPES, check_bounds, config_hash, dataclass_from_dict, derive_seed

MODEL_FAMILIES = tuple(FAMILIES)


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
        is_number = LEAF_TYPES[float][1]
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


@dataclass(frozen=True)
class ModelConfig(Hyperparams):
    # the neural settings, read by cnnrec and nnrec (d by w2v too) and
    # checked for every family, come from Hyperparams
    family: str = "cnnrec"
    dtype: str = "float64"
    w2v: W2vConfig = field(default_factory=W2vConfig)
    wmf: WmfConfig = field(default_factory=WmfConfig)
    fpmc: FpmcConfig = field(default_factory=FpmcConfig)

    def __post_init__(self):  # in place of Hyperparams' check, which refuses w > j
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


@dataclass
class ExperimentConfig:
    seed: int = 1
    out_dir: str = "run"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return dataclass_from_dict(cls, d, "config")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())

    def subseed(self, component: str) -> int:
        return derive_seed(self.seed, component)

    def prepared_dir(self) -> str:
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
