"""Experiment configuration: one JSON document, strictly validated.

Defaults reproduce the reference experimental setup. Each section has
one settings type, the only place its reference values are written: the
dataclasses here for ``data`` and ``model`` (which extends
:class:`songrec.models.Hyperparams`), and :class:`songrec.evaluation.EvalConfig`
for ``eval``. The type of every setting is checked when the config loads,
and its value whenever a ``data``, ``model`` or ``eval`` section is built
(``dataclasses.replace`` too), so a bad one fails before any data is read;
``w2v``, ``wmf`` and ``fpmc`` are checked as part of ``model``, not alone.
Each value rule is a :func:`songrec.util.check_bounds` row of the type that
owns it; a family's own (cnnrec's filter width) are its model class's
``BOUNDS``, met by its models too. Every error names the setting's key.
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
    BOUNDS: ClassVar = (("vocab_cap", ">=", 1), ("gap_seconds", ">=", 1),
                        ("overlap_mode", "one of", OVERLAP_MODES),
                        ("shuffle_unit", "one of", SHUFFLE_UNITS))

    def __post_init__(self):
        is_number = LEAF_TYPES[float][1]
        check_bounds(self, self.BOUNDS, "config.data.")
        if len(self.ratios) != 3 or not all(is_number(r) and r >= 0 for r in self.ratios):
            raise ValueError(f"config.data.ratios must be three finite non-negative numbers, "
                             f"got {self.ratios!r}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"config.data.ratios must be fractions that sum to 1, "
                             f"got {self.ratios!r}")


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

    BOUNDS: ClassVar = (("family", "one of", tuple(FAMILIES)), *Hyperparams.BOUNDS)

    def __post_init__(self):  # in place of Hyperparams' check, naming each key in full
        for prefix, section in (("config.model.", self), ("config.model.w2v.", self.w2v),
                                ("config.model.wmf.", self.wmf), ("config.model.fpmc.", self.fpmc)):
            check_bounds(section, section.BOUNDS, prefix)
        family = FAMILIES[self.family]
        if self.dtype not in family.DTYPES:
            raise ValueError(f"config.model.dtype must be {' or '.join(family.DTYPES)} for "
                             f"{self.family}: got {self.dtype!r}")
        check_bounds(self, family.BOUNDS, "config.model.")


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
