"""Experiment configuration: one JSON document, strictly validated.

Defaults reproduce the reference experimental setup (catalog cap 10000,
1-hour session gap, 7:1:2 split, embedding dim 60, context 5, hidden
300, 325 width-2 filters, 25 epochs, batch 50, learning rate 0.01,
dropout 0.7). Unknown keys are rejected so typos cannot silently fall
back to defaults. All randomness fans out from the single root seed via
named subseeds (see :func:`songrec.util.derive_seed`).
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .data import OVERLAP_MODES, SHUFFLE_UNITS
from .evaluation import DEFAULT_KS, EvalConfig
from .models import Hyperparams
from .util import config_hash, derive_seed

MODEL_FAMILIES = ("cnnrec", "nnrec", "w2v", "wmf", "fpmc")


# field annotation -> (what the value must be, its test)
_LEAF_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
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
        if f.name in _NESTED:
            value = _from_dict(_NESTED[f.name], value, key)
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

    def validate(self):
        if self.vocab_cap < 1:
            raise ValueError("vocab_cap must be >= 1")
        if self.gap_seconds < 1:
            raise ValueError("gap_seconds must be >= 1")
        if len(self.ratios) != 3:
            raise ValueError("ratios must have three entries")
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


@dataclass
class WmfConfig:
    f: int = 60
    alpha: float = 40.0
    lam: float = 0.1
    iters: int = 15


@dataclass
class FpmcConfig:
    f: int = 32
    lr: float = 0.05
    lam: float = 0.01
    epochs: int = 30


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
    dropout_is_keep: bool = False  # flip if 0.7 should mean keep probability
    dtype: str = "float64"
    w2v: W2vConfig = field(default_factory=W2vConfig)
    wmf: WmfConfig = field(default_factory=WmfConfig)
    fpmc: FpmcConfig = field(default_factory=FpmcConfig)

    def validate(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"family must be one of {MODEL_FAMILIES}, got {self.family!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")
        self.hyperparams()  # validates the numeric fields

    def hyperparams(self) -> Hyperparams:
        drop = 1.0 - self.dropout if self.dropout_is_keep else self.dropout
        return Hyperparams(
            d=self.d,
            j=self.j,
            h=self.h,
            m=self.m,
            w=self.w,
            stride=self.stride,
            epochs=self.epochs,
            batch=self.batch,
            lr=self.lr,
            dropout_p=drop,
        )


@dataclass
class EvalSettings:
    ks: list = field(default_factory=lambda: list(DEFAULT_KS))
    protocol: str = "full"
    n_neg: int = 1000
    exclude_train_songs: bool = False

    def to_eval_config(self, seed: int) -> EvalConfig:
        return EvalConfig(
            ks=tuple(self.ks),
            protocol=self.protocol,
            n_neg=self.n_neg,
            seed=seed,
            exclude_train_songs=self.exclude_train_songs,
        )


_NESTED = {
    "data": DataConfig,
    "model": ModelConfig,
    "eval": EvalSettings,
    "w2v": W2vConfig,
    "wmf": WmfConfig,
    "fpmc": FpmcConfig,
}


@dataclass
class ExperimentConfig:
    seed: int = 1
    out_dir: str = "run"
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def validate(self):
        self.data.validate()
        self.model.validate()
        self.eval.to_eval_config(0)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cfg = _from_dict(cls, d, "config")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

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
