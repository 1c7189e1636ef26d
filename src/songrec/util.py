"""Shared plumbing: seeding, the scoring interface every model family
implements, the epoch loop of every trainer, atomic file writes.

All randomness in the repository flows through ``numpy.random.Generator``
instances backed by the PCG64 bit generator (``np.random.default_rng``).
Identical seeds give identical streams.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import operator
import os
import time
import typing
from typing import ClassVar

import numpy as np

logger = logging.getLogger(__name__)


def derive_seed(root_seed: int, component: str) -> int:
    """Derive a per-component subseed from the root seed.

    Uses blake2b over ``"<root>:<component>"`` so components can be
    re-seeded independently while everything remains a pure function of
    the root seed.
    """
    digest = hashlib.blake2b(
        f"{root_seed}:{component}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def make_rng(seed: int) -> np.random.Generator:
    """The repository-wide generator: PCG64, seeded."""
    return np.random.default_rng(seed)


class Recommender:
    """The one interface evaluation, checkpoints and the CLI use for every
    model family.

    ``score_batch(users, contexts)`` returns a (B, n_songs) score matrix,
    higher meaning more likely next; ``contexts`` is (B, L) oldest first.
    ``order`` is the context length L the family consumes, or None when it
    accepts any length. ``n_users`` is the number of users the family
    keeps state for, or None when it keeps no per-user state.
    ``model_type`` names the family in configs and checkpoints. An
    out-of-range user or song index raises ``IndexError``.

    A family declares its tensors once: ``TENSORS`` maps each attribute to
    the meta keys of its dims, in checkpoint order. Checkpoint meta (the
    dims alone), construction from a checkpoint and ``n_songs``/``n_users``
    all follow from that.
    """

    model_type: str = ""
    order: int | None = None
    TENSORS: ClassVar[dict] = {}

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in self.TENSORS}

    def _dims(self) -> dict:
        return {key: n for name, keys in self.TENSORS.items()
                for key, n in zip(keys, getattr(self, name).shape)}

    @property
    def n_songs(self) -> int:
        return self._dims()["n_songs"]

    @property
    def n_users(self) -> int | None:
        return self._dims().get("n_users")

    def to_checkpoint(self):
        return self.model_type, self._dims(), self.tensors()

    @classmethod
    def from_checkpoint(cls, meta, tensors):
        """The model holding the checkpoint's tensors themselves, each
        checked against the shape its meta dims give; other meta keys are
        ignored."""
        shapes = {name: tuple(meta[key] for key in keys) for name, keys in cls.TENSORS.items()}
        return cls(**checked_tensors(tensors, shapes))

    def score_batch(self, users, contexts) -> np.ndarray:
        raise NotImplementedError

    def score_catalog(self, u, context) -> np.ndarray:
        """Scores over the catalog for one (user, context)."""
        return self.score_batch([u], [context])[0]


# a random init's loss sits at chance and a first epoch's mean may rise
# a little above it while training settles, but never to this multiple
CHANCE_FACTOR = 10


def fit(model: Recommender, epochs: int, epoch, work: int, unit: str, *,
        chance=None, ceiling=None) -> list[float]:
    """Train ``model`` for ``epochs`` epochs (ALS iterations for wmf), each
    one call of ``epoch()``, ``work`` ``unit``s long (examples, pairs,
    ...), which returns that epoch's history entries as Python floats;
    the last of them is its loss. ``chance`` and ``ceiling`` are optional
    (name, value) pairs: the loss of an untrained model and the loss at
    which training saturates. Returns every entry, in order.

    Each epoch k (from 1) ends here: ``ValueError`` naming k if its loss
    or any tensor is not finite; a warning if the loss is within 1% of the
    ceiling, or else above ``CHANCE_FACTOR`` times chance or, from the
    second epoch on, where a random init's loss already sits, 1% above it;
    then one progress line, timed from the call."""
    history: list[float] = []
    start = last = time.perf_counter()
    for k in range(1, epochs + 1):
        history += epoch()
        loss = history[-1]
        bad = [name for name, t in model.tensors().items() if not np.isfinite(t).all()]
        if bad or not math.isfinite(loss):
            raise ValueError(f"training diverged in epoch {k}: loss {loss!r}, "
                             f"non-finite tensors: {', '.join(bad) or 'none'}")
        if ceiling and abs(loss - ceiling[1]) <= 0.01 * ceiling[1]:
            logger.warning("epoch %d loss %.4f is within 1%% of %s = %.2f, where training "
                           "saturates; is the learning rate too high?", k, loss, *ceiling)
        elif chance and loss > (1.01 if k > 1 else CHANCE_FACTOR) * chance[1]:
            logger.warning("epoch %d loss %.4f is above %s = %.2f, worse than an untrained "
                           "model; is the learning rate too high?", k, loss, *chance)
        now = time.perf_counter()
        logger.info("%s epoch %d/%d: loss %.4f, %.0f %s/s, %.1fs elapsed",
                    model.model_type, k, epochs, loss, work / (now - last), unit, now - start)
        last = now
    return history


def checked_tensors(tensors: dict, shapes: dict) -> dict:
    """The checkpoint ``tensors`` in the order of ``shapes`` (name ->
    shape); ``ValueError`` unless their names are those of ``shapes``
    and each array has its shape there."""
    if set(tensors) != set(shapes):
        raise ValueError(f"tensors {sorted(tensors)} != {sorted(shapes)}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise ValueError(f"tensor {name}: shape {tensors[name].shape} != {shape}")
    return {name: tensors[name] for name in shapes}


# field annotation -> (what the value must be, its test)
LEAF_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: (isinstance(v, int) and not isinstance(v, bool))
            or (isinstance(v, float) and math.isfinite(v))),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
    tuple: ("a list", lambda v: isinstance(v, list)),
    str | None: ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def dataclass_from_dict(cls, d: dict, path: str):
    """``cls`` built from the JSON object ``d``, a nested dataclass field
    from its own object; ``ValueError`` naming ``path`` plus the key for
    an unknown key or a value that is not of its field's type."""
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
            value = dataclass_from_dict(hints[f.name], value, key)
        else:
            what, ok = LEAF_TYPES[hints[f.name]]
            if not ok(value):
                raise ValueError(f"{key} must be {what}, got {value!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}


def check_bounds(settings, bounds, prefix: str = "") -> None:
    """``ValueError`` naming ``prefix + key`` at the first (key, comparison,
    bound) of ``bounds`` that the setting ``key`` of ``settings`` fails;
    NaN fails every comparison."""
    for key, op, bound in bounds:
        value = getattr(settings, key)
        if not _COMPARISONS[op](value, bound):
            raise ValueError(f"{prefix}{key} must be {op} {bound}, got {value!r}")


def config_hash(obj) -> str:
    """sha256 hex digest of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def atomic_write(path, chunks) -> None:
    """Write the bytes ``chunks`` to ``path`` via a temp file in the same
    directory and a rename, so ``path`` holds its old bytes or all the new
    ones. The file gets mode 0o666 less the umask, as ``open`` creates it."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
