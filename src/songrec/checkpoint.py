"""Binary checkpoint container shared by every model family.

Layout: 8 magic bytes ``SNGREC01``, a little-endian uint64 header
length, a UTF-8 JSON header, then raw little-endian IEEE-754 tensor
payloads in manifest order. The header carries the model type, its
hyperparameter dict, and a tensor manifest (name, dims, dtype, byte
offset relative to the payload section). Loading validates every
manifest entry against the actual payload bytes, and model
reconstruction re-validates shapes against the architecture.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

MAGIC = b"SNGREC01"


def save(path, model_type: str, meta: dict, tensors: dict) -> None:
    """Write a checkpoint atomically (temp file + rename)."""
    manifest = []
    payloads = []
    offset = 0
    for name, t in tensors.items():
        t = np.ascontiguousarray(t)
        le = t.astype(t.dtype.newbyteorder("<"), copy=False)
        blob = le.tobytes()
        manifest.append(
            {
                "name": name,
                "shape": list(t.shape),
                "dtype": le.dtype.str,
                "offset": offset,
            }
        )
        payloads.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"model_type": model_type, "meta": meta, "tensors": manifest},
        sort_keys=True,
    ).encode("utf-8")

    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in payloads:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path) -> tuple[str, dict, dict]:
    """Read a checkpoint back as (model_type, meta, {name: array})."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint (magic {magic!r})")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        payload = fh.read()
    tensors = {}
    for entry in header["tensors"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        n_bytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        start = entry["offset"]
        if start + n_bytes > len(payload):
            raise ValueError(
                f"{path}: tensor {entry['name']} overruns payload "
                f"({start}+{n_bytes} > {len(payload)})"
            )
        arr = np.frombuffer(payload, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)), offset=start)
        tensors[entry["name"]] = arr.reshape(shape).copy()
    return header["model_type"], header["meta"], tensors


def _families(base) -> dict:
    """model_type -> class, over every subclass of ``base`` that names one."""
    out = {}
    for cls in base.__subclasses__():
        if cls.model_type:
            out[cls.model_type] = cls
        out.update(_families(cls))
    return out


def load_model(path):
    """Reconstruct the right model object from a checkpoint file."""
    from . import baselines, models  # noqa: F401  (defines every family)
    from .util import Recommender

    families = _families(Recommender)
    model_type, meta, tensors = load(path)
    if model_type not in families:
        raise ValueError(f"unknown model type {model_type!r} in {path}")
    return families[model_type].from_checkpoint(meta, tensors)
