"""Binary checkpoint container shared by every model family.

Layout: 8 magic bytes ``SNGREC01``, a little-endian uint64 header
length, a UTF-8 JSON header, then raw little-endian IEEE-754 tensor
payloads in manifest order. The header carries the model type, its
meta dict (the tensor dims, and for cnnrec/nnrec their settings), and
a tensor manifest (name, dims, dtype, byte offset relative to the
payload section). Loading validates every manifest entry against the
actual payload bytes, and model reconstruction re-validates shapes
against the architecture.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import FAMILIES
from .util import atomic_write

MAGIC = b"SNGREC01"


def save(path, model_type: str, meta: dict, tensors: dict) -> None:
    """Write a checkpoint atomically (temp file + rename).

    Each tensor's little-endian buffer is written as it stands; only a
    tensor that is not already contiguous and little-endian is copied.
    """
    manifest = []
    payloads = []
    offset = 0
    for name, t in tensors.items():
        t = np.ascontiguousarray(t)
        le = t.astype(t.dtype.newbyteorder("<"), copy=False)
        manifest.append(
            {
                "name": name,
                "shape": list(t.shape),
                "dtype": le.dtype.str,
                "offset": offset,
            }
        )
        payloads.append(le.reshape(-1).view(np.uint8))
        offset += le.nbytes
    header = json.dumps(
        {"model_type": model_type, "meta": meta, "tensors": manifest},
        sort_keys=True,
    ).encode("utf-8")

    atomic_write(path, [MAGIC, struct.pack("<Q", len(header)), header, *payloads])


def load(path) -> tuple[str, dict, dict]:
    """Read a checkpoint back as (model_type, meta, {name: array}).

    The header length is checked against the file size before the header
    is parsed, and each manifest extent before its tensor is read straight
    into its own array, so a cut file reports truncation.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint (magic {magic!r})")
        prefix = len(MAGIC) + 8
        if size < prefix:
            raise ValueError(
                f"{path}: truncated checkpoint: {size} bytes, header length needs {prefix}"
            )
        (header_len,) = struct.unpack("<Q", fh.read(8))
        if prefix + header_len > size:
            raise ValueError(
                f"{path}: truncated checkpoint: {size} bytes, header ends at "
                f"{prefix + header_len}"
            )
        header = _checked_header(path, fh.read(header_len))
        payload_start = prefix + header_len
        payload_len = size - payload_start
        tensors = {}
        for entry in header["tensors"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            n_bytes = dtype.itemsize * math.prod(shape)
            start = entry["offset"]
            if start + n_bytes > payload_len:
                raise ValueError(
                    f"{path}: truncated checkpoint: tensor {entry['name']} overruns "
                    f"payload ({start}+{n_bytes} > {payload_len})"
                )
            arr = np.empty(shape, dtype=dtype)
            fh.seek(payload_start + start)
            fh.readinto(arr.reshape(-1).view(np.uint8))
            tensors[entry["name"]] = arr
    return header["model_type"], header["meta"], tensors


def _good_entry(entry) -> bool:
    """Whether a manifest entry is exactly a string name, a list of dims, a
    dtype ``save`` writes for some family (``<f8`` or ``<f4``) and an
    offset, the dims and the offset JSON ints >= 0."""
    return (isinstance(entry, dict) and set(entry) == {"name", "shape", "dtype", "offset"}
            and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
            and all(type(n) is int and n >= 0 for n in [*entry["shape"], entry["offset"]])
            and entry["dtype"] in ("<f8", "<f4"))


def _checked_header(path, blob: bytes) -> dict:
    """The parsed header; ``ValueError`` naming ``path`` unless it is an
    object with a model type, a meta object and a list of good entries,
    no two of them with one name."""
    def malformed(detail):
        return ValueError(f"{path}: malformed checkpoint header: {detail}")

    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise malformed(exc) from None
    if not (isinstance(header, dict) and isinstance(header.get("model_type"), str)
            and isinstance(header.get("meta"), dict) and isinstance(header.get("tensors"), list)):
        raise malformed("not an object with a model type, meta and tensors")
    bad = [entry for entry in header["tensors"] if not _good_entry(entry)]
    if bad:
        raise malformed(f"bad tensor entry {bad[0]!r}")
    names = [entry["name"] for entry in header["tensors"]]
    if len(set(names)) < len(names):
        raise malformed(f"a tensor name is listed twice in {names}")
    return header


def load_model(path):
    """Reconstruct the right model object from a checkpoint file; a header
    whose meta the family cannot take or refuses raises ``ValueError``
    naming ``path``."""
    model_type, meta, tensors = load(path)
    if model_type not in FAMILIES:
        raise ValueError(f"unknown model type {model_type!r} in {path}")
    try:
        return FAMILIES[model_type].from_checkpoint(meta, tensors)
    except ValueError as exc:  # a value out of bounds, a tensor set or shape that does not fit
        raise ValueError(f"{path}: {exc}") from None
    except (KeyError, TypeError) as exc:  # a missing key, or a value of the wrong type
        detail = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: malformed checkpoint header: {detail}") from None
