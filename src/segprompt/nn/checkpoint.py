"""Checkpoint I/O.

Layout: 8-byte magic ``SPKTCKP1``, a uint32 little-endian header length, the
UTF-8 JSON header (list of ``{"name", "shape", "offset"}`` entries, offsets
relative to the start of the data section), then the little-endian float32
arrays back to back.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from segprompt.errors import ContractError
from segprompt.nn.tensor import Tensor, default_dtype

MAGIC = b"SPKTCKP1"


def save_checkpoint(path: str | Path, params: dict[str, Tensor | np.ndarray]) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(params):
        arr = params[name]
        data = (arr.data if isinstance(arr, Tensor) else np.asarray(arr))
        blob = np.ascontiguousarray(data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(entries).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Load arrays in the current default dtype, keyed by name. A truncated or
    malformed file raises ``ContractError`` naming the path and the entry."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ContractError(f"{path}: {len(raw)} bytes is shorter than the 12-byte preamble")
    if raw[:8] != MAGIC:
        raise ContractError(f"{path}: bad checkpoint magic {raw[:8]!r}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    data_start = 12 + header_len
    if data_start > len(raw):
        raise ContractError(
            f"{path}: header length {header_len} runs past the end of the file "
            f"({len(raw)} bytes)")
    try:
        header = json.loads(raw[12:data_start].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ContractError(f"{path}: header is not UTF-8 JSON ({exc})") from exc
    if not isinstance(header, list):
        raise ContractError(f"{path}: header is not a list of entries")
    out: dict[str, np.ndarray] = {}
    for i, entry in enumerate(header):
        if not isinstance(entry, dict) or not {"name", "shape", "offset"} <= entry.keys():
            raise ContractError(f"{path}: header entry {i} lacks name, shape or offset: "
                                f"{entry!r}")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not (isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise ContractError(f"{path}: entry {name!r} has a bad shape {shape!r}")
        if not isinstance(offset, int) or offset < 0:
            raise ContractError(f"{path}: entry {name!r} has a bad offset {offset!r}")
        count = math.prod(shape)
        start = data_start + offset
        if start + 4 * count > len(raw):
            raise ContractError(
                f"{path}: entry {name!r} needs {4 * count} bytes at offset {offset}, "
                f"past the end of the file ({len(raw)} bytes)")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=start)
        out[name] = arr.reshape(shape).astype(default_dtype())
    return out


def load_into(path: str | Path, params: dict[str, Tensor]) -> None:
    """Load a checkpoint into existing parameter tensors; the names must match
    exactly and every shape must agree."""
    loaded = load_checkpoint(path)
    missing = set(params) - set(loaded)
    if missing:
        raise ContractError(f"{path}: checkpoint missing parameters: {sorted(missing)[:5]}")
    unexpected = set(loaded) - set(params)
    if unexpected:
        raise ContractError(
            f"{path}: checkpoint has parameters the model lacks: {sorted(unexpected)[:5]}")
    for name, p in params.items():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise ContractError(
                f"{path}: checkpoint shape {arr.shape} != expected {p.data.shape} for {name}")
        p.data = arr.astype(p.data.dtype, copy=False)
