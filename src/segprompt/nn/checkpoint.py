"""Checkpoint I/O.

Layout: 8-byte magic ``SPKTCKP1``, a uint32 little-endian header length, the
UTF-8 JSON header (list of ``{"name", "shape", "offset"}`` entries, offsets
relative to the start of the data section), then the little-endian float32
arrays back to back.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from segprompt.errors import ContractError, write_file
from segprompt.nn.tensor import Tensor

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
    write_file(path, MAGIC, struct.pack("<I", len(header)), header, *blobs)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Load the stored float32 arrays, keyed by name. The data section is
    read once into an aligned float32 buffer, and every entry is a writable
    view of it. A missing, truncated or malformed file raises
    ``ContractError`` naming the path and the entry."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise ContractError(f"{path}: checkpoint file not found") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if len(preamble) < 12:
            raise ContractError(
                f"{path}: {len(preamble)} bytes is shorter than the 12-byte preamble")
        if preamble[:8] != MAGIC:
            raise ContractError(f"{path}: bad checkpoint magic {preamble[:8]!r}")
        (header_len,) = struct.unpack("<I", preamble[8:12])
        data_start = 12 + header_len
        if data_start > size:
            raise ContractError(
                f"{path}: header length {header_len} runs past the end of the file "
                f"({size} bytes)")
        header_bytes = fh.read(header_len)
        data_len = size - data_start
        buf = np.empty((data_len + 3) // 4, dtype="<f4")
        if len(header_bytes) != header_len or fh.readinto(buf.view(np.uint8)[:data_len]) != data_len:
            raise ContractError(f"{path}: file changed size while being read")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
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
        if offset % 4:
            raise ContractError(
                f"{path}: entry {name!r} has offset {offset}, not a multiple of 4 bytes")
        count = math.prod(shape)
        if data_start + offset + 4 * count > size:
            raise ContractError(
                f"{path}: entry {name!r} needs {4 * count} bytes at offset {offset}, "
                f"past the end of the file ({size} bytes)")
        out[name] = buf[offset // 4:offset // 4 + count].reshape(shape)
    return out


def load_into(path: str | Path, params: dict[str, Tensor]) -> None:
    """Load a checkpoint into existing parameter tensors; the names must match
    exactly and every shape must agree. Each parameter keeps its dtype: a
    float32 one takes the stored view as it is, a float64 one a converted
    copy."""
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
        p.data = arr if arr.dtype == p.data.dtype else arr.astype(p.data.dtype)
