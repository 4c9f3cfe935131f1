"""Checkpoint binary format: magic, header, float32 payload, round trips."""

import json
import struct

import numpy as np
import pytest

from segprompt.errors import ContractError
from segprompt.nn import MAGIC, Tensor, load_checkpoint, load_into, save_checkpoint


def test_roundtrip_values_and_shapes(tmp_path):
    rng = np.random.default_rng(0)
    params = {"a.weight": Tensor(rng.standard_normal((3, 4))),
              "b.bias": Tensor(rng.standard_normal(5))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"a.weight", "b.bias"}
    for name, p in params.items():
        assert loaded[name].shape == p.data.shape
        assert np.array_equal(loaded[name], p.data.astype(np.float32))


def test_magic_and_header_layout(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float64).reshape(2, 3)})
    raw = path.read_bytes()
    assert raw[:8] == MAGIC == b"SPKTCKP1"
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    assert header == [{"name": "w", "shape": [2, 3], "offset": 0}]
    payload = np.frombuffer(raw, dtype="<f4", count=6, offset=12 + header_len)
    assert np.array_equal(payload.reshape(2, 3), np.arange(6).reshape(2, 3))


def test_offsets_index_the_data_section(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"b": np.ones(2), "a": np.zeros(3)})
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + header_len])
    offsets = {e["name"]: e["offset"] for e in header}
    assert offsets == {"a": 0, "b": 12}  # sorted by name, float32 strides
    assert load_checkpoint(path)["b"].tolist() == [1.0, 1.0]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_load_into_checks_names_and_shapes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))})
    target = {"w": Tensor(np.zeros((2, 2)))}
    load_into(path, target)
    assert np.array_equal(target["w"].data, np.ones((2, 2)))
    with pytest.raises(ContractError):
        load_into(path, {"w": Tensor(np.zeros(3))})
    with pytest.raises(ContractError):
        load_into(path, {"missing": Tensor(np.zeros(1))})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_into_gives_each_load_its_own_writable_arrays(tmp_path, dtype):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.arange(4.0)})
    first, second = {"w": Tensor(np.zeros(4))}, {"w": Tensor(np.zeros(4))}
    first["w"].data = first["w"].data.astype(dtype)
    load_into(path, first)
    load_into(path, second)
    assert first["w"].data.dtype == dtype
    assert first["w"].data.flags.writeable and second["w"].data.flags.writeable
    assert not np.shares_memory(first["w"].data, second["w"].data)
    first["w"].data[:] = -1.0
    assert np.array_equal(second["w"].data, np.arange(4.0))


def test_float32_load_views_one_buffer(tmp_path):
    """The data section is read once; each entry is a writable float32 view
    of that one buffer, and ``load_into`` hands the views on as they are to
    float32 parameters."""
    path = tmp_path / "model.ckpt"
    rng = np.random.default_rng(1)
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
              "c": rng.standard_normal((2, 1, 3))}
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    target = {name: Tensor(np.zeros(p.shape, dtype=np.float32)) for name, p in params.items()}
    load_into(path, target)
    buf = loaded["a"].base
    assert buf is not None and buf.nbytes == 4 * sum(p.size for p in params.values())
    for name, arr in loaded.items():
        assert arr.base is buf and arr.dtype == np.float32 and arr.flags.writeable, name
        assert np.array_equal(arr, params[name].astype(np.float32)), name
    assert len({id(t.data.base) for t in target.values()}) == 1
    assert target["a"].data.base is not buf  # every load reads its own buffer
    loaded["b"][:] = 0.0
    assert np.array_equal(loaded["a"], params["a"].astype(np.float32))


def test_load_into_float64_params_converts_each_entry(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0), "b": np.ones(2)})
    target = {"a": Tensor(np.zeros(3)), "b": Tensor(np.zeros(2))}
    load_into(path, target)
    assert all(t.data.dtype == np.float64 for t in target.values())
    assert not np.shares_memory(target["a"].data, target["b"].data)
    assert target["a"].data.tolist() == [0.0, 1.0, 2.0] and target["b"].data.tolist() == [1.0, 1.0]


# -- malformed files: each raises ContractError naming the path (and the entry) --


def write_raw(path, header: bytes, payload: bytes = b"", header_len: int | None = None):
    n = len(header) if header_len is None else header_len
    path.write_bytes(MAGIC + struct.pack("<I", n) + header + payload)
    return path


def entry_header(**entry) -> bytes:
    return json.dumps([entry]).encode("utf-8")


def assert_rejected(path, *words):
    with pytest.raises(ContractError) as info:
        load_checkpoint(path)
    for word in (str(path),) + words:
        assert word in str(info.value)


@pytest.mark.parametrize("size", [0, 8, 11])
def test_shorter_than_preamble_rejected(tmp_path, size):
    path = tmp_path / "short.ckpt"
    path.write_bytes((MAGIC + b"\x00" * 4)[:size])
    assert_rejected(path, f"{size} bytes")


def test_header_length_past_eof_rejected(tmp_path):
    path = write_raw(tmp_path / "m.ckpt", b"[]", header_len=1000)
    assert_rejected(path, "header length 1000")


@pytest.mark.parametrize("header", [b"\xff\xfe[]", b"[{not json", b""])
def test_header_not_utf8_json_rejected(tmp_path, header):
    path = write_raw(tmp_path / "m.ckpt", header)
    assert_rejected(path, "UTF-8 JSON")


@pytest.mark.parametrize("missing", ["name", "shape", "offset"])
def test_entry_lacking_a_field_rejected(tmp_path, missing):
    entry = {"name": "w", "shape": [1], "offset": 0}
    del entry[missing]
    path = write_raw(tmp_path / "m.ckpt", entry_header(**entry), b"\x00" * 4)
    assert_rejected(path, "entry 0", "name, shape or offset")


def test_negative_offset_rejected(tmp_path):
    path = write_raw(tmp_path / "m.ckpt", entry_header(name="w", shape=[1], offset=-4),
                     b"\x00" * 8)
    assert_rejected(path, "'w'", "offset -4")


def test_misaligned_offset_rejected(tmp_path):
    path = write_raw(tmp_path / "m.ckpt", entry_header(name="w", shape=[1], offset=2),
                     b"\x00" * 8)
    assert_rejected(path, "'w'", "offset 2", "multiple of 4")


def test_entry_data_past_eof_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.ones(2), "w": np.ones((2, 3))})
    path.write_bytes(path.read_bytes()[:-1])
    assert_rejected(path, "'w'", "24 bytes")
    assert load_checkpoint(write_raw(tmp_path / "ok.ckpt", entry_header(
        name="w", shape=[2], offset=0), b"\x00" * 8))["w"].shape == (2,)


def test_load_into_rejects_names_the_params_lack(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones(2), "extra.bias": np.zeros(3)})
    target = {"w": Tensor(np.zeros(2))}
    with pytest.raises(ContractError, match="extra.bias") as info:
        load_into(path, target)
    assert str(path) in str(info.value)
    assert np.array_equal(target["w"].data, np.zeros(2))
