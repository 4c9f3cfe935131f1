"""Shared exception types, and the checks on JSON objects read into
dataclasses."""

import dataclasses
import functools
import reprlib
import types
from dataclasses import MISSING, fields
from enum import Enum
from typing import get_args, get_origin, get_type_hints


class ContractError(ValueError):
    """A caller violated an operation's precondition or shape contract."""


class OracleError(RuntimeError):
    """A test oracle (e.g. finite differences) hit a non-finite evaluation."""


class _Mismatch(Exception):
    """A JSON value that does not fit a field's type."""


# plain field types: the Python types of the JSON values that fit, and a name
_PLAIN = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string"),
          dict: ((dict,), "an object"), list: ((list,), "a list")}


def json_field(d, key: str, kind: type, required: bool = True):
    """``d[key]`` checked to be a ``kind``; an absent optional key is empty."""
    if not isinstance(d, dict):
        raise ContractError(f"expected a JSON object, got a {type(d).__name__}")
    if key not in d:
        if required:
            raise ContractError(f"missing key {key!r}")
        return kind()
    if not isinstance(d[key], kind):
        raise ContractError(f"key {key!r} must be {_PLAIN[kind][1]}, "
                            f"got a {type(d[key]).__name__}")
    return d[key]


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    if origin is tuple:
        count = "" if args[-1] is Ellipsis else f" of {len(args)} items"
        return f"a list{count}, each {_describe(args[0])}"
    if origin is dict:
        return f"an object, each value {_describe(args[1])}"
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"one of {[m.value for m in tp]}"
    if dataclasses.is_dataclass(tp):
        return "an object"
    return _PLAIN[tp][1]


@functools.cache
def _converter(tp):
    """A function that reads a JSON value as the field type ``tp``: lists
    become tuples, strings enum members and objects nested dataclasses. A
    bool is not an integer, and a number accepts an integer. A value that
    does not fit raises ``_Mismatch``. Built once per type."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # X | None
        [inner] = [a for a in args if a is not type(None)]
        convert = _converter(inner)
        return lambda v: None if v is None else convert(v)
    if origin is tuple:
        item, n = _converter(args[0]), None if args[-1] is Ellipsis else len(args)

        def tuple_of(v):
            if not isinstance(v, (list, tuple)) or (n is not None and len(v) != n):
                raise _Mismatch
            return tuple(map(item, v))
        return tuple_of
    if origin is dict:
        value = _converter(args[1])

        def dict_of(v):
            if not isinstance(v, dict):  # a JSON object's keys are strings
                raise _Mismatch
            return {k: value(x) for k, x in v.items()}
        return dict_of
    if isinstance(tp, type) and issubclass(tp, Enum):
        def member(v):
            try:
                return tp(v)
            except ValueError:
                raise _Mismatch from None
        return member
    if dataclasses.is_dataclass(tp):
        def nested(v):
            if not isinstance(v, dict):
                raise _Mismatch
            return tp(**checked_fields(v, tp))
        return nested
    kinds, no_bool = _PLAIN[tp][0], tp is not bool

    def plain(v):
        if not isinstance(v, kinds) or (no_bool and isinstance(v, bool)):
            raise _Mismatch
        return v
    return plain


@functools.cache
def _schema(cls) -> tuple[dict, list[str]]:
    """The field types of the dataclass ``cls`` and its fields without a
    default; resolving the string annotations costs about 0.1 ms, so once
    per class."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    return get_type_hints(cls), required


def checked_fields(d, cls) -> dict:
    """``d``, a JSON object, as keyword arguments for the dataclass ``cls``.
    Every key must name a field, every field without a default must be
    there, and every value must fit its field's type; JSON lists become
    tuples, strings enum members and objects nested dataclasses, which are
    checked the same way. A violation names the class and the keys."""
    if not isinstance(d, dict):
        raise ContractError(f"{cls.__name__} must be a JSON object, got a {type(d).__name__}")
    types_, required = _schema(cls)
    for problem, keys in (("unknown", sorted(set(d) - types_.keys())),
                          ("missing", [k for k in required if k not in d])):
        if keys:
            raise ContractError(f"{problem} {cls.__name__} key(s): {', '.join(map(repr, keys))}")
    out = {}
    for key, value in d.items():
        try:
            out[key] = _converter(types_[key])(value)
        except _Mismatch:
            raise ContractError(f"{cls.__name__} key {key!r} must be {_describe(types_[key])}, "
                                f"got {reprlib.repr(value)}") from None
    return out
