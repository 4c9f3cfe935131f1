"""Shared exception types, the one reader of PGM files and the one writer of
output files, the one reader and the one writer of JSON files, and the checks
on JSON objects read into dataclasses and ``TypedDict``s.

PGMs are read, and output files written, on the raw file descriptor
(``os.open``, ``os.read``/``os.write``, ``os.close``): a dataset is hundreds
of 4 KB files, and for a file that small a Python file object costs about as
much again as the I/O it wraps."""

import dataclasses
import functools
import itertools
import json
import os
import reprlib
import stat
import types
from dataclasses import MISSING, fields
from enum import Enum
from typing import get_args, get_origin, get_type_hints, is_typeddict


class ContractError(ValueError):
    """A caller violated an operation's precondition or shape contract."""


def read_json(path):
    """The JSON value in the UTF-8 file ``path``. A missing file, or one that
    is not UTF-8 text or not valid JSON, raises a ContractError naming
    ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ContractError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path}: not valid JSON ({exc})") from exc


# os.read's request size: a 4 KB PGM takes one read and the read at its end
_READ_SIZE = 1 << 16


def read_file(path) -> bytes:
    """The bytes of the file ``path``, read on its descriptor; every PGM the
    package reads comes through here. An ``OSError`` names ``path``, as
    ``open(path, "rb")``'s does: ``os.open``'s already does, and one from
    ``os.read``, such as ``EISDIR`` on a directory, is raised again with
    ``path``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_SIZE)
        chunk = data and os.read(fd, _READ_SIZE)
        if chunk:  # more than one read: gather the rest and join once
            chunks = [data, chunk]
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
            data = b"".join(chunks)
        return data
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def write_file(path, *chunks: bytes) -> None:
    """Make the file ``path`` hold ``chunks``, one after another, written on
    its descriptor; every file the package writes goes through here. A new
    file gets the mode ``open(path, "wb")`` gives it. An existing regular file
    is overwritten in place and then, if it was longer, cut to length; it is
    not truncated first: on ext4, truncating a file to zero forces its
    writeback at close, which costs several times the write of a small file.
    Anything else, such as ``/dev/null`` or a pipe, is written and not cut. A
    short write is continued. If writing a chunk raises, the file still ends
    after the bytes written before it, as with ``open(path, "wb")``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        end = 0
        try:
            for chunk in chunks:
                rest = memoryview(chunk)
                while rest:
                    written = os.write(fd, rest)
                    end += written
                    rest = rest[written:]
        finally:
            if stat.S_ISREG(old.st_mode) and old.st_size > end:
                os.ftruncate(fd, end)
    finally:
        os.close(fd)


def write_json(path, value) -> None:
    """Write ``value`` to the UTF-8 file ``path`` as JSON: sorted keys, a
    two-space indent and a final newline."""
    write_file(path, (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def check_at_least(cfg, low: int, *keys: str) -> None:
    """Raise naming the first of the config ``cfg``'s fields ``keys`` whose
    value is not at least ``low`` (a NaN is not)."""
    for key in keys:
        value = getattr(cfg, key)
        if not value >= low:
            raise ContractError(f"key {key!r} must be at least {low}, got {value}")


class _Mismatch(Exception):
    """A JSON value that does not fit its type: ``path`` leads to it from
    the field that holds it (``['heart']``), ``why`` says how it does not
    fit, and ``whole`` is true when it is of the wrong kind altogether."""

    def __init__(self, why: str, whole: bool = False):
        self.why, self.path, self.whole = why, "", whole


def _not(tp, value) -> _Mismatch:
    return _Mismatch(f" must be {_describe(tp)}, got {reprlib.repr(value)}", whole=True)


# plain field types: the Python types of the JSON values that fit, and a name
_PLAIN = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
          float: ((int, float), "a number"), str: ((str,), "a string")}


def _describe(tp) -> str:
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return f"a list, each {_describe(args[0])}"
        return f"a list of {len(args)} items: {', '.join(map(_describe, args))}"
    if origin is dict:
        return f"an object, each value {_describe(args[1])}"
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"one of {[m.value for m in tp]}"
    if dataclasses.is_dataclass(tp) or is_typeddict(tp):
        return "an object"
    return _PLAIN[tp][1]


@functools.cache
def _converter(tp):
    """A function that reads a JSON value as the type ``tp``: lists become
    tuples, strings (object keys too) enum members, and objects nested
    dataclasses or, for a ``TypedDict``, checked dicts. A bool is not an
    integer, and a number accepts an integer. A value that does not fit
    raises ``_Mismatch``. Built once per type."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # X | None
        [inner] = [a for a in args if a is not type(None)]
        convert = _converter(inner)

        def optional(v):
            try:
                return None if v is None else convert(v)
            except _Mismatch as exc:  # of v itself: name both kinds that fit
                raise _not(tp, v) if exc.whole and not exc.path else exc
        return optional
    if origin is tuple:
        items = [_converter(a) for a in args if a is not Ellipsis]

        def tuple_of(v):
            if isinstance(v, (list, tuple)) and (args[-1] is Ellipsis or len(v) == len(items)):
                try:
                    return tuple(f(x) for f, x in zip(itertools.cycle(items), v))
                except _Mismatch:
                    pass  # a wrong item: name the whole list
            raise _not(tp, v)
        return tuple_of
    if origin is dict:
        key, value = _converter(args[0]), _converter(args[1])

        def dict_of(v):
            if not isinstance(v, dict):
                raise _not(tp, v)
            out = {}
            for k, x in v.items():  # a JSON object's keys are strings
                try:
                    member = key(k)
                except _Mismatch:
                    raise _Mismatch(f" has unknown key {k!r}; expected "
                                    f"{_describe(args[0])}") from None
                try:
                    out[member] = value(x)
                except _Mismatch as exc:
                    exc.path = f"[{k!r}]{exc.path}"
                    raise
            return out
        return dict_of
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}  # a lookup costs a tenth of tp(v)

        def member(v):
            try:
                return members[v]
            except (KeyError, TypeError):  # TypeError: a list or an object
                raise _not(tp, v) from None
        return member
    if dataclasses.is_dataclass(tp) or is_typeddict(tp):
        build = (lambda kw: kw) if is_typeddict(tp) else (lambda kw: tp(**kw))

        def record(v):
            try:
                return build(checked_fields(v, tp))
            except ContractError as exc:  # a field's, or the constructor's
                raise _Mismatch(f": {exc}") from None
        return record
    kinds, no_bool = _PLAIN[tp][0], tp is not bool

    def plain(v):
        if not isinstance(v, kinds) or (no_bool and isinstance(v, bool)):
            raise _not(tp, v)
        return v
    return plain


@functools.cache
def _schema(cls) -> tuple[frozenset, dict]:
    """The required keys of the dataclass or ``TypedDict`` ``cls``, and a
    converter per key; resolving the string annotations costs about 0.1 ms,
    so once per class."""
    required = cls.__required_keys__ if is_typeddict(cls) else frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    return required, {key: _converter(tp) for key, tp in get_type_hints(cls).items()}


def checked_fields(d, cls) -> dict:
    """``d``, a JSON object, as keyword arguments for the dataclass or
    ``TypedDict`` ``cls``. Every key must name a field, every required field
    must be there, and every value must fit its field's type; nested
    objects are checked the same way. A violation names the class and the
    keys, and the path to a value inside a field, e.g. ``StudyRecord key
    'views'['current_frontal']: missing ViewEntry key(s): 'image'``."""
    if not isinstance(d, dict):
        raise ContractError(f"{cls.__name__} must be a JSON object, got a {type(d).__name__}")
    required, converters = _schema(cls)
    if not (d.keys() <= converters.keys() and required <= d.keys()):
        for problem, keys in (("unknown", d.keys() - converters.keys()),
                              ("missing", required - d.keys())):
            if keys:
                raise ContractError(f"{problem} {cls.__name__} key(s): "
                                    f"{', '.join(map(repr, sorted(keys)))}")
    out = {}
    for key, value in d.items():
        try:
            out[key] = converters[key](value)
        except _Mismatch as exc:
            raise ContractError(f"{cls.__name__} key {key!r}{exc.path}{exc.why}") from None
    return out
