"""Shared exception types, and the key checks for dicts read into dataclasses."""

from dataclasses import MISSING, fields


class ContractError(ValueError):
    """A caller violated an operation's precondition or shape contract."""


class OracleError(RuntimeError):
    """A test oracle (e.g. finite differences) hit a non-finite evaluation."""


def check_keys(d: dict, cls) -> None:
    """Reject keys of ``d`` that name no field of the dataclass ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ContractError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")


def check_required(d: dict, cls) -> None:
    """Reject ``d`` when it lacks a field of the dataclass ``cls`` that has no
    default."""
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ContractError(f"missing {cls.__name__} key(s): {', '.join(map(repr, missing))}")
