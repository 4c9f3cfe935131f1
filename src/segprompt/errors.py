"""Shared exception types, and the unknown-key check for config dicts."""

from dataclasses import fields


class ContractError(ValueError):
    """A caller violated an operation's precondition or shape contract."""


class OracleError(RuntimeError):
    """A test oracle (e.g. finite differences) hit a non-finite evaluation."""


def check_keys(d: dict, cls) -> None:
    """Reject keys of ``d`` that name no field of the dataclass ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ContractError(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
