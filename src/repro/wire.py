"""Readers for JSON that comes from outside the process.

Both decoders of user input check every value through these functions:
:mod:`repro.api` for the ``/v1`` bodies and :mod:`repro.graph.serialize`
for the schema-1 network graph, so one module decides what a valid
outside value is.  A reader returns the value it checked or raises a
:class:`WireError` naming the value's path (``max_points``,
``$.blocks[0].in_shape``) and the rejected value.  Standard library
only: :mod:`repro.graph` imports it, and :mod:`repro.api` imports
:mod:`repro.graph`.
"""
from __future__ import annotations

import sys
from collections.abc import Collection, Mapping, Sequence
from typing import Any

#: Wire-schema version of every ``/v1`` body and of the network graph.
SCHEMA_VERSION = 1

#: Largest integer a wire object may carry: every quantity priced from
#: one (bytes, mini-batch, channels, spatial dims) stays far inside
#: float range.
MAX_WIRE_INT = 2**53


class WireError(ValueError):
    """A malformed outside value; the message names its path."""


def read_envelope(wire: Any, noun: str, keys: Sequence[str], *,
                  required: Sequence[str] = (),
                  strict: bool = True) -> dict[str, Any]:
    """Check one wire object's envelope; return its ``keys`` present.

    ``wire`` must be a JSON object whose ``schema`` is absent or exactly
    the integer :data:`SCHEMA_VERSION`, holding every ``required`` key.
    A ``strict`` object (a request body, a graph) may hold no key
    outside ``keys``; a response ignores them, so an older client
    reads a newer server.
    """
    if type(wire) is not dict and not isinstance(wire, Mapping):  # fast path
        raise WireError(
            f"{noun} must be a JSON object, got {type(wire).__name__}"
        )
    schema = wire.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise WireError(
            f"unsupported {noun} schema {schema!r}; this build speaks "
            f"schema {SCHEMA_VERSION}"
        )
    if strict:
        present = dict(wire)
        present.pop("schema", None)
        unknown = present.keys() - keys
        if unknown:
            raise WireError(
                f"unknown {noun} key(s) {sorted(unknown, key=str)}; "
                f"allowed: {list(keys)}"
            )
    else:
        present = {k: wire[k] for k in keys if k in wire}
    for key in required:
        if key not in wire:
            missing = [k for k in required if k not in wire]
            raise WireError(f"{noun} missing key(s) {missing}")
    return present


def read_int(value: Any, path: str, *, minimum: int = 1,
             maximum: int | None = None) -> int:
    """An integer (not a bool) from ``minimum`` (1, or 0 for an index)
    to ``maximum``."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum
            and (maximum is None or value <= maximum)):
        return value
    kind = "a positive" if minimum == 1 else "a non-negative"
    bound = "" if maximum is None else f" at most {maximum}"
    raise WireError(f"{path}: expected {kind} integer{bound}, got {value!r}")


def read_ints(value: Any, path: str, n: int, *,
              minimum: int = 1) -> list[int]:
    """An array of ``n`` integers (not bools) from ``minimum`` (1, or 0)
    to :data:`MAX_WIRE_INT`."""
    if isinstance(value, list) and len(value) == n:
        for v in value:
            if (not isinstance(v, int) or isinstance(v, bool)
                    or not minimum <= v <= MAX_WIRE_INT):
                break
        else:
            return value
    kind = "positive" if minimum == 1 else "non-negative"
    raise WireError(f"{path}: expected an array of {n} {kind} integers "
                    f"at most {MAX_WIRE_INT}, got {value!r}")


def read_seconds(value: Any, path: str) -> float:
    """A positive finite number of seconds."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < sys.float_info.max):  # False for NaN
        return value
    raise WireError(f"{path}: expected a positive finite number of "
                    f"seconds, got {value!r}")


def read_str(value: Any, path: str) -> str:
    """A non-empty string."""
    if isinstance(value, str) and value:
        return value
    raise WireError(f"{path}: expected a non-empty string, got {value!r}")


def read_choice(value: Any, path: str, choices: Collection[str]) -> str:
    """One of the strings ``choices``."""
    if isinstance(value, str) and value in choices:
        return value
    raise WireError(f"{path}: expected one of {list(choices)}, got "
                    f"{value!r}")


def read_bool(value: Any, path: str) -> bool:
    """A boolean."""
    if isinstance(value, bool):
        return value
    raise WireError(f"{path}: expected a boolean, got {value!r}")


def read_list(value: Any, path: str) -> list:
    """A JSON array: a list, not a tuple."""
    if isinstance(value, list):
        return value
    raise WireError(f"{path}: expected an array, got {type(value).__name__}")
