"""Canonical JSON conversion for experiment artifacts and manifests.

Everything the runtime persists goes through :func:`jsonify` first, so
cache manifests are plain JSON regardless of which dataclasses, enums,
or numpy types a driver's ``run()`` returns — and :func:`canonical_dumps`
makes the byte encoding deterministic (sorted keys, fixed indent), which
is what lets tests assert that parallel and serial sweeps produce
byte-identical manifests.
"""
from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def jsonify(obj: Any) -> Any:
    """Recursively convert experiment results to JSON-compatible data."""
    # Fast path for exact JSON types (an uploaded manifest is all of
    # them); subclasses, enums and the rest take the general path.
    kind = type(obj)
    if kind is dict:
        return {k if type(k) is str else _key(k): jsonify(v)
                for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [jsonify(v) for v in obj]
    if kind in _JSON_SCALARS:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonify(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {_key(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):  # numpy scalars/arrays
        return jsonify(obj.tolist())
    # schedules, reports, models: describe by repr
    return repr(obj)


def _key(k: Any) -> str:
    if isinstance(k, tuple):
        return "/".join(str(jsonify(x)) for x in k)
    if isinstance(k, enum.Enum):
        return str(k.value)
    return str(k)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text for ``obj`` (jsonified, sorted keys)."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=1)
