"""JSON wire schema for networks (versioned, round-trip exact).

The serving layer and the ``mbs-repro schedule --graph`` CLI accept
arbitrary user-submitted network graphs; this module defines the wire
contract they share.  A network is encoded as a versioned envelope::

    {
      "schema": 1,
      "name": "toy_chain",
      "in_shape": [3, 32, 32],
      "default_mini_batch": 16,
      "blocks": [
        {
          "name": "stage0",
          "branches": [
            {"layers": [ {"kind": "conv", ...}, ... ], "children": []}
          ],
          "merge": null,            # or "add" / "concat"
          "post_merge": []
        },
        ...
      ]
    }

Layers are tagged unions keyed on ``"kind"`` (``conv`` / ``fc`` /
``norm`` / ``act`` / ``pool`` / ``add``) carrying exactly the fields of
the corresponding :mod:`repro.graph.layers` dataclass, so
``loads_network(dumps_network(net)) == net`` holds field-for-field for
every network the zoo can build (locked in
``tests/test_graph_serialize.py``).

Decoding reads every value through :mod:`repro.wire`, as the ``/v1``
bodies do: each object has an exact key set and every integer a bound.
Malformed input raises :class:`GraphSchemaError` with the JSON path of
the offending element — the server maps it to HTTP 400 and the CLI to
exit status 1, never a traceback.  Structural validation is the graph
IR's own: the ``Layer``/``Block``/``Network`` constructors re-check
shape flow on load, so a wire graph can never bypass an invariant the
Python constructors enforce.

:func:`network_fingerprint` digests the canonical encoding; it is the
graph component of the serve-cache key, so a zoo name and its exported
wire graph address the same cached schedules.
"""
from __future__ import annotations

import enum
import hashlib
import json
from typing import Any

from repro.graph.blocks import Block, Branch, MergeKind
from repro.graph.layers import (
    Activation,
    Conv2D,
    EltwiseAdd,
    FullyConnected,
    Layer,
    Norm,
    NormKind,
    Pool,
    PoolKind,
)
from repro.graph.network import Network
from repro.types import Shape
from repro.wire import (
    MAX_WIRE_INT,
    SCHEMA_VERSION,
    WireError,
    read_bool,
    read_choice,
    read_envelope,
    read_int,
    read_ints,
    read_list,
    read_str,
)


class GraphSchemaError(ValueError):
    """Raised for any malformed or invalid wire-format network."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

#: Each layer kind's wire keys: the fields of its dataclass, ``kind``
#: (its :class:`~repro.graph.layers.LayerKind`) first.
_LAYER_KEYS = {
    "conv": ("kind", "name", "in_shape", "out_channels", "kernel", "stride",
             "padding", "bias"),
    "fc": ("kind", "name", "in_shape", "out_features", "bias"),
    "norm": ("kind", "name", "in_shape", "norm", "groups"),
    "act": ("kind", "name", "in_shape", "fn"),
    "pool": ("kind", "name", "in_shape", "pool", "kernel", "stride",
             "padding", "global_pool"),
    "add": ("kind", "name", "in_shape"),
}


def _wire_value(value: Any) -> Any:
    """A field in wire form: shapes and windows as arrays, enums (a
    layer's kind, norm or pool) as their values."""
    if isinstance(value, Shape):
        return [value.c, value.h, value.w]
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _layer_to_dict(layer: Layer) -> dict[str, Any]:
    return {key: _wire_value(getattr(layer, key))
            for key in _LAYER_KEYS[layer.kind.value]}


def _branch_to_dict(branch: Branch) -> dict[str, Any]:
    return {
        "layers": [_layer_to_dict(l) for l in branch.layers],
        "children": [_branch_to_dict(c) for c in branch.children],
    }


def _block_to_dict(block: Block) -> dict[str, Any]:
    return {
        "name": block.name,
        "in_shape": _wire_value(block.in_shape),
        "branches": [_branch_to_dict(b) for b in block.branches],
        "merge": _wire_value(block.merge),
        "post_merge": [_layer_to_dict(l) for l in block.post_merge],
    }


def network_to_dict(net: Network) -> dict[str, Any]:
    """Wire-format dict (schema-1 envelope) for ``net``."""
    return {
        "schema": SCHEMA_VERSION,
        "name": net.name,
        "in_shape": _wire_value(net.in_shape),
        "default_mini_batch": net.default_mini_batch,
        "blocks": [_block_to_dict(b) for b in net.blocks],
    }


def dumps_network(net: Network, indent: int | None = 1) -> str:
    """Canonical JSON text of ``net`` (sorted keys, stable bytes)."""
    return json.dumps(network_to_dict(net), sort_keys=True, indent=indent)


def network_fingerprint(net: Network) -> str:
    """Content digest of the canonical wire encoding.

    Networks that serialize identically — a zoo build and its re-loaded
    wire graph — share the fingerprint; it keys the serve-side schedule
    cache together with the pricing parameters.
    """
    blob = json.dumps(network_to_dict(net), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

#: Keys a layer may leave out; each then takes its dataclass default.
_OPTIONAL = {"kernel", "stride", "padding", "bias", "groups", "fn",
             "global_pool"}
_LAYER_REQUIRED = {kind: tuple(k for k in keys if k not in _OPTIONAL)
                   for kind, keys in _LAYER_KEYS.items()}
_NORMS = {m.value: m for m in NormKind}
_POOLS = {m.value: m for m in PoolKind}
_MERGES = {m.value: m for m in MergeKind}


def _layer_from_dict(obj: Any, path: str) -> Layer:
    try:  # the kind picks the key set; the readers name any fault
        kind = obj["kind"]
        keys = _LAYER_KEYS[kind]
    except (TypeError, KeyError):
        head = read_envelope(obj, path, ("kind",), required=("kind",),
                             strict=False)
        read_choice(head["kind"], f"{path}.kind", _LAYER_KEYS)
        raise
    w = read_envelope(obj, path, keys, required=_LAYER_REQUIRED[kind])
    name = read_str(w["name"], f"{path}.name")
    in_shape = Shape(*read_ints(w["in_shape"], f"{path}.in_shape", 3))
    try:
        if kind == "conv":
            return Conv2D(
                name=name, in_shape=in_shape,
                out_channels=read_int(w["out_channels"],
                                      f"{path}.out_channels",
                                      maximum=MAX_WIRE_INT),
                kernel=read_ints(w.get("kernel", [1, 1]), f"{path}.kernel", 2),
                stride=read_ints(w.get("stride", [1, 1]), f"{path}.stride", 2),
                padding=read_ints(w.get("padding", [0, 0]),
                                  f"{path}.padding", 2, minimum=0),
                bias=read_bool(w.get("bias", False), f"{path}.bias"),
            )
        if kind == "fc":
            return FullyConnected(
                name=name, in_shape=in_shape,
                out_features=read_int(w["out_features"],
                                      f"{path}.out_features",
                                      maximum=MAX_WIRE_INT),
                bias=read_bool(w.get("bias", True), f"{path}.bias"),
            )
        if kind == "norm":
            return Norm(
                name=name, in_shape=in_shape,
                norm=_NORMS[read_choice(w["norm"], f"{path}.norm", _NORMS)],
                groups=read_int(w.get("groups", 32), f"{path}.groups",
                                maximum=MAX_WIRE_INT),
            )
        if kind == "act":
            return Activation(name=name, in_shape=in_shape,
                              fn=read_str(w.get("fn", "relu"), f"{path}.fn"))
        if kind == "pool":
            return Pool(
                name=name, in_shape=in_shape,
                pool=_POOLS[read_choice(w["pool"], f"{path}.pool", _POOLS)],
                kernel=read_ints(w.get("kernel", [2, 2]), f"{path}.kernel", 2),
                stride=read_ints(w.get("stride", [2, 2]), f"{path}.stride", 2),
                padding=read_ints(w.get("padding", [0, 0]),
                                  f"{path}.padding", 2, minimum=0),
                global_pool=read_bool(w.get("global_pool", False),
                                      f"{path}.global_pool"),
            )
        return EltwiseAdd(name=name, in_shape=in_shape)
    except WireError:
        raise
    except ValueError as exc:  # the IR's own check: a window too large
        raise WireError(f"{path}: {exc}") from exc


def _each(decode, value: Any, path: str) -> tuple:
    """``decode`` each element of the JSON array ``value`` at ``path``."""
    return tuple(decode(v, f"{path}[{i}]")
                 for i, v in enumerate(read_list(value, path)))


def _branch_from_dict(obj: Any, path: str) -> Branch:
    w = read_envelope(obj, path, ("layers", "children"))
    return Branch(
        layers=_each(_layer_from_dict, w.get("layers", []), f"{path}.layers"),
        children=_each(_branch_from_dict, w.get("children", []),
                       f"{path}.children"),
    )


def _block_from_dict(obj: Any, path: str) -> Block:
    w = read_envelope(obj, path,
                      ("name", "in_shape", "branches", "merge", "post_merge"),
                      required=("name", "in_shape", "branches"))
    merge = w.get("merge")
    try:
        return Block(
            name=read_str(w["name"], f"{path}.name"),
            in_shape=Shape(*read_ints(w["in_shape"], f"{path}.in_shape", 3)),
            branches=_each(_branch_from_dict, w["branches"],
                           f"{path}.branches"),
            merge=None if merge is None else _MERGES[
                read_choice(merge, f"{path}.merge", _MERGES)],
            post_merge=_each(_layer_from_dict, w.get("post_merge", []),
                             f"{path}.post_merge"),
        )
    except WireError:
        raise
    except ValueError as exc:  # the IR's own checks: shape flow, merges
        raise WireError(f"{path}: {exc}") from exc


def network_from_dict(obj: Any) -> Network:
    """Decode and *validate* a schema-1 wire dict into a ``Network``.

    Every structural invariant the graph IR enforces at construction
    (shape flow, merge arity, positive dims) re-runs here, so malformed
    user graphs fail with a :class:`GraphSchemaError` naming the JSON
    path, never a deep traceback — a graph nested deeper than the
    decoder's recursion can follow included.
    """
    try:
        w = read_envelope(obj, "$",
                          ("name", "in_shape", "default_mini_batch", "blocks"),
                          required=("schema", "name", "in_shape", "blocks"))
        return Network(
            name=read_str(w["name"], "$.name"),
            in_shape=Shape(*read_ints(w["in_shape"], "$.in_shape", 3)),
            default_mini_batch=read_int(w.get("default_mini_batch", 32),
                                        "$.default_mini_batch",
                                        maximum=MAX_WIRE_INT),
            blocks=_each(_block_from_dict, w["blocks"], "$.blocks"),
        )
    except WireError as exc:
        raise GraphSchemaError(str(exc)) from exc
    except ValueError as exc:  # the IR's own checks: blocks chain up
        raise GraphSchemaError(f"$: {exc}") from exc
    except RecursionError:
        raise GraphSchemaError("$: graph is nested too deeply") from None


def loads_network(text: str) -> Network:
    """Parse JSON text into a validated ``Network``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise GraphSchemaError("not valid JSON: nested too deeply") from None
    return network_from_dict(obj)
