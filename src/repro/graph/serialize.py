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

import hashlib
import json
from typing import Any, Mapping

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

#: Current wire-schema version; bumped only on incompatible changes.
SCHEMA_VERSION = 1


class GraphSchemaError(ValueError):
    """Raised for any malformed or invalid wire-format network."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _shape_to_list(shape: Shape) -> list[int]:
    return [shape.c, shape.h, shape.w]


def _layer_to_dict(layer: Layer) -> dict[str, Any]:
    common = {"name": layer.name, "in_shape": _shape_to_list(layer.in_shape)}
    if isinstance(layer, Conv2D):
        return {
            "kind": "conv", **common,
            "out_channels": layer.out_channels,
            "kernel": list(layer.kernel),
            "stride": list(layer.stride),
            "padding": list(layer.padding),
            "bias": layer.bias,
        }
    if isinstance(layer, FullyConnected):
        return {
            "kind": "fc", **common,
            "out_features": layer.out_features,
            "bias": layer.bias,
        }
    if isinstance(layer, Norm):
        return {
            "kind": "norm", **common,
            "norm": layer.norm.value,
            "groups": layer.groups,
        }
    if isinstance(layer, Activation):
        return {"kind": "act", **common, "fn": layer.fn}
    if isinstance(layer, Pool):
        return {
            "kind": "pool", **common,
            "pool": layer.pool.value,
            "kernel": list(layer.kernel),
            "stride": list(layer.stride),
            "padding": list(layer.padding),
            "global_pool": layer.global_pool,
        }
    if isinstance(layer, EltwiseAdd):
        return {"kind": "add", **common}
    raise GraphSchemaError(
        f"layer {layer.name!r} has unserializable type "
        f"{type(layer).__name__}"
    )


def _branch_to_dict(branch: Branch) -> dict[str, Any]:
    return {
        "layers": [_layer_to_dict(l) for l in branch.layers],
        "children": [_branch_to_dict(c) for c in branch.children],
    }


def _block_to_dict(block: Block) -> dict[str, Any]:
    return {
        "name": block.name,
        "in_shape": _shape_to_list(block.in_shape),
        "branches": [_branch_to_dict(b) for b in block.branches],
        "merge": block.merge.value if block.merge is not None else None,
        "post_merge": [_layer_to_dict(l) for l in block.post_merge],
    }


def network_to_dict(net: Network) -> dict[str, Any]:
    """Wire-format dict (schema-1 envelope) for ``net``."""
    return {
        "schema": SCHEMA_VERSION,
        "name": net.name,
        "in_shape": _shape_to_list(net.in_shape),
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

def _expect_mapping(obj: Any, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise GraphSchemaError(
            f"{path}: expected a JSON object, got {type(obj).__name__}"
        )
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise GraphSchemaError(
            f"{path}: expected a JSON array, got {type(obj).__name__}"
        )
    return obj


def _get(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise GraphSchemaError(f"{path}: missing required key {key!r}")
    return obj[key]


def _int(obj: Mapping, key: str, path: str) -> int:
    v = _get(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise GraphSchemaError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _str(obj: Mapping, key: str, path: str) -> str:
    v = _get(obj, key, path)
    if not isinstance(v, str):
        raise GraphSchemaError(f"{path}.{key}: expected a string, got {v!r}")
    return v


def _bool(obj: Mapping, key: str, path: str, default: bool) -> bool:
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise GraphSchemaError(f"{path}.{key}: expected a boolean, got {v!r}")
    return v


def _shape(obj: Mapping, key: str, path: str) -> Shape:
    v = _expect_list(_get(obj, key, path), f"{path}.{key}")
    if len(v) != 3 or any(isinstance(d, bool) or not isinstance(d, int)
                          for d in v):
        raise GraphSchemaError(
            f"{path}.{key}: expected [c, h, w] integers, got {v!r}"
        )
    try:
        return Shape(*v)
    except ValueError as exc:
        raise GraphSchemaError(f"{path}.{key}: {exc}") from exc


def _pair(obj: Mapping, key: str, path: str,
          default: tuple[int, int]) -> tuple[int, int]:
    v = obj.get(key)
    if v is None:
        return default
    v = _expect_list(v, f"{path}.{key}")
    if len(v) != 2 or any(isinstance(d, bool) or not isinstance(d, int)
                          for d in v):
        raise GraphSchemaError(
            f"{path}.{key}: expected a pair of integers, got {v!r}"
        )
    return (v[0], v[1])


def _enum(kind, value: str, path: str):
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in kind)
        raise GraphSchemaError(
            f"{path}: unknown value {value!r}; choose from {choices}"
        ) from None


def _layer_from_dict(obj: Any, path: str) -> Layer:
    obj = _expect_mapping(obj, path)
    kind = _str(obj, "kind", path)
    name = _str(obj, "name", path)
    in_shape = _shape(obj, "in_shape", path)
    try:
        if kind == "conv":
            return Conv2D(
                name=name, in_shape=in_shape,
                out_channels=_int(obj, "out_channels", path),
                kernel=_pair(obj, "kernel", path, (1, 1)),
                stride=_pair(obj, "stride", path, (1, 1)),
                padding=_pair(obj, "padding", path, (0, 0)),
                bias=_bool(obj, "bias", path, False),
            )
        if kind == "fc":
            return FullyConnected(
                name=name, in_shape=in_shape,
                out_features=_int(obj, "out_features", path),
                bias=_bool(obj, "bias", path, True),
            )
        if kind == "norm":
            return Norm(
                name=name, in_shape=in_shape,
                norm=_enum(NormKind, _str(obj, "norm", path),
                           f"{path}.norm"),
                groups=_int(obj, "groups", path) if "groups" in obj else 32,
            )
        if kind == "act":
            fn = obj.get("fn", "relu")
            if not isinstance(fn, str):
                raise GraphSchemaError(
                    f"{path}.fn: expected a string, got {fn!r}"
                )
            return Activation(name=name, in_shape=in_shape, fn=fn)
        if kind == "pool":
            return Pool(
                name=name, in_shape=in_shape,
                pool=_enum(PoolKind, _str(obj, "pool", path),
                           f"{path}.pool"),
                kernel=_pair(obj, "kernel", path, (2, 2)),
                stride=_pair(obj, "stride", path, (2, 2)),
                padding=_pair(obj, "padding", path, (0, 0)),
                global_pool=_bool(obj, "global_pool", path, False),
            )
        if kind == "add":
            return EltwiseAdd(name=name, in_shape=in_shape)
    except GraphSchemaError:
        raise
    except ValueError as exc:
        raise GraphSchemaError(f"{path}: {exc}") from exc
    raise GraphSchemaError(
        f"{path}.kind: unknown layer kind {kind!r}; choose from "
        "'conv', 'fc', 'norm', 'act', 'pool', 'add'"
    )


def _branch_from_dict(obj: Any, path: str) -> Branch:
    obj = _expect_mapping(obj, path)
    layers = tuple(
        _layer_from_dict(l, f"{path}.layers[{i}]")
        for i, l in enumerate(_expect_list(obj.get("layers", []),
                                           f"{path}.layers"))
    )
    children = tuple(
        _branch_from_dict(c, f"{path}.children[{i}]")
        for i, c in enumerate(_expect_list(obj.get("children", []),
                                           f"{path}.children"))
    )
    return Branch(layers=layers, children=children)


def _block_from_dict(obj: Any, path: str) -> Block:
    obj = _expect_mapping(obj, path)
    name = _str(obj, "name", path)
    in_shape = _shape(obj, "in_shape", path)
    branches = tuple(
        _branch_from_dict(b, f"{path}.branches[{i}]")
        for i, b in enumerate(_expect_list(_get(obj, "branches", path),
                                           f"{path}.branches"))
    )
    merge_raw = obj.get("merge")
    merge = None
    if merge_raw is not None:
        if not isinstance(merge_raw, str):
            raise GraphSchemaError(
                f"{path}.merge: expected null, 'add', or 'concat', got "
                f"{merge_raw!r}"
            )
        merge = _enum(MergeKind, merge_raw, f"{path}.merge")
    post_merge = tuple(
        _layer_from_dict(l, f"{path}.post_merge[{i}]")
        for i, l in enumerate(_expect_list(obj.get("post_merge", []),
                                           f"{path}.post_merge"))
    )
    try:
        return Block(name=name, in_shape=in_shape, branches=branches,
                     merge=merge, post_merge=post_merge)
    except ValueError as exc:
        raise GraphSchemaError(f"{path}: {exc}") from exc


def network_from_dict(obj: Any) -> Network:
    """Decode and *validate* a schema-1 wire dict into a ``Network``.

    Every structural invariant the graph IR enforces at construction
    (shape flow, merge arity, positive dims) re-runs here, so malformed
    user graphs fail with a :class:`GraphSchemaError` naming the JSON
    path, never a deep traceback.
    """
    obj = _expect_mapping(obj, "$")
    schema = _get(obj, "schema", "$")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise GraphSchemaError(
            f"$.schema: unsupported version {schema!r}; this build "
            f"speaks schema {SCHEMA_VERSION}"
        )
    name = _str(obj, "name", "$")
    in_shape = _shape(obj, "in_shape", "$")
    mini_batch = (_int(obj, "default_mini_batch", "$")
                  if "default_mini_batch" in obj else 32)
    blocks = tuple(
        _block_from_dict(b, f"$.blocks[{i}]")
        for i, b in enumerate(_expect_list(_get(obj, "blocks", "$"),
                                           "$.blocks"))
    )
    try:
        return Network(name=name, in_shape=in_shape, blocks=blocks,
                       default_mini_batch=mini_batch)
    except ValueError as exc:
        raise GraphSchemaError(f"$: {exc}") from exc


def loads_network(text: str) -> Network:
    """Parse JSON text into a validated ``Network``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSchemaError(f"not valid JSON: {exc}") from exc
    return network_from_dict(obj)
