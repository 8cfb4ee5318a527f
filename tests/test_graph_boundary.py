"""The graph boundary: what an uploaded schema-1 graph may hold.

* a hostile-graph table, run through ``POST /v1/schedule`` and through
  ``mbs-repro schedule --graph``: each row is a 400 (exit 1) whose
  error names the offending path, prices nothing, counts no error,
  writes nothing to the serve cache and memoizes nothing;
* JSON nested deeper than the decoders can follow (``DEEP_ARRAY``,
  ``DEEP_GRAPH``) is the same 400 (exit 1), never a 500 or a traceback;
* a hypothesis property over every zoo graph: any JSON value at any
  path, or a key dropped or added at any object, makes
  ``network_from_dict`` return a ``Network`` or raise
  ``GraphSchemaError``, never anything else;
* ``import repro.api`` does not import numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.experiments.runner import main
from repro.graph.network import Network
from repro.graph.serialize import (
    GraphSchemaError,
    loads_network,
    network_from_dict,
    network_to_dict,
)
from repro.runtime.cache import ResultCache
from repro.types import KIB
from repro.zoo import build
from test_serve import _get, _post, _with_server, run

ZOO = (
    "toy_chain", "toy_residual", "toy_inception",
    "alexnet", "resnet18", "resnet34", "resnet50", "resnet101",
    "resnet152", "inception_v3", "inception_v4",
)
CONV0 = "$.blocks[0].branches[0].layers[0]"
POOL3 = "$.blocks[3].branches[0].layers[0]"


def _edit(change):
    """toy_chain's wire graph with ``change(graph)`` applied."""
    graph = network_to_dict(build("toy_chain"))
    change(graph)
    return graph


def _layer(graph, block):
    return graph["blocks"][block]["branches"][0]["layers"][0]


def _deep_graph_text(levels: int = 450) -> str:
    """toy_inception's wire graph, ~17 KB, whose first branch nests
    ``children`` ``levels`` deep: valid JSON that json parses.  Built as
    text, so writing it needs no recursion."""
    graph = network_to_dict(build("toy_inception"))
    graph["blocks"][0]["branches"][0]["children"] = "CHILDREN"
    nested = ('[{"layers":[],"children":' * levels + "[]"
              + "}]" * levels)
    return json.dumps(graph).replace('"CHILDREN"', nested)


#: 100,000 ``[`` then 100,000 ``]``: a 200 KB body json cannot parse.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
DEEP_GRAPH = _deep_graph_text()

#: (id, graph, needle): every graph here was accepted and priced, or
#: answered 500, before the graph decoder read through repro.wire.
HOSTILE = [
    ("unknown-layer-key", _edit(lambda g: _layer(g, 0).update(group=4)),
     f"unknown {CONV0} key(s) ['group']"),
    ("unknown-branch-key",
     _edit(lambda g: g["blocks"][1]["branches"][0].update(note=1)),
     "unknown $.blocks[1].branches[0] key(s) ['note']"),
    ("unknown-block-key", _edit(lambda g: g["blocks"][2].update(note=1)),
     "unknown $.blocks[2] key(s) ['note']"),
    ("unknown-envelope-key", _edit(lambda g: g.update(note=1)),
     "unknown $ key(s) ['note']"),
    ("zero-conv-stride", _edit(lambda g: _layer(g, 0).update(stride=[0, 0])),
     f"{CONV0}.stride: expected an array of 2 positive integers"),
    ("zero-pool-stride",
     _edit(lambda g: _layer(g, 3).update(global_pool=False, stride=[0, 0])),
     f"{POOL3}.stride: expected an array of 2 positive integers"),
    ("negative-kernel",
     _edit(lambda g: _layer(g, 0).update(kernel=[-1, 1], padding=[-1, 0])),
     f"{CONV0}.kernel: expected an array of 2 positive integers"),
    ("null-stride", _edit(lambda g: _layer(g, 0).update(stride=None)),
     f"{CONV0}.stride: expected an array of 2 positive integers"),
    ("huge-mini-batch", _edit(lambda g: g.update(default_mini_batch=2**70)),
     f"$.default_mini_batch: expected a positive integer at most {2**53}, "
     f"got {2**70}"),
    ("empty-layer-name", _edit(lambda g: _layer(g, 1).update(name="")),
     "$.blocks[1].branches[0].layers[0].name: expected a non-empty string"),
]


@pytest.mark.parametrize("graph, needle", [row[1:] for row in HOSTILE],
                         ids=[row[0] for row in HOSTILE])
def test_hostile_graph_is_a_400_that_prices_nothing(tmp_path, graph, needle):
    cache = ResultCache(tmp_path / "serve-cache")
    api._clear_graph_memo()

    def fn(port):
        answer = _post(port, {"schema": 1, "graph": graph,
                              "buffer_bytes": 64 * KIB})
        return answer, _get(port, "/v1/stats")

    (status, body), (_, stats) = run(_with_server(fn, cache=cache))
    assert status == 400 and needle in body["error"], body
    assert stats["executions"] == 0 and stats["errors"] == 0
    assert list(cache.entries("serve")) == []
    assert not api._graph_memo


@pytest.mark.parametrize("graph, needle", [row[1:] for row in HOSTILE],
                         ids=[row[0] for row in HOSTILE])
def test_hostile_graph_file_is_exit_1(capsys, tmp_path, graph, needle):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert main(["schedule", "--graph", str(path)]) == 1
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("text", [DEEP_ARRAY, DEEP_GRAPH],
                         ids=["deep-array", "deep-graph"])
def test_graph_file_nested_too_deeply_is_exit_1(capsys, tmp_path, text):
    path = tmp_path / "graph.json"
    path.write_text(text)
    assert main(["schedule", "--graph", str(path)]) == 1
    assert "nested too deeply" in capsys.readouterr().err


def test_graph_nested_too_deeply_is_a_schema_error():
    with pytest.raises(GraphSchemaError, match="nested too deeply"):
        network_from_dict(json.loads(DEEP_GRAPH))


@pytest.mark.parametrize("text", [DEEP_ARRAY, DEEP_GRAPH],
                         ids=["deep-array", "deep-graph"])
def test_loads_network_nested_too_deeply_is_a_schema_error(text):
    with pytest.raises(GraphSchemaError, match="nested too deeply"):
        loads_network(text)


# ---------------------------------------------------------------------------
# any JSON value at any path: a Network or GraphSchemaError
# ---------------------------------------------------------------------------

_small = st.integers(-1, 2)  # kernels, strides and pads live here
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _small
    | st.sampled_from([2**53 + 1, 2**70, 1.0, ""])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6,
)
_value = _small | st.lists(_small, min_size=1, max_size=3) | _json


def _slots(obj, trail=()):
    """Every (container trail, key or index) of ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield trail, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, (*trail, key))


_WIRES = {name: network_to_dict(build(name)) for name in ZOO}
_SLOTS = {name: list(_slots(wire)) for name, wire in _WIRES.items()}


@pytest.mark.parametrize("name", ZOO)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_value_anywhere_decodes_or_is_a_schema_error(name, data):
    graph = json.loads(json.dumps(_WIRES[name]))
    trail, key = data.draw(st.sampled_from(_SLOTS[name]), label="slot")
    site = graph
    for step in trail:
        site = site[step]
    how = data.draw(st.sampled_from(["set", "drop", "add"]), label="how")
    if how == "set" or not isinstance(site, dict):
        site[key] = data.draw(_value, label="value")
    elif how == "drop":
        del site[key]
    else:
        site[data.draw(st.text(max_size=8), label="key")] = data.draw(_json)
    try:
        assert isinstance(network_from_dict(graph), Network)
    except GraphSchemaError:
        pass


def test_importing_the_api_does_not_import_numpy():
    code = "import sys, repro.api; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
