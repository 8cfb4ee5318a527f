"""Wire-schema round trips and malformed-input errors."""

import json

import pytest

from repro.graph.serialize import (
    SCHEMA_VERSION,
    GraphSchemaError,
    dumps_network,
    loads_network,
    network_fingerprint,
    network_to_dict,
)
from repro.zoo import build

ZOO = (
    "toy_chain", "toy_residual", "toy_inception",
    "alexnet", "resnet18", "resnet34", "resnet50", "resnet101",
    "resnet152", "inception_v3", "inception_v4",
)


@pytest.mark.parametrize("name", ZOO)
def test_round_trip_every_zoo_network(name):
    net = build(name)
    clone = loads_network(dumps_network(net))
    assert clone == net
    assert clone.name == net.name
    assert clone.default_mini_batch == net.default_mini_batch
    assert network_fingerprint(clone) == network_fingerprint(net)


def test_envelope_is_versioned():
    wire = network_to_dict(build("toy_chain"))
    assert wire["schema"] == SCHEMA_VERSION
    assert wire["in_shape"] == [3, 32, 32]
    assert isinstance(wire["blocks"], list)


def test_dumps_is_deterministic():
    net = build("toy_residual")
    assert dumps_network(net) == dumps_network(build("toy_residual"))


def test_fingerprint_distinguishes_networks():
    assert network_fingerprint(build("toy_chain")) != network_fingerprint(
        build("toy_residual")
    )


def test_fingerprint_tracks_content_not_name():
    """Renaming alone changes the fingerprint (the name is content)."""
    import dataclasses

    net = build("toy_chain")
    renamed = dataclasses.replace(net, name="other")
    assert network_fingerprint(net) != network_fingerprint(renamed)


class TestMalformed:
    def _wire(self):
        return network_to_dict(build("toy_inception"))

    def test_not_json(self):
        with pytest.raises(GraphSchemaError, match="not valid JSON"):
            loads_network("{nope")

    def test_not_an_object(self):
        with pytest.raises(GraphSchemaError,
                           match=r"\$ must be a JSON object, got list"):
            loads_network("[1, 2]")

    def test_missing_schema(self):
        wire = self._wire()
        del wire["schema"]
        with pytest.raises(GraphSchemaError,
                           match=r"\$ missing key\(s\) \['schema'\]"):
            loads_network(json.dumps(wire))

    def test_wrong_schema_version(self):
        wire = self._wire()
        wire["schema"] = 99
        with pytest.raises(GraphSchemaError, match=r"unsupported \$ schema 99"):
            loads_network(json.dumps(wire))

    def test_unknown_layer_kind(self):
        wire = self._wire()
        wire["blocks"][0]["branches"][0]["layers"][0]["kind"] = "lstm"
        with pytest.raises(GraphSchemaError,
                           match=r"blocks\[0\].*\.kind: expected one of .*"
                                 r"got 'lstm'"):
            loads_network(json.dumps(wire))

    def test_bad_shape_arity(self):
        wire = self._wire()
        wire["in_shape"] = [3, 32]
        with pytest.raises(GraphSchemaError, match=r"\$\.in_shape"):
            loads_network(json.dumps(wire))

    def test_nonpositive_dim(self):
        wire = self._wire()
        wire["in_shape"] = [0, 32, 32]
        with pytest.raises(GraphSchemaError, match="positive"):
            loads_network(json.dumps(wire))

    def test_miswired_shapes_rejected(self):
        wire = self._wire()
        # break shape flow: second block claims a different input
        wire["blocks"][1]["in_shape"] = [7, 5, 5]
        with pytest.raises(GraphSchemaError):
            loads_network(json.dumps(wire))

    def test_bad_merge_kind(self):
        wire = self._wire()
        wire["blocks"][1]["merge"] = "stack"
        with pytest.raises(GraphSchemaError,
                           match=r"blocks\[1\]\.merge"):
            loads_network(json.dumps(wire))

    def test_bad_conv_channels(self):
        wire = self._wire()
        wire["blocks"][0]["branches"][0]["layers"][0]["out_channels"] = -4
        with pytest.raises(GraphSchemaError, match="out_channels"):
            loads_network(json.dumps(wire))

    def test_missing_blocks(self):
        wire = self._wire()
        del wire["blocks"]
        with pytest.raises(GraphSchemaError,
                           match=r"\$ missing key\(s\) \['blocks'\]"):
            loads_network(json.dumps(wire))

    def test_bool_is_not_an_int(self):
        wire = self._wire()
        wire["default_mini_batch"] = True
        with pytest.raises(GraphSchemaError,
                           match=r"\$\.default_mini_batch: expected a positive "
                                 r"integer .*got True"):
            loads_network(json.dumps(wire))
