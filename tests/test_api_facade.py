"""The ``repro.api`` facade: bit-exactness, wire codecs, validation.

The facade's contract is that it is *the same computation* as the
internal entry points — not a parallel reimplementation — so every
cost it returns must equal ``make_schedule`` + ``compute_traffic`` +
``simulate_step`` bit for bit, across the whole zoo and every
objective.
"""

import dataclasses
import json

import pytest

from repro import api
from repro.core.policies import HARDWARE_OBJECTIVES, OBJECTIVES, make_schedule
from repro.core.traffic import compute_traffic
from repro.graph.serialize import network_to_dict
from repro.types import KIB, MIB
from repro.wavecore.config import config_for_policy
from repro.wavecore.simulator import simulate_step
from repro.zoo import build

ZOO = (
    "toy_chain", "toy_residual", "toy_inception",
    "alexnet", "resnet18", "resnet34", "resnet50", "resnet101",
    "resnet152", "inception_v3", "inception_v4",
)
BUFFERS = (64 * KIB, MIB)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("name", ZOO)
def test_price_bit_identical_to_internals(name, objective):
    """The acceptance matrix: every zoo network × objective × buffer."""
    net = build(name)
    for buffer_bytes in BUFFERS:
        cfg = config_for_policy("mbs-auto", buffer_bytes=buffer_bytes)
        sched = make_schedule(
            net, "mbs-auto", buffer_bytes=buffer_bytes,
            objective=objective,
            cfg=cfg if objective in HARDWARE_OBJECTIVES else None,
        )
        rep = compute_traffic(net, sched)
        step = simulate_step(net, sched, cfg, traffic=rep)

        res = api.price(name, "mbs-auto", buffer_bytes=buffer_bytes,
                        objective=objective)
        assert res.traffic_bytes == rep.total_bytes
        assert res.step_time_s == step.time_s
        assert res.step_energy_j == step.energy.total_j
        assert res.energy_dram_share == step.energy.share("dram")
        got = [(g.first_block, g.last_block, g.sub_batch, g.iterations)
               for g in res.groups]
        want = [(g.blocks[0], g.blocks[-1], g.sub_batch, g.iterations)
                for g in sched.groups]
        assert got == want


def test_price_accepts_all_network_spellings():
    """Zoo name, built Network, wire dict, and ScheduleRequest agree."""
    net = build("toy_residual")
    by_name = api.price("toy_residual", buffer_bytes=64 * KIB)
    by_net = api.price(net, buffer_bytes=64 * KIB)
    by_wire = api.price(network_to_dict(net), buffer_bytes=64 * KIB)
    by_req = api.price(api.ScheduleRequest(
        network="toy_residual", buffer_bytes=64 * KIB))
    assert by_name == by_net == by_wire == by_req


def test_sweep_matches_per_point_price():
    buffers = [64 * KIB, 256 * KIB, MIB]
    swept = api.sweep("toy_inception", "mbs-auto", buffers)
    for buf, res in zip(buffers, swept):
        assert res == api.price("toy_inception", "mbs-auto",
                                buffer_bytes=buf)


def test_sweep_hardware_objective_matches_per_point():
    buffers = [64 * KIB, MIB]
    cfg = config_for_policy("mbs-auto", buffer_bytes=buffers[0])
    swept = api.sweep("toy_chain", "mbs-auto", buffers,
                      objective="energy", hardware=cfg)
    for buf, res in zip(buffers, swept):
        assert res.traffic_bytes == api.price(
            "toy_chain", "mbs-auto", buffer_bytes=buf,
            objective="energy", hardware=cfg,
        ).traffic_bytes


def test_sweep_needs_buffer_sizes():
    with pytest.raises(ValueError, match="at least one buffer"):
        api.sweep("toy_chain", "mbs-auto", [])


class TestWireCodecs:
    def test_request_round_trip(self):
        req = api.ScheduleRequest(network="resnet50", policy="mbs-auto",
                                  buffer_bytes=MIB, objective="latency")
        assert api.ScheduleRequest.from_wire(req.to_wire()) == req

    def test_request_with_inline_graph_round_trips(self):
        wire_graph = network_to_dict(build("toy_chain"))
        req = api.ScheduleRequest(graph=wire_graph)
        clone = api.ScheduleRequest.from_wire(
            json.loads(json.dumps(req.to_wire())))
        assert clone.resolve_network() == build("toy_chain")

    def test_result_round_trip_through_json(self):
        res = api.price("toy_chain", buffer_bytes=64 * KIB)
        wire = json.loads(json.dumps(res.to_wire()))
        clone = api.ScheduleResult.from_wire(wire)
        assert clone == res  # `schedule` is compare-excluded
        assert clone.schedule is None and res.schedule is not None
        assert clone.to_wire() == res.to_wire()

    def test_result_wire_is_versioned(self):
        assert api.price("toy_chain").to_wire()["schema"] == 1

    def test_describe_matches_cli_text(self, capsys):
        from repro.experiments.runner import main

        assert main(["schedule", "toy_residual", "mbs-auto", "1"]) == 0
        cli_out = capsys.readouterr().out
        res = api.price("toy_residual", "mbs-auto", buffer_bytes=MIB)
        assert cli_out == res.describe() + "\n"

    def test_cli_json_is_the_wire_object(self, capsys):
        from repro.experiments.runner import main

        assert main(["schedule", "toy_chain", "mbs-auto", "1",
                     "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == api.price("toy_chain", "mbs-auto",
                                    buffer_bytes=MIB).to_wire()


class TestRequestValidation:
    def test_requires_exactly_one_network_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            api.ScheduleRequest()
        with pytest.raises(ValueError, match="exactly one"):
            api.ScheduleRequest(network="toy_chain",
                                graph={"schema": 1})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            api.ScheduleRequest.from_wire(
                {"schema": 1, "network": "toy_chain", "policy": "mbs9"})

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            api.ScheduleRequest.from_wire(
                {"schema": 1, "network": "toy_chain",
                 "objective": "joules"})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown request key"):
            api.ScheduleRequest.from_wire(
                {"schema": 1, "network": "toy_chain", "buffres": 1})

    def test_rejects_bad_buffer(self):
        for bad in (0, -1, True, "big"):
            with pytest.raises(ValueError, match="buffer_bytes"):
                api.ScheduleRequest.from_wire(
                    {"schema": 1, "network": "toy_chain",
                     "buffer_bytes": bad})

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="unsupported request schema"):
            api.ScheduleRequest.from_wire(
                {"schema": 2, "network": "toy_chain"})

    def test_unknown_zoo_name_is_value_error(self):
        with pytest.raises(ValueError, match="unknown network"):
            api.price("resnet5")


class TestFrozenTypes:
    def test_request_is_frozen(self):
        req = api.ScheduleRequest(network="toy_chain")
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.policy = "mbs2"

    def test_result_is_frozen(self):
        res = api.price("toy_chain")
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.traffic_bytes = 0


class TestDeprecationShims:
    """The facade keeps no shim for ``make_schedule``'s ``net=``/``cfg=``."""

    def test_unknown_kwarg_is_an_error(self):
        for kwargs in ({"buffer": MIB}, {"net": "toy_chain"}, {"cfg": None}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                api.price("toy_chain", **kwargs)


class TestServingHelpers:
    def test_fingerprint_same_for_name_and_graph(self):
        """A zoo name and its exported graph share cache entries."""
        name_req = api.ScheduleRequest(network="toy_chain")
        graph_req = api.ScheduleRequest(
            graph=network_to_dict(build("toy_chain")))
        assert api.request_fingerprint(name_req) == api.request_fingerprint(
            graph_req
        )

    def test_fingerprint_varies_with_request(self):
        base = api.ScheduleRequest(network="toy_chain")
        keys = {
            api.request_fingerprint(base),
            api.request_fingerprint(
                dataclasses.replace(base, buffer_bytes=MIB)),
            api.request_fingerprint(
                dataclasses.replace(base, objective="latency")),
            api.request_fingerprint(
                dataclasses.replace(base, policy="mbs2")),
            api.request_fingerprint(
                dataclasses.replace(base, network="toy_residual")),
        }
        assert len(keys) == 5

    def test_degraded_result_is_greedy_and_flagged(self):
        req = api.ScheduleRequest(network="toy_residual",
                                  buffer_bytes=64 * KIB,
                                  objective="latency")
        res = api.degraded_result(req)
        assert res.degraded is True
        assert res.policy == "mbs2"
        # the costs are still the exact evaluator numbers
        exact = api.price("toy_residual", "mbs2", buffer_bytes=64 * KIB)
        assert res.traffic_bytes == exact.traffic_bytes
