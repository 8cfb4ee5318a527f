"""The ``repro.api`` facade: bit-exactness, wire codecs, validation.

The facade prices a finished schedule by summing memoized per-block
records (:meth:`repro.core.steptime.BlockPricer.schedule_records`), so
every cost it returns must equal ``make_schedule`` + ``compute_traffic``
+ ``simulate_step`` bit for bit — including the key order of
``traffic_by_category`` and the CLI text — across the whole zoo, every
objective and every fixed policy.
"""

import dataclasses
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.core.policies import (
    HARDWARE_OBJECTIVES,
    OBJECTIVES,
    POLICIES,
    make_schedule,
)
from repro.core.traffic import compute_traffic
from repro.graph.serialize import network_fingerprint, network_to_dict
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
FIXED_POLICIES = tuple(p for p in POLICIES if p != "mbs-auto")


def _reference(res, net, cfg, word_bytes=2):
    """``res`` with every number recomputed by ``compute_traffic`` +
    ``simulate_step`` on its schedule: what the facade must equal."""
    rep = compute_traffic(net, res.schedule, word_bytes)
    step = simulate_step(net, res.schedule, cfg, traffic=rep)
    return dataclasses.replace(
        res,
        word_bytes=word_bytes,
        traffic_bytes=rep.total_bytes,
        traffic_by_category={
            cat.value: nbytes for cat, nbytes in rep.by_category().items()
        },
        step_time_s=step.time_s,
        step_energy_j=step.energy.total_j,
        energy_dram_share=step.energy.share("dram"),
    )


def _assert_identical(res, ref):
    assert res == ref
    # dict equality ignores order; describe() sorts by bytes with a
    # stable sort, so the key order reaches the CLI text on ties
    assert list(res.traffic_by_category.items()) == list(
        ref.traffic_by_category.items()
    )
    assert res.describe() == ref.describe()


def _check_price_against_internals(name, policy, objective):
    net = build(name)
    for buffer_bytes in BUFFERS:
        cfg = config_for_policy(policy, buffer_bytes=buffer_bytes)
        sched = make_schedule(
            net, policy, buffer_bytes=buffer_bytes,
            objective=objective,
            cfg=cfg if objective in HARDWARE_OBJECTIVES else None,
        )
        res = api.price(name, policy, buffer_bytes=buffer_bytes,
                        objective=objective)
        assert res.schedule == sched
        _assert_identical(res, _reference(res, net, cfg))
        got = [(g.first_block, g.last_block, g.sub_batch, g.iterations)
               for g in res.groups]
        want = [(g.blocks[0], g.blocks[-1], g.sub_batch, g.iterations)
                for g in sched.groups]
        assert got == want


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("name", ZOO)
def test_price_bit_identical_to_internals(name, objective):
    """The acceptance matrix: every zoo network × objective × buffer."""
    _check_price_against_internals(name, "mbs-auto", objective)


@pytest.mark.parametrize("policy", FIXED_POLICIES)
@pytest.mark.parametrize("name", ZOO)
def test_fixed_policy_bit_identical_to_internals(name, policy):
    """Every fixed policy (traffic objective) on the same matrix."""
    _check_price_against_internals(name, policy, "traffic")


@pytest.mark.parametrize("name", ["toy_chain", "toy_inception"])
def test_shared_network_records_match_fresh_prices(name):
    """Records memoized on one ``Network`` serve every later price.

    Every objective, both ReLU-mask settings, two word widths and two
    hardware configs (baseline's and the rest's) price against one
    shared network object, interleaved, so each price reads records
    written by the ones before it; each must equal a price on a freshly
    built network.  A fact missing from the record key would make a
    later price read a record of another situation: the buffers are
    picked so that dropping any one fact fails this test (256 and 360
    KiB give toy_chain's blocks equal iteration counts at different
    sub-batches).
    """
    shared = build(name)
    cases = [
        ("mbs-auto", {"objective": objective, "relu_mask": relu_mask,
                      "word_bytes": word_bytes})
        for word_bytes in (2, 4)
        for relu_mask in (True, False)
        for objective in OBJECTIVES
    ] + [("baseline", {}), ("il", {}), ("mbs2", {"word_bytes": 4})]
    for kib in (4, 16, 64, 256, 360, 1024):
        for policy, kw in cases:
            got = api.price(shared, policy, buffer_bytes=kib * KIB, **kw)
            fresh = api.price(build(name), policy, buffer_bytes=kib * KIB,
                              **kw)
            _assert_identical(got, fresh)


def test_word_bytes_prices_what_the_dp_minimized():
    """DRAM bytes use the request's word width; gbuf keeps 2-byte words."""
    net = build("toy_chain")
    cfg = config_for_policy("mbs-auto", buffer_bytes=MIB)
    res = api.price(net, buffer_bytes=MIB, word_bytes=4)
    sched = make_schedule(net, "mbs-auto", buffer_bytes=MIB, word_bytes=4)
    assert res.schedule == sched
    assert res.word_bytes == 4
    rep = compute_traffic(net, sched, 4)
    step = simulate_step(net, sched, cfg, traffic=rep)
    assert res.traffic_bytes == rep.total_bytes
    assert res.step_time_s == step.time_s
    assert res.step_energy_j == step.energy.total_j
    _assert_identical(res, _reference(res, net, cfg, word_bytes=4))
    assert res.traffic_bytes > api.price(net, buffer_bytes=MIB).traffic_bytes

    swept = api.sweep(net, "mbs-auto", [64 * KIB, MIB], word_bytes=4)
    assert swept[1] == res
    req = api.ScheduleRequest(network="toy_chain", buffer_bytes=MIB,
                              word_bytes=4)
    degraded = api.degraded_result(req)
    assert degraded.word_bytes == 4
    _assert_identical(degraded, _reference(degraded, net, cfg, word_bytes=4))


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

    @pytest.mark.parametrize("field", ["buffer_bytes", "word_bytes"])
    def test_rejects_bad_buffer(self, field):
        for bad in (0, -1, -2, 2.5, True, "big", None):
            with pytest.raises(ValueError, match=field):
                api.ScheduleRequest.from_wire(
                    {"schema": 1, "network": "toy_chain", field: bad})

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


def _unmemoized_key(req):
    """The serve-cache key computed from a freshly resolved network."""
    cfg = config_for_policy(req.policy, buffer_bytes=req.buffer_bytes)
    blob = json.dumps(
        {
            "graph": network_fingerprint(req.resolve_network()),
            "policy": req.policy,
            "buffer_bytes": req.buffer_bytes,
            "mini_batch": req.mini_batch,
            "objective": req.objective,
            "relu_mask": req.relu_mask,
            "word_bytes": req.word_bytes,
            "hardware": repr(cfg),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@pytest.fixture()
def cold_memo():
    """An empty graph fingerprint memo, emptied again afterwards."""
    api._clear_graph_memo()
    yield
    api._clear_graph_memo()


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

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_fingerprint_matches_the_unmemoized_formula(self, memo,
                                                        cold_memo):
        """Keys are byte-identical to hashing the freshly resolved net."""
        graph = network_to_dict(build("toy_residual"))
        renamed = dict(graph, name="my_residual")
        reqs = [
            api.ScheduleRequest(network="toy_inception", buffer_bytes=MIB),
            api.ScheduleRequest(graph=graph, objective="energy"),
            api.ScheduleRequest(graph=renamed, policy="mbs2"),
        ]
        if memo == "warm":
            for req in reqs:
                api.request_fingerprint(req)
        for req in reqs:
            assert api.request_fingerprint(req) == _unmemoized_key(req)
        assert len({api.request_fingerprint(r) for r in reqs}) == 3

    def test_upload_memo_is_a_bounded_lru(self, monkeypatch, cold_memo):
        decodes = []
        decode = api.network_from_dict
        monkeypatch.setattr(api, "network_from_dict",
                            lambda g: decodes.append(g["name"]) or decode(g))
        graph = network_to_dict(build("toy_chain"))
        bound = api._GRAPH_MEMO_SIZE
        reqs = [api.ScheduleRequest(graph=dict(graph, name=f"net{i}"))
                for i in range(bound + 10)]
        for req in reqs:
            api.graph_fingerprint(req)
        assert len(api._graph_memo) == bound
        api.graph_fingerprint(reqs[-1])  # still remembered
        assert len(decodes) == bound + 10
        api.graph_fingerprint(reqs[0])  # forgotten: decoded again
        assert decodes[-1] == "net0" and len(decodes) == bound + 11
        assert len(api._graph_memo) == bound

    def test_memo_is_safe_under_concurrent_callers(self, cold_memo):
        """Eight threads churn an LRU smaller than their working set."""
        graph = network_to_dict(build("toy_chain"))
        reqs = [api.ScheduleRequest(graph=dict(graph, name=f"net{i % 300}"))
                for i in range(900)]
        reqs += [api.ScheduleRequest(network=n)
                 for n in ("toy_chain", "toy_residual") * 50]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                keys = list(pool.map(api.request_fingerprint, reqs,
                                     timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert keys == [_unmemoized_key(r) for r in reqs]
        assert len(api._graph_memo) == api._GRAPH_MEMO_SIZE

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
        cfg = config_for_policy("mbs-auto", buffer_bytes=64 * KIB)
        _assert_identical(res, _reference(res, build("toy_residual"), cfg))
