"""Scheduling-as-a-service: engine semantics + HTTP integration.

The engine tests inject counting pricers (``workers=0`` runs them on
the default thread executor, in-process) so dedup/batching can be
asserted as *exact execution counts*, not timings.  The HTTP tests
drive a real ``asyncio.start_server`` socket with stdlib
``http.client`` and check the responses are bit-identical to
:func:`repro.api.price`.
"""

import asyncio
import http.client
import json
import socket
import time

import pytest

from repro import api
from repro.graph.serialize import (
    GraphSchemaError,
    network_fingerprint,
    network_to_dict,
)
from repro.runtime.cache import ResultCache
from repro.serve import ScheduleEngine, Server
from repro.serve.engine import price_batch_wire, price_wire
from repro.serve.server import MAX_BODY_BYTES
from repro.types import KIB, MIB
from repro.zoo import build


def run(coro):
    return asyncio.run(coro)


def _wire(network="toy_chain", **over):
    wire = {"schema": 1, "network": network, "policy": "mbs-auto",
            "buffer_bytes": 64 * KIB, "objective": "traffic"}
    wire.update(over)
    return wire


# ---------------------------------------------------------------------------
# engine semantics (in-process, counting stubs)
# ---------------------------------------------------------------------------

class TestDedup:
    def test_concurrent_identical_requests_execute_dp_exactly_once(self):
        calls = []

        def counting_pricer(wire):
            calls.append(wire)
            time.sleep(0.05)  # long enough for every waiter to pile up
            return price_wire(wire)

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.005,
                                 pricer=counting_pricer)
            try:
                return await asyncio.gather(
                    *[eng.submit(_wire()) for _ in range(8)])
            finally:
                await eng.aclose()

        outs = run(go())
        assert len(calls) == 1, "identical in-flight queries must share one DP"
        results = [r for r, _ in outs]
        assert all(r == results[0] for r in results)
        assert sum(1 for _, m in outs if m["deduped"]) == 7

    def test_different_requests_do_not_dedup(self):
        calls = []

        def counting_pricer(wire):
            calls.append(wire)
            return price_wire(wire)

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.005,
                                 pricer=counting_pricer)
            try:
                await asyncio.gather(
                    eng.submit(_wire("toy_chain")),
                    eng.submit(_wire("toy_residual")))
            finally:
                await eng.aclose()

        run(go())
        assert len(calls) == 2

    def test_stats_count_dedup(self):
        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.005)
            try:
                await asyncio.gather(*[eng.submit(_wire())
                                       for _ in range(3)])
                return eng.stats
            finally:
                await eng.aclose()

        stats = run(go())
        assert stats.requests == 3
        assert stats.executions == 1
        assert stats.dedup_hits == 2


class TestBatching:
    def test_buffer_sweep_rides_one_batch_dispatch(self):
        batches, singles = [], []

        def batch_pricer(wires):
            batches.append(len(wires))
            return price_batch_wire(wires)

        def single_pricer(wire):
            singles.append(1)
            return price_wire(wire)

        buffers = (64 * KIB, 256 * KIB, MIB)

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.02,
                                 pricer=single_pricer,
                                 batch_pricer=batch_pricer)
            try:
                return await asyncio.gather(
                    *[eng.submit(_wire(buffer_bytes=b)) for b in buffers])
            finally:
                await eng.aclose()

        outs = run(go())
        assert batches == [3] and not singles
        for b, (result, meta) in zip(buffers, outs):
            expect = api.price("toy_chain", "mbs-auto",
                               buffer_bytes=b).to_wire()
            assert result == expect, "batched price must be bit-identical"

    def test_mixed_networks_split_into_groups(self):
        batches, singles = [], []

        def batch_pricer(wires):
            batches.append(len(wires))
            return price_batch_wire(wires)

        def single_pricer(wire):
            singles.append(1)
            return price_wire(wire)

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.02,
                                 pricer=single_pricer,
                                 batch_pricer=batch_pricer)
            try:
                await asyncio.gather(
                    eng.submit(_wire("toy_chain", buffer_bytes=64 * KIB)),
                    eng.submit(_wire("toy_chain", buffer_bytes=MIB)),
                    eng.submit(_wire("toy_residual")))
            finally:
                await eng.aclose()

        run(go())
        assert batches == [2]   # the two toy_chain buffer points
        assert singles == [1]   # toy_residual rides alone


class TestDegradation:
    def test_timeout_returns_degraded_greedy(self):
        def slow_pricer(wire):
            time.sleep(1.0)
            return price_wire(wire)

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 timeout_s=0.05, pricer=slow_pricer)
            try:
                return await eng.submit(_wire(objective="latency"))
            finally:
                await eng.aclose()

        result, meta = run(go())
        assert meta["degraded"] is True
        assert result["degraded"] is True
        assert result["policy"] == "mbs2"  # the greedy fallback
        exact = api.price("toy_chain", "mbs2", buffer_bytes=64 * KIB)
        assert result["traffic_bytes"] == exact.traffic_bytes

    def test_saturated_queue_sheds_load(self):
        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=10.0,
                                 max_pending=0)
            try:
                return await eng.submit(_wire())
            finally:
                await eng.aclose()

        result, meta = run(go())
        assert meta["degraded"] is True and result["degraded"] is True

    def test_pricer_exception_propagates(self):
        def broken(wire):
            raise RuntimeError("boom")

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 pricer=broken)
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await eng.submit(_wire())
                return eng.stats.errors
            finally:
                await eng.aclose()

        assert run(go()) == 1


class TestEngineCache:
    def test_hit_within_and_across_engine_instances(self, tmp_path):
        cache = ResultCache(tmp_path / "serve-cache")

        async def first():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 cache=cache)
            try:
                r1, m1 = await eng.submit(_wire())
                r2, m2 = await eng.submit(_wire())
                return r1, m1, r2, m2
            finally:
                await eng.aclose()

        r1, m1, r2, m2 = run(first())
        assert m1["cached"] is False and m2["cached"] is True
        assert r2 == r1

        async def second():
            eng = ScheduleEngine(workers=0,
                                 cache=ResultCache(tmp_path / "serve-cache"))
            try:
                r3, m3 = await eng.submit(_wire())
                return r3, m3, eng.stats.executions
            finally:
                await eng.aclose()

        r3, m3, executions = run(second())
        assert m3["cached"] is True and r3 == r1
        assert executions == 0, "a warm cache must not re-run the DP"

    def test_stale_code_fingerprint_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "serve-cache")

        async def go(eng):
            try:
                return await eng.submit(_wire())
            finally:
                await eng.aclose()

        run(go(ScheduleEngine(workers=0, batch_window_s=0.001,
                              cache=cache)))
        monkeypatch.setattr("repro.serve.engine.serve_fingerprint",
                            lambda: "different-build")
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache)
        _, meta = run(go(eng))
        assert meta["cached"] is False

    def test_bad_request_rejected_before_any_work(self):
        async def go():
            eng = ScheduleEngine(workers=0)
            try:
                with pytest.raises(ValueError, match="unknown policy"):
                    await eng.submit(_wire(policy="mbs9"))
                return eng.stats.executions
            finally:
                await eng.aclose()

        assert run(go()) == 0


@pytest.fixture()
def decodes(monkeypatch):
    """Count zoo builds and graph decodes, from an empty fingerprint memo."""
    counts = {"build": 0, "decode": 0}
    build_zoo, decode = api.build_zoo_network, api.network_from_dict

    def counting_build(name):
        counts["build"] += 1
        return build_zoo(name)

    def counting_decode(graph):
        counts["decode"] += 1
        return decode(graph)

    monkeypatch.setattr(api, "build_zoo_network", counting_build)
    monkeypatch.setattr(api, "network_from_dict", counting_decode)
    api._clear_graph_memo()
    yield counts
    api._clear_graph_memo()


def _with_field(graph, block, field, value):
    """A copy of ``graph`` with one field of block ``block``'s first layer set."""
    graph = json.loads(json.dumps(graph))
    graph["blocks"][block]["branches"][0]["layers"][0][field] = value
    return graph


class TestGraphMemo:
    """A hit builds, decodes and serializes no network."""

    def test_hits_decode_once_per_name_and_per_upload(self, tmp_path,
                                                      decodes):
        graph = network_to_dict(build("toy_residual"))
        stub = {"stub": True}

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 cache=ResultCache(tmp_path),
                                 pricer=lambda wire: stub)
            try:
                metas = []
                for _ in range(20):
                    metas.append((await eng.submit(_wire()))[1])
                for _ in range(20):
                    metas.append((await eng.submit(
                        {"schema": 1, "graph": graph,
                         "buffer_bytes": 64 * KIB}))[1])
                return metas, eng.stats.executions
            finally:
                await eng.aclose()

        metas, executions = run(go())
        assert executions == 2
        assert [m["cached"] for m in metas] == ([False] + [True] * 19) * 2
        assert decodes == {"build": 1, "decode": 1}

    def test_a_miss_decodes_once_in_the_worker(self, tmp_path, decodes):
        """After the first request the fingerprint never decodes again."""

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 cache=ResultCache(tmp_path))
            try:
                for buffer_bytes in (32 * KIB, 64 * KIB, 96 * KIB):
                    await eng.submit(_wire(buffer_bytes=buffer_bytes))
                    for _ in range(5):
                        _, meta = await eng.submit(
                            _wire(buffer_bytes=buffer_bytes))
                        assert meta["cached"] is True
            finally:
                await eng.aclose()

        run(go())
        # one build for the memo, one per miss in the pricing worker
        assert decodes == {"build": 1 + 3, "decode": 0}

    def test_name_and_exported_graph_share_an_entry(self, tmp_path, decodes):
        graph = network_to_dict(build("toy_chain"))

        async def go():
            eng = ScheduleEngine(workers=0, batch_window_s=0.001,
                                 cache=ResultCache(tmp_path))
            try:
                named = await eng.submit(_wire())
                uploaded = await eng.submit(
                    {"schema": 1, "graph": graph, "policy": "mbs-auto",
                     "buffer_bytes": 64 * KIB, "objective": "traffic"})
                return named, uploaded
            finally:
                await eng.aclose()

        (r1, m1), (r2, m2) = run(go())
        assert m1["cached"] is False and m2["cached"] is True
        assert r2 == r1

    def test_non_integer_int_fields_stay_400_after_a_price(self, tmp_path,
                                                           decodes):
        """``64.0`` and ``true`` are not 64 and 1 to the memo."""
        graph = network_to_dict(build("toy_chain"))
        cache = ResultCache(tmp_path / "serve-cache")
        # stage2's conv has 64 output channels, stage0's conv stride [1, 1]
        conv2 = "$.blocks[2].branches[0].layers[0]"
        conv0 = "$.blocks[0].branches[0].layers[0]"
        bad = [
            (_with_field(graph, 2, "out_channels", 64.0),
             f"{conv2}.out_channels: expected a positive integer at most "
             f"{2**53}, got 64.0"),
            (_with_field(graph, 2, "out_channels", True),
             f"{conv2}.out_channels: expected a positive integer at most "
             f"{2**53}, got True"),
            (_with_field(graph, 0, "stride", [True, 1]),
             f"{conv0}.stride: expected an array of 2 positive integers at "
             f"most {2**53}, got [True, 1]"),
            (_with_field(graph, 0, "stride", [1.0, 1]),
             f"{conv0}.stride: expected an array of 2 positive integers at "
             f"most {2**53}, got [1.0, 1]"),
        ]

        def fn(port):
            first = _post(port, {"schema": 1, "graph": graph,
                                 "buffer_bytes": 64 * KIB})
            answers = [_post(port, {"schema": 1, "graph": g,
                                    "buffer_bytes": 64 * KIB})
                       for g, _ in bad]
            return first, answers, _get(port, "/v1/stats")

        (s0, b0), answers, (_, stats) = run(_with_server(fn, cache=cache))
        assert s0 == 200 and b0["cached"] is False
        for (status, body), (_, message) in zip(answers, bad):
            assert (status, body) == (400, {"error": message})
        assert stats["executions"] == 1 and stats["cache_hits"] == 0
        assert len(list(cache.entries("serve"))) == 1
        assert len(api._graph_memo) == 1
        # every bad graph was decoded: one good decode + price, four bad
        assert decodes["decode"] == 2 + len(bad)

    def test_schema_invalid_graph_gets_the_same_400_twice(self, decodes):
        graph = network_to_dict(build("toy_chain"))
        graph["blocks"][0]["branches"][0]["layers"][0]["kind"] = "lstm"
        wire = {"schema": 1, "graph": graph, "buffer_bytes": 64 * KIB}

        def fn(port):
            return _post(port, wire), _post(port, wire)

        first, second = run(_with_server(fn))
        assert first[0] == 400
        assert "$.blocks[0].branches[0].layers[0].kind" in first[1]["error"]
        assert second == first
        assert decodes["decode"] == 2, "a failure must never be memoized"

    def test_tuple_graph_stays_an_error_after_its_list_twin(self, decodes):
        """``json.dumps`` writes a tuple as an array; the decoder refuses it."""
        graph = network_to_dict(build("toy_chain"))
        api.graph_fingerprint(api.ScheduleRequest(graph=graph))
        twin = json.loads(json.dumps(graph))
        twin["blocks"][0]["in_shape"] = tuple(twin["blocks"][0]["in_shape"])
        with pytest.raises(GraphSchemaError, match=r"blocks\[0\]\.in_shape"):
            api.request_fingerprint(api.ScheduleRequest(graph=twin))
        assert len(api._graph_memo) == 1

    def test_unencodable_graph_is_decoded_without_the_memo(self, decodes):
        graph = network_to_dict(build("toy_chain"))

        class Int(int):  # decodes as its value, but json.loads never makes one
            pass

        graph["default_mini_batch"] = Int(graph["default_mini_batch"])
        req = api.ScheduleRequest(graph=graph)
        fingerprints = {api.graph_fingerprint(req) for _ in range(3)}
        assert fingerprints == {network_fingerprint(build("toy_chain"))}
        assert decodes["decode"] == 3 and not api._graph_memo


# ---------------------------------------------------------------------------
# HTTP integration (real sockets)
# ---------------------------------------------------------------------------

def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _post(port, body, path="/v1/schedule"):
    text = body if isinstance(body, str) else json.dumps(body)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=text,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


async def _with_server(fn, **engine_kwargs):
    """Start a server on an ephemeral port, run ``fn(port)`` off-loop.

    Fails if the event loop reported any exception (a handler that
    crashed and dropped its connection) while the server ran.
    """
    engine_kwargs.setdefault("workers", 0)
    engine_kwargs.setdefault("batch_window_s", 0.002)
    loop = asyncio.get_running_loop()
    reported = []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    server = Server(ScheduleEngine(**engine_kwargs))
    await server.start()
    try:
        result = await loop.run_in_executor(None, fn, server.port)
    finally:
        await server.aclose()
    assert not reported, f"event loop reported: {reported}"
    return result


class TestHttp:
    def test_healthz(self):
        status, body = run(_with_server(lambda p: _get(p, "/healthz")))
        assert (status, body) == (200, {"ok": True})

    def test_policies_and_objectives(self):
        def fn(port):
            return _get(port, "/v1/policies"), _get(port, "/v1/objectives")

        (st_p, pol), (st_o, obj) = run(_with_server(fn))
        assert st_p == st_o == 200
        assert tuple(pol["policies"]) == api.policies()
        assert tuple(obj["objectives"]) == api.objectives()

    def test_schedule_response_bit_identical_to_facade(self):
        cases = [
            _wire(net, buffer_bytes=buf, objective=obj)
            for net in ("toy_chain", "toy_residual", "toy_inception")
            for buf in (64 * KIB, MIB)
            for obj in api.objectives()
        ]

        def fn(port):
            return [_post(port, c) for c in cases]

        responses = run(_with_server(fn))
        for case, (status, body) in zip(cases, responses):
            assert status == 200, body
            expect = api.price(api.ScheduleRequest.from_wire(case))
            assert body["result"] == expect.to_wire(), case
            assert body["schema"] == 1
            assert body["degraded"] is False

    def test_inline_graph_request(self):
        graph = network_to_dict(build("toy_residual"))
        wire = {"schema": 1, "graph": graph, "policy": "mbs-auto",
                "buffer_bytes": 64 * KIB}

        status, body = run(_with_server(lambda p: _post(p, wire)))
        assert status == 200
        expect = api.price("toy_residual", "mbs-auto",
                           buffer_bytes=64 * KIB).to_wire()
        assert body["result"] == expect

    def test_cache_hit_across_connections(self, tmp_path):
        cache = ResultCache(tmp_path / "serve-cache")

        def fn(port):
            return _post(port, _wire()), _post(port, _wire())

        (s1, b1), (s2, b2) = run(_with_server(fn, cache=cache))
        assert s1 == s2 == 200
        assert b1["cached"] is False
        assert b2["cached"] is True, "second connection must hit the cache"
        assert b2["result"] == b1["result"]

    def test_timeout_degrades_over_http(self):
        def slow_pricer(wire):
            time.sleep(1.0)
            return price_wire(wire)

        status, body = run(_with_server(
            lambda p: _post(p, _wire()),
            timeout_s=0.05, pricer=slow_pricer))
        assert status == 200
        assert body["degraded"] is True
        assert body["result"]["policy"] == "mbs2"

    def test_malformed_json_is_400(self):
        status, body = run(_with_server(lambda p: _post(p, "{nope")))
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_network_is_400(self):
        status, body = run(_with_server(
            lambda p: _post(p, _wire("resnet5"))))
        assert status == 400
        assert "unknown network" in body["error"]

    def test_schema_violation_is_400(self):
        status, body = run(_with_server(
            lambda p: _post(p, {"schema": 1, "network": "toy_chain",
                                "buffer_bytes": -1})))
        assert status == 400
        assert "buffer_bytes" in body["error"]

    def test_bad_word_bytes_is_400(self):
        """Never a 500, a bare TypeError, or a priced-and-cached answer."""
        bad = (0, "x", -2, 2.5, True)

        def fn(port):
            return [_post(port, _wire(word_bytes=w)) for w in bad]

        for status, body in run(_with_server(fn)):
            assert status == 400
            assert "word_bytes" in body["error"]

    def test_non_object_body_is_400(self):
        status, body = run(_with_server(lambda p: _post(p, "[1, 2]")))
        assert status == 400

    @pytest.mark.parametrize("length, status, error", [
        ("-5", 400, "bad Content-Length"),
        ("abc", 400, "bad Content-Length"),
        (str(MAX_BODY_BYTES + 1), 413, "request body too large"),
    ])
    def test_bad_content_length_is_answered(self, length, status, error):
        """A reply, never a dropped connection, and the server lives on."""
        head = (f"POST /v1/schedule HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n").encode()

        def fn(port):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as sock:
                sock.sendall(head)
                resp = http.client.HTTPResponse(sock)
                resp.begin()
                answer = resp.status, json.loads(resp.read().decode())
            return answer, _get(port, "/healthz")

        answer, health = run(_with_server(fn))
        assert answer == (status, {"error": error})
        assert health == (200, {"ok": True})

    def test_unknown_path_is_404(self):
        status, _ = run(_with_server(lambda p: _get(p, "/v2/schedule")))
        assert status == 404

    def test_wrong_method_is_405(self):
        def fn(port):
            return _get(port, "/v1/schedule"), _post(port, {}, "/healthz")

        (s1, _), (s2, _) = run(_with_server(fn))
        assert s1 == 405 and s2 == 405

    def test_stats_endpoint(self, tmp_path):
        def fn(port):
            _post(port, _wire())
            _post(port, _wire())
            return _get(port, "/v1/stats")

        status, stats = run(_with_server(
            fn, cache=ResultCache(tmp_path / "serve-cache")))
        assert status == 200
        assert stats["requests"] == 2
        assert stats["executions"] == 1
        assert stats["cache_hits"] == 1  # the second, sequential request

    def test_keep_alive_reuses_connection(self):
        def fn(port):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=30)
            try:
                out = []
                for _ in range(3):
                    conn.request("POST", "/v1/schedule",
                                 body=json.dumps(_wire()),
                                 headers={"Content-Type":
                                          "application/json"})
                    resp = conn.getresponse()
                    out.append((resp.status,
                                json.loads(resp.read().decode())))
                return out
            finally:
                conn.close()

        for status, body in run(_with_server(fn)):
            assert status == 200 and "result" in body


class TestCliServe:
    def test_bad_flags_are_usage_errors(self, capsys):
        from repro.experiments.runner import main

        assert main(["serve", "--timeout", "0"]) == 2
        assert main(["serve", "--workers", "-1"]) == 2
        assert main(["serve", "--cache-max-entries", "-1"]) == 2
        assert main(["serve", "--cache-max-bytes", "-1"]) == 2
        assert main(["serve", "--bogus"]) == 2
        assert main(["serve", "--port", "99999"]) == 2
        assert main(["serve", "--port", "-5"]) == 2

    def test_serve_in_subcommands(self):
        from repro.experiments.runner import _build_parser

        args = _build_parser().parse_args(["serve", "--port", "0"])
        assert (args.command, args.port) == ("serve", 0)


class TestCacheEviction:
    def _fill(self, eng, n):
        async def go():
            try:
                for i in range(n):
                    await eng.submit(_wire(buffer_bytes=(i + 1) * 32 * KIB))
            finally:
                await eng.aclose()

        run(go())

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache)
        self._fill(eng, 5)
        assert len(list(cache.entries("serve"))) == 5
        assert eng.stats.evictions == 0

    def test_max_entries_bounds_the_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache,
                             cache_max_entries=3)
        self._fill(eng, 5)
        assert len(list(cache.entries("serve"))) == 3
        assert eng.stats.evictions == 2

    def test_lru_keeps_recently_used_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache,
                             cache_max_entries=2)

        async def go():
            try:
                _, m1 = await eng.submit(_wire(buffer_bytes=32 * KIB))
                await eng.submit(_wire(buffer_bytes=64 * KIB))
                # touch the first entry so the second becomes the LRU
                _, m2 = await eng.submit(_wire(buffer_bytes=32 * KIB))
                await eng.submit(_wire(buffer_bytes=96 * KIB))
                # first must still hit; second was evicted
                _, m3 = await eng.submit(_wire(buffer_bytes=32 * KIB))
                _, m4 = await eng.submit(_wire(buffer_bytes=64 * KIB))
                return m1, m2, m3, m4
            finally:
                await eng.aclose()

        m1, m2, m3, m4 = run(go())
        assert m1["cached"] is False and m2["cached"] is True
        assert m3["cached"] is True, "recently-used entry must survive"
        assert m4["cached"] is False, "LRU entry must have been evicted"
        assert eng.stats.evictions >= 1

    def test_max_bytes_bounds_the_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        probe = ScheduleEngine(workers=0, batch_window_s=0.001,
                               cache=cache)
        self._fill(probe, 1)
        size = next(cache.entries("serve")).stat().st_size
        cache.clear("serve")

        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache,
                             cache_max_bytes=2 * size + size // 2)
        self._fill(eng, 4)
        paths = list(cache.entries("serve"))
        assert sum(p.stat().st_size for p in paths) <= 2 * size + size // 2
        assert eng.stats.evictions >= 1

    def test_restart_seeds_lru_from_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache)
        self._fill(eng, 5)
        # a bounded restart trims the inherited store immediately
        eng2 = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache,
                              cache_max_entries=2)
        assert len(list(cache.entries("serve"))) == 2
        assert eng2.stats.evictions == 3
        run(eng2.aclose())

    def test_stats_wire_reports_evictions(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ScheduleEngine(workers=0, batch_window_s=0.001, cache=cache,
                             cache_max_entries=1)
        self._fill(eng, 3)
        wire = eng.stats.to_wire()
        assert wire["evictions"] == 2

    def test_stats_endpoint_reports_evictions(self, tmp_path):
        def fn(port):
            for i in range(3):
                _post(port, _wire(buffer_bytes=(i + 1) * 32 * KIB))
            return _get(port, "/v1/stats")

        status, stats = run(_with_server(
            fn, cache=ResultCache(tmp_path / "serve-cache"),
            cache_max_entries=2))
        assert status == 200
        assert stats["evictions"] == 1
