"""Serving-path benchmarks: request latency over a live HTTP socket.

One real ``mbs-repro serve`` stack (engine + asyncio HTTP server) runs
in a background thread; the benchmarks drive it through a keep-alive
``http.client`` connection, so the timings include the full wire path
a user pays — parse, dedup/cache lookup, DP dispatch, JSON response.

Four regimes:

* **cold** — every request is a fresh (network, buffer) point: the
  full schedule search runs.
* **cached** — the same request repeated: served from the persistent
  result cache, no DP.
* **cached inception_v4** — hits on the largest zoo network, named and
  uploaded as a graph: what a hit costs when the network is big.
* **deduped burst** — eight identical concurrent requests at a fresh
  point: one DP fans out to all waiters.

``extra_info`` carries p50/p99 latency and throughput for the
artifact upload; the gated number (``benchmarks/baselines.json``) is
the pytest-benchmark median.
"""
import asyncio
import http.client
import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph.serialize import network_to_dict
from repro.runtime.cache import ResultCache
from repro.serve import ScheduleEngine, Server
from repro.types import KIB, MIB
from repro.zoo import build


class _LiveServer:
    """The serve stack on a private event loop in a daemon thread."""

    def __init__(self, cache_dir):
        self.loop = asyncio.new_event_loop()
        self.server = None
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)

            async def boot():
                engine = ScheduleEngine(
                    workers=0, batch_window_s=0.001,
                    cache=ResultCache(cache_dir),
                )
                self.server = Server(engine)
                await self.server.start()
                started.set()

            self.loop.run_until_complete(boot())
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("serve stack failed to start")

    @property
    def port(self):
        return self.server.port

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    stack = _LiveServer(tmp_path_factory.mktemp("serve-cache"))
    yield stack
    stack.close()


#: Fresh buffer sizes: each draw is a never-seen cache/dedup key.
_fresh_buffer = itertools.count(64 * KIB, 512)


def _wire(buffer_bytes):
    return {"schema": 1, "network": "toy_chain", "policy": "mbs-auto",
            "buffer_bytes": buffer_bytes, "objective": "traffic"}


def _post(conn, wire):
    body = wire if isinstance(wire, str) else json.dumps(wire)
    conn.request("POST", "/v1/schedule", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    body = json.loads(resp.read().decode())
    assert resp.status == 200, body
    return body


def _percentiles(latencies):
    ordered = sorted(latencies)
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "p99_ms": 1e3 * ordered[min(len(ordered) - 1,
                                    int(0.99 * len(ordered)))],
    }


def test_bench_serve_cold_request(benchmark, live):
    """Full wire path + full DP: every request a fresh buffer point."""
    conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=60)
    try:
        latencies = []
        for _ in range(30):
            t0 = time.perf_counter()
            body = _post(conn, _wire(next(_fresh_buffer)))
            latencies.append(time.perf_counter() - t0)
            assert not body["cached"] and not body["degraded"]
        benchmark.extra_info.update(_percentiles(latencies))
        benchmark.extra_info["throughput_rps"] = (
            len(latencies) / sum(latencies))

        body = benchmark(lambda: _post(conn, _wire(next(_fresh_buffer))))
        assert body["result"]["traffic_bytes"] > 0
    finally:
        conn.close()


def test_bench_serve_cached_request(benchmark, live):
    """Wire path only: the repeated request hits the result cache."""
    conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=60)
    try:
        wire = _wire(next(_fresh_buffer))
        _post(conn, wire)  # warm the cache

        latencies = []
        for _ in range(50):
            t0 = time.perf_counter()
            body = _post(conn, wire)
            latencies.append(time.perf_counter() - t0)
            assert body["cached"] is True
        benchmark.extra_info.update(_percentiles(latencies))
        benchmark.extra_info["throughput_rps"] = (
            len(latencies) / sum(latencies))

        body = benchmark(lambda: _post(conn, wire))
        assert body["cached"] is True
    finally:
        conn.close()


def test_bench_serve_cached_inception_v4(benchmark, live):
    """Hit path on a big network: four named hits and one upload a round.

    The uploaded graph is the exported network, so it hits the entry
    the name stored (one in five requests uploads, as in perfbench's
    serve-mix).  Bodies are encoded once, outside the timed rounds.
    """
    named = {"schema": 1, "network": "inception_v4", "policy": "mbs2",
             "buffer_bytes": MIB}
    uploaded = {"schema": 1, "graph": network_to_dict(build("inception_v4")),
                "policy": "mbs2", "buffer_bytes": MIB}
    bodies = [json.dumps(named)] * 4 + [json.dumps(uploaded)]
    conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=60)

    def one_round():
        return [_post(conn, body) for body in bodies]

    try:
        assert not _post(conn, named)["cached"]  # warm the cache

        latencies = {"named": [], "uploaded": []}
        for _ in range(10):
            for body in bodies:
                t0 = time.perf_counter()
                assert _post(conn, body)["cached"] is True
                kind = "uploaded" if body is bodies[-1] else "named"
                latencies[kind].append(time.perf_counter() - t0)
        for kind, values in latencies.items():
            for name, value in _percentiles(values).items():
                benchmark.extra_info[f"{kind}_{name}"] = value

        answers = benchmark(one_round)
        assert all(a["cached"] for a in answers)
        assert all(a["result"] == answers[0]["result"] for a in answers)
    finally:
        conn.close()


def test_bench_serve_deduped_burst(benchmark, live):
    """Eight identical concurrent requests share one DP execution."""
    clients = ThreadPoolExecutor(max_workers=8)

    def burst():
        wire = _wire(next(_fresh_buffer))

        def one():
            conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                              timeout=60)
            try:
                return _post(conn, wire)
            finally:
                conn.close()

        return list(clients.map(lambda _: one(), range(8)))

    try:
        latencies = []
        for _ in range(10):
            t0 = time.perf_counter()
            bodies = burst()
            latencies.append(time.perf_counter() - t0)
            assert sum(1 for b in bodies if b["deduped"]) >= 1
        benchmark.extra_info.update(_percentiles(latencies))
        benchmark.extra_info["throughput_rps"] = (
            8 * len(latencies) / sum(latencies))

        bodies = benchmark(burst)
        first = bodies[0]["result"]
        assert all(b["result"] == first for b in bodies)
    finally:
        clients.shutdown()
