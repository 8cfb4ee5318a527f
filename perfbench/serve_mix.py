"""serve-mix: ``POST /v1/schedule`` as the pricing service's clients use it.

One keep-alive connection drives one ``mbs-repro serve`` (default
flags, fresh ``--cache-dir``) in a closed loop.  With one request in
flight, server-side dedup and batching never trigger, every response's
``cached`` flag is predictable from the stream, and at most one
process is busy at a time (the generator, the server or its pool
worker), so the figures do not depend on how a two-vCPU host schedules
competing threads.

The stream is built from the seed before anything is timed.  It runs
in rounds; a round prices each of the seven (policy, objective) pairs
once for each of the eight networks, so every round holds the same 56
(network, pair) misses, in a seeded order.  A miss's buffer size comes
from one of six narrow log-spaced bands, dealt per (network, pair) so
that six rounds use every band once (:func:`deal`): an ``mbs-auto``
price costs several times more at 8 MiB than at 64 KiB, so the seed
picks only the order and a buffer within each band.  Each miss is
followed by ``HITS_PER_MISS`` hits, dealt so every network gets the
same number, each on a key its network has already priced, drawn with
skewed (Pareto-weighted) popularity.  One request in five for a
network uploads it as a ``{"schema": 1}`` graph instead of naming it,
also dealt.  The stream opens with one miss per network, so every
network has a key to hit.

Fast operation: a cache hit.  Hit latency clusters tightly by network
(about 1 ms for toy_chain, 9 ms for inception_v4), so a median pooled
over the eight networks lands in the gap between two clusters and
jumps; ``fast_p50_ms``/``fast_p90_ms`` are each network's own
percentile, averaged over the networks.  Slow operation: a miss
(priced in the server's pool worker); miss costs spread continuously,
so its percentiles are pooled.  Throughput counts both.
"""
from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass

import common
import tracing

NETS = ("toy_chain", "toy_residual", "toy_inception", "alexnet",
        "resnet34", "resnet50", "inception_v3", "inception_v4")
COMBOS = (
    ("mbs-auto", "traffic"), ("mbs-auto", "latency"),
    ("mbs-auto", "latency+traffic"), ("mbs-auto", "energy"),
    ("mbs2", None), ("mbs1", None), ("baseline", None),
)
#: Log-spaced buffer sizes, 32 KiB to 16 MiB, in six narrow bands.
BUFFERS = tuple(round(32 * 2 ** (i / 5)) * 1024 for i in range(46))
BANDS = tuple(BUFFERS[i - 1:i + 2] for i in (4, 11, 19, 27, 34, 42))
HITS_PER_MISS = 8
#: Rounds (56 misses and their hits each) per second of ``--seconds``.
ROUNDS_PER_SECOND = 0.25
UPLOAD_EVERY = 5
#: Outside every stream's key space (buffer not a multiple of 1 KiB).
WARMUP = {"schema": 1, "network": "toy_chain", "policy": "mbs2",
          "buffer_bytes": 3_000_000}
SETUP_STARTS = 5
PRICE_CHECKS = 12


@dataclass
class Req:
    key: tuple
    wire: dict
    body: bytes
    cached: bool


def deal(rng: random.Random, cards):
    """Endless draws: each card once per round, rounds shuffled."""
    while True:
        deck = list(cards)
        rng.shuffle(deck)
        yield from deck


def make_stream(seed: int, seconds: float) -> list[Req]:
    from repro.graph.serialize import network_to_dict
    from repro.zoo import build

    rng = random.Random(seed)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    graphs = {net: network_to_dict(build(net)) for net in NETS}
    seen = {net: [] for net in NETS}
    weights = {net: [] for net in NETS}
    uploads = {net: deal(rng, [True] + [False] * (UPLOAD_EVERY - 1))
               for net in NETS}
    hit_nets = deal(rng, NETS)
    bands = {(net, combo): deal(rng, BANDS)
             for net in NETS for combo in COMBOS}
    stream: list[Req] = []

    def request(key, cached):
        net, policy, objective, buffer_bytes = key
        wire = {"schema": 1, "policy": policy, "buffer_bytes": buffer_bytes}
        if next(uploads[net]):
            wire["graph"] = graphs[net]
        else:
            wire["network"] = net
        if objective is not None:
            wire["objective"] = objective
        stream.append(Req(key, wire, json.dumps(wire).encode(), cached))

    def miss(net, combo):
        band = next(bands[net, combo])
        unused = [b for b in band if (net, *combo, b) not in seen[net]]
        if not unused:  # a long run has used up the band
            unused = [b for b in BUFFERS if (net, *combo, b) not in seen[net]]
        key = (net, *combo, rng.choice(unused))
        seen[net].append(key)
        weights[net].append(rng.paretovariate(1.0))
        request(key, cached=False)

    def hit(net):
        request(rng.choices(seen[net], weights[net])[0], cached=True)

    for r in range(rounds):
        cells = [(net, combo) for net in NETS for combo in COMBOS]
        rng.shuffle(cells)
        if r == 0:
            opening = {}
            for cell in cells:
                opening.setdefault(cell[0], cell)
            for cell in opening.values():
                miss(*cell)
            cells = [c for c in cells if c not in opening.values()]
        for cell in cells:
            miss(*cell)
            for _ in range(HITS_PER_MISS):
                hit(next(hit_nets))
    return stream


def drive(port: int, stream, tracer=None) -> tuple[list, float]:
    """Run the stream on one connection, closed loop.

    Returns ``(responses, wall seconds)``; a response is ``(status,
    body bytes, latency s)``.
    """
    client = common.Client(port)
    out = []
    start = time.perf_counter()
    for n, req in enumerate(stream):
        token = None
        if tracer is not None:
            token = tracing.set_rid(n)
            tracer.expect(engine_key(req.wire), n)
        t0 = time.perf_counter()
        try:
            status, data = client.call("POST", "/v1/schedule", req.body)
        except OSError as exc:
            status, data = 0, repr(exc).encode()
            client.close()
            client = common.Client(port)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.spans.append(("serve.server.self", t0, t1, n))
            tracing.reset_rid(token)
        out.append((status, data, t1 - t0))
    wall = time.perf_counter() - start
    client.close()
    return out, wall


def engine_key(wire) -> tuple:
    """What identifies an in-flight request on the server side."""
    net = wire.get("network") or wire["graph"]["name"]
    return (net, wire.get("policy"), wire.get("objective"),
            wire.get("buffer_bytes"))


def check(stream, results, stats, seed) -> tuple[int, list[str], dict]:
    """Per-request and whole-run correctness; see the module docstring.

    Returns ``(failed requests, problems, latencies)``; the latencies
    are ``{"miss": [...], "hit": {network: [...]}}``.
    """
    from repro import api

    failed, problems = 0, []
    lat = {"miss": [], "hit": {net: [] for net in NETS}}
    first: dict[tuple, bytes] = {}
    misses = []
    for req, (status, data, seconds) in zip(stream, results):
        ok = status == 200
        if ok:
            body = json.loads(data)
            result = json.dumps(body["result"], sort_keys=True)
            ok = (not body["degraded"] and body["cached"] == req.cached
                  and first.setdefault(req.key, result) == result)
            if not req.cached:
                misses.append((req, result))
        if not ok:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{req.key}: HTTP {status} {data[:120]!r}")
        if req.cached:
            lat["hit"][req.key[0]].append(seconds)
        else:
            lat["miss"].append(seconds)
    rng = random.Random(seed)
    for req, result in rng.sample(misses, min(PRICE_CHECKS, len(misses))):
        expected = api.price(api.ScheduleRequest.from_wire(req.wire))
        if json.dumps(expected.to_wire(), sort_keys=True) != result:
            problems.append(f"{req.key}: served price differs from api.price")
    total = len(stream)
    n_miss = sum(not r.cached for r in stream)
    expected_stats = {
        "requests": total + 1, "executions": n_miss + 1,
        "cache_hits": total - n_miss, "dedup_hits": 0, "batched": 0,
        "degraded": 0, "errors": 0, "evictions": 0,
    }
    for name, want in expected_stats.items():
        if stats.get(name) != want:
            problems.append(f"/v1/stats {name} = {stats.get(name)}, "
                            f"expected {want}")
    return failed, problems, lat


def per_network_ms(hits: dict, p: float) -> float:
    """Each network's ``p``-th hit percentile, averaged over networks."""
    return statistics.fmean(common.pct(v, p) for v in hits.values()) * 1e3


def counters(stats) -> dict[str, int]:
    return {f"serve.engine.{name}": stats[name] for name in (
        "executions", "cache_hits", "dedup_hits", "batched", "degraded",
        "errors")}


def start_server() -> tuple[common.ServeProcess, float]:
    """A fresh server; start-up ends when the warm-up request returns."""
    server = common.ServeProcess(common.scratch("serve-cache"))
    client = common.Client(server.port)
    try:
        client.json("POST", "/v1/schedule", WARMUP)
    except BaseException:
        server.stop()
        raise
    finally:
        client.close()
    return server, time.perf_counter() - server.started


def run(seed: int, seconds: float, trace: bool) -> dict:
    stream = make_stream(seed, seconds)
    if trace:
        return run_traced(stream, seed)
    setups = []
    for _ in range(SETUP_STARTS - 1):
        server, setup = start_server()
        server.stop()
        setups.append(setup)
    server, setup = start_server()
    setups.append(setup)
    try:
        results, wall = drive(server.port, stream)
        client = common.Client(server.port)
        stats = client.json("GET", "/v1/stats")
        client.close()
        rss = common.tree_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    failed, problems, lat = check(stream, results, stats, seed)
    m = common.metric
    return {
        "correct": not problems and not failed,
        "attempted": len(stream),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": m(common.pct(setups, 50), "s"),
            "peak_rss_mb": m(rss, "MB"),
            "throughput_per_s": m(len(stream) / wall, "1/s"),
            "fast_p50_ms": m(per_network_ms(lat["hit"], 50), "ms"),
            "fast_p90_ms": m(per_network_ms(lat["hit"], 90), "ms"),
            "slow_p50_ms": m(common.pct(lat["miss"], 50) * 1e3, "ms"),
            "slow_p90_ms": m(common.pct(lat["miss"], 90) * 1e3, "ms"),
        },
        "samples": {"fast_per_network": len(lat["hit"][NETS[0]]),
                    "slow": len(lat["miss"]), "setup": len(setups)},
    }


def _in_process_pass(stream, tracer=None):
    from repro.runtime.cache import ResultCache
    from repro.serve.engine import ScheduleEngine, price_wire

    pricer = price_wire
    if tracer is not None:
        pricer = tracer.traced(tracing.PRICER, price_wire, key=engine_key)
    engine = ScheduleEngine(cache=ResultCache(common.scratch("trace-cache")),
                            workers=0, pricer=pricer)
    server = common.InProcessServer(engine)
    try:
        client = common.Client(server.port)
        client.json("POST", "/v1/schedule", WARMUP)
        if tracer is not None:
            tracer.spans.clear()
        results, wall = drive(server.port, stream, tracer)
        stats = client.json("GET", "/v1/stats")
        client.close()
    finally:
        server.stop()
    return results, wall, stats


def run_traced(stream, seed: int) -> dict:
    """The per-layer split, with the server hosted in this process.

    Untraced, traced, untraced: the overhead compares the traced pass
    with the mean of the two around it, which cancels slow drift.
    """
    plain = [_in_process_pass(stream)]
    tracer = tracing.Tracer()
    tracing.patch_serving(tracer, engine_key)
    try:
        results, wall, stats = _in_process_pass(stream, tracer)
    finally:
        tracer.restore()
    plain.append(_in_process_pass(stream))
    failed, problems, _ = check(stream, results, stats, seed)
    for p_results, _, p_stats in plain:
        p_failed, p_problems, _ = check(stream, p_results, p_stats, seed)
        failed += p_failed
        problems += p_problems
    return tracing.traced_result(
        attempted=3 * len(stream),
        failed=failed, problems=problems,
        layers=tracer.report(wall), counts=counters(stats),
        plain_wall=sum(p[1] for p in plain) / 2, traced_wall=wall,
        config="server in-process, workers=0, one connection",
    )
