"""Scheduling-time benchmarks: greedy vs exhaustive vs adaptive.

Inception-v4 is the stress case — the deepest multi-branch network in
the zoo, so its fusable windows give the grouping optimizers the most
work.  ``mbs-auto`` prices every candidate group with the byte-accurate
traffic walkers (memoized per block on the network's pricer); these
timings track what that exactness costs over the closed-form proxy.
Every per-block price lives as long as its network, so each case clears
the network's pricing caches (or builds a fresh network) before every
round, outside the timer: the gate times a cold DP, not a warm memo.
"""
import time

import pytest

from repro import api
from repro.core.cost import EnergyCostModel, TrafficCostModel
from repro.core.policies import (
    OBJECTIVES,
    SweepCaches,
    clear_pricing_caches,
    make_schedule,
    sweep_schedules,
)
from repro.core.traffic import compute_traffic
from repro.types import KIB, MIB
from repro.wavecore.simulator import simulate_step
from repro.zoo import inception_v4


@pytest.fixture(scope="module")
def inc4():
    return inception_v4()


def _log_spaced_buffers(n: int, lo: int = 16 * KIB, hi: int = 4 * MIB):
    """``n`` log-spaced buffer sizes across the acceptance range."""
    ratio = (hi / lo) ** (1 / (n - 1))
    return [int(lo * ratio**i) for i in range(n)]


def _cold(benchmark, net, fn, *args, **kwargs):
    """Time ``fn(*args, **kwargs)`` with ``net``'s pricing caches
    cleared before each of 10 rounds (outside the timer)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=10,
                              setup=lambda: clear_pricing_caches(net))


def test_bench_greedy_proxy_schedule(benchmark, inc4):
    sched = benchmark(make_schedule, inc4, "mbs2")
    assert sched.num_blocks == len(inc4.blocks)


def test_bench_exhaustive_proxy_schedule(benchmark, inc4):
    sched = benchmark(make_schedule, inc4, "mbs2-opt")
    assert sched.num_blocks == len(inc4.blocks)


def test_bench_adaptive_auto_schedule(benchmark, inc4):
    sched = _cold(benchmark, inc4, make_schedule, inc4, "mbs-auto")
    assert sched.num_blocks == len(inc4.blocks)


def test_bench_adaptive_auto_latency_schedule(benchmark, inc4):
    """The latency objective walks traffic AND prices GEMM timings per
    candidate group — this tracks what simulated seconds cost over
    simulated bytes."""
    sched = _cold(benchmark, inc4, make_schedule, inc4, "mbs-auto",
                  objective="latency")
    assert sched.num_blocks == len(inc4.blocks)
    assert sched.objective == "latency"


def test_bench_adaptive_auto_energy_schedule(benchmark, inc4):
    """The energy objective composes the traffic walk, the per-layer
    timing, AND the per-access energy constants per candidate group —
    this tracks what simulated joules cost over simulated seconds."""
    sched = _cold(benchmark, inc4, make_schedule, inc4, "mbs-auto",
                  objective="energy")
    assert sched.num_blocks == len(inc4.blocks)
    assert sched.objective == "energy"


def test_bench_adaptive_auto_lex_schedule(benchmark, inc4):
    """The lexicographic composite prices every candidate through both
    the latency and the traffic model; this tracks the tie-break's cost
    over the pure latency objective."""
    sched = _cold(benchmark, inc4, make_schedule, inc4, "mbs-auto",
                  objective="latency+traffic")
    assert sched.num_blocks == len(inc4.blocks)
    assert sched.objective == "latency+traffic"


def test_bench_sweep_schedules_energy(benchmark, inc4):
    """A full 48-point energy buffer sweep through the batch API —
    the workload the cross-sweep group-price memo exists for."""
    buffers = _log_spaced_buffers(48)
    scheds = _cold(benchmark, inc4, sweep_schedules, inc4, "mbs-auto",
                   buffers, objective="energy")
    assert len(scheds) == len(buffers)
    assert all(s.objective == "energy" for s in scheds)


def test_sweep_speedup_over_naive_loop(inc4):
    """Acceptance: a dense energy buffer sweep through
    :func:`sweep_schedules` is >= 10x faster than the naive per-point
    loop it replaces, with bit-identical schedules.

    The naive loop is the honest pre-batch-API cost: one cold
    :func:`make_schedule` per point (cross-call pricing caches cleared
    each time, exactly what a fresh per-point process would pay).  One
    timed pass each — the ratio's margin (~2x at 256 points) dwarfs
    timer noise, and a multi-round naive loop would take minutes."""
    buffers = _log_spaced_buffers(256)

    clear_pricing_caches(inc4)
    t0 = time.perf_counter()
    naive = []
    for buf in buffers:
        clear_pricing_caches(inc4)
        naive.append(make_schedule(inc4, "mbs-auto", buffer_bytes=buf,
                                   objective="energy"))
    naive_s = time.perf_counter() - t0

    clear_pricing_caches(inc4)
    caches = SweepCaches()
    t0 = time.perf_counter()
    swept = sweep_schedules(inc4, "mbs-auto", buffers,
                            objective="energy", caches=caches)
    swept_s = time.perf_counter() - t0

    assert swept == naive  # the speedup must be invisible in the output
    assert caches.hits > 0
    speedup = naive_s / swept_s
    assert speedup >= 10.0, (
        f"sweep API {speedup:.1f}x over naive loop "
        f"({naive_s:.2f}s vs {swept_s:.2f}s for {len(buffers)} points); "
        "acceptance floor is 10x"
    )


def test_bench_energy_cost_model_full_schedule(benchmark, inc4):
    """Pricing a complete schedule's joules through the cost model
    (cold memo), checked against the simulator it must reproduce."""
    sched = make_schedule(inc4, "mbs-auto", objective="energy")
    total = simulate_step(inc4, sched).energy.total_j

    def price():
        model = EnergyCostModel.for_schedule(inc4, sched)
        return model.schedule_cost(sched)

    assert _cold(benchmark, inc4, price) == total


def test_bench_traffic_cost_model_full_schedule(benchmark, inc4):
    """Pricing a complete schedule through the cost model (cold memo)."""
    sched = make_schedule(inc4, "mbs-auto")
    total = compute_traffic(inc4, sched).total_bytes

    def price():
        model = TrafficCostModel.for_schedule(inc4, sched)
        return model.schedule_cost(sched)

    assert _cold(benchmark, inc4, price) == total


def test_bench_api_sweep_energy(benchmark):
    """The same 48-point energy sweep through :func:`repro.api.sweep`:
    the DP *and* the evaluator that prices every finished schedule.

    Each round gets a freshly built network, so the per-block records
    the evaluator sums (and the DP's compute profiles) start cold, as
    in a fresh process; the build runs outside the timer."""
    buffers = _log_spaced_buffers(48)

    def fresh():
        return (inception_v4(), "mbs-auto", buffers), {"objective": "energy"}

    results = benchmark.pedantic(api.sweep, setup=fresh, rounds=5)
    assert len(results) == len(buffers)
    assert all(r.objective == "energy" for r in results)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_bench_price_cold(benchmark, objective):
    """One :func:`repro.api.price` of a freshly built inception-v4 under
    each objective: the DP's per-block prices and the evaluator's
    records all start cold, as in a serve worker, which builds one
    network per request.  The build runs outside the timer."""

    def fresh():
        return (inception_v4(), "mbs-auto"), {"objective": objective}

    res = benchmark.pedantic(api.price, setup=fresh, rounds=5)
    assert res.objective == objective
