"""Benchmark configuration.

Micro-benchmarks for the hot kernels (traffic model, cycle model,
grouping optimizer, conv kernels), the scheduler, the server, the cache
and the work queue, plus the orchestration runtime (bench_runtime.py:
cache hits, key hashing, pool spin-up).  Cold per-artifact timings are
``mbs-repro bench``'s job.

CI's ``bench-gate`` job gates the scheduler, micro-kernel, serve, cache
and queue suites against ``benchmarks/baselines.json``; ``bench-smoke``
uploads raw ``--benchmark-json`` numbers (see
``.github/workflows/ci.yml``).
"""
import pytest


@pytest.fixture()
def once(benchmark):
    """Run ``fn`` exactly once under the benchmark timer (one round, for
    calls too slow or too stateful to repeat, like a pool spin-up)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
