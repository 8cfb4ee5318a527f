"""Benchmark configuration.

Micro-benchmarks for the hot kernels (traffic model, cycle model,
grouping optimizer, conv kernels), the scheduler, the server, the cache
and the work queue.  Cold per-artifact timings are ``mbs-repro
bench``'s job.

CI's ``bench-gate`` job gates every suite here against
``benchmarks/baselines.json`` and uploads the raw ``--benchmark-json``
numbers, pass or fail (see ``.github/workflows/ci.yml``).
"""
