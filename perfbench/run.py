"""Seeded end-to-end benchmark of the MBS schedule pricer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring):

``serve-mix``    ``mbs-repro serve`` under one closed-loop keep-alive
                 client sending a seeded mix of cache hits and misses.
``sweep-dense``  cold 256-point ``repro.api.sweep`` buffer sweeps plus
                 single-point ``repro.api.price`` calls, in a child
                 interpreter.
``queue-drain``  a journaled ``mbs-repro serve --state-dir`` coordinator
                 drained by one closed-loop worker connection.

Every workload keeps at most one process busy at a time, so that on a
host with few cores the figures measure the program, not the
scheduler.  Every workload prints every end-to-end metric, each for
its own operations (serve-mix | sweep-dense | queue-drain):

``setup_s``           median of five fresh start-ups: spawn to the
                      warm-up response | interpreter start to
                      ``repro.api`` imported | spawn to ``/healthz``
``peak_rss_mb``       ``VmHWM`` of the server and its pool worker | the
                      sweep interpreter | the coordinator (median)
``throughput_per_s``  requests | swept points per second of sweeping |
                      points drained, from submission to last upload
``fast_p50_ms``, ``fast_p90_ms``
                      cache hit (per network, averaged over networks) |
                      swept point (chunk time / points) |
                      ``POST /v1/lease``
``slow_p50_ms``, ``slow_p90_ms``
                      miss | single-point ``price`` |
                      ``POST /v1/lease/<id>/complete``

The amount of work follows ``--seconds`` deterministically (never the
clock), so every count a run records repeats exactly for a given
``--seed`` and ``--seconds``; each run checks its counts against the
values its inputs predict.  Correctness checks run outside the timed
window.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same inputs untraced, traced and untraced again, with the server
hosted in this process (``workers=0``, so the wrappers see pricing;
sweep-dense keeps its child interpreter), and prints the per-layer
split (:mod:`tracing`).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("serve-mix", "sweep-dense", "queue-drain")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_program()

    if args.workload == "serve-mix":
        import serve_mix as workload
    elif args.workload == "sweep-dense":
        import sweep_dense as workload
    else:
        import queue_drain as workload
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.clean_scratch()
    for problem in result.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for key in ("samples", "config"):
        if key in result:
            print(f"perfbench: {key}: {json.dumps(result.pop(key))}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
