"""The sweep-dense system under test: one interpreter running the job.

Started by :mod:`sweep_dense` with the checkout's ``src`` on
``PYTHONPATH``.  Prints ``ready`` once :mod:`repro.api` is imported,
then reads one JSON job line from stdin (an empty line means exit):

    {"sweeps": [{"network", "objective", "buffers"}, ...],
     "prices": [{"network", "objective", "buffer_bytes"}, ...],
     "steps": [["chunk", sweep, start, stop] | ["price", index], ...],
     "trace": bool}

A sweep's chunks run in order against one ``Network`` and one
``SweepCaches``, which is the same computation as a single
``repro.api.sweep`` call over all its buffers (``sweep_schedules``
prices point by point against the shared caches); the chunks only give
the timing more samples.  Prints one JSON line: per chunk its sweep,
seconds and points; per sweep the digest of its results' canonical
wire bytes and its memo counters; per single-point price its seconds
and digest; the process's peak RSS; with ``trace`` the per-layer split
(:mod:`tracing`).  Only the ``repro.api`` calls are timed.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time


def canonical(res) -> bytes:
    from repro.runtime.serialize import canonical_dumps

    return canonical_dumps(res.to_wire()).encode()


def digest(results) -> str:
    """One sweep's digest: its results' canonical wire lines, in order."""
    return hashlib.sha256(b"".join(canonical(r) + b"\n"
                                   for r in results)).hexdigest()


def point_digest(res) -> str:
    return hashlib.sha256(canonical(res)).hexdigest()[:16]


def main() -> int:
    from repro import api
    from repro.core.policies import SweepCaches
    from repro.zoo import build

    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.patch_pricing(tracer)

    sweeps = [{"net": build(s["network"]), "caches": SweepCaches(),
               "results": []} for s in job["sweeps"]]
    chunks, prices, priced = [], [], []
    start = time.perf_counter()
    for n, step in enumerate(job["steps"]):
        token = None if tracer is None else tracing.set_rid(n)
        if step[0] == "chunk":
            i, lo, hi = step[1:]
            spec, state = job["sweeps"][i], sweeps[i]
            t0 = time.perf_counter()
            results = api.sweep(state["net"], "mbs-auto",
                                spec["buffers"][lo:hi],
                                objective=spec["objective"],
                                caches=state["caches"])
            seconds = time.perf_counter() - t0
            state["results"] += results
            chunks.append({"sweep": i, "seconds": seconds,
                           "points": len(results)})
        else:
            spec = job["prices"][step[1]]
            t0 = time.perf_counter()
            res = api.price(spec["network"], "mbs-auto",
                            buffer_bytes=spec["buffer_bytes"],
                            objective=spec["objective"])
            prices.append({"seconds": time.perf_counter() - t0})
            priced.append(res)
        if token is not None:
            tracing.reset_rid(token)
    wall = time.perf_counter() - start

    if tracer is not None:
        tracer.restore()
    for out, res in zip(prices, priced):
        out["digest"] = point_digest(res)
    with open("/proc/self/status") as fh:
        hwm = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    report = {
        "chunks": chunks, "prices": prices, "wall_s": wall,
        "rss_mb": hwm / 1024.0,
        "sweeps": [{"digest": digest(s["results"]),
                    "memo_hits": s["caches"].hits,
                    "memo_misses": s["caches"].misses} for s in sweeps],
    }
    if tracer is not None:
        report["layers"] = tracer.report(wall)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
