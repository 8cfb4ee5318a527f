"""sweep-dense: the ``energy_sweep`` buffer design-space sweep, dense.

Each sweep prices ``inception_v4`` under ``mbs-auto`` at 256
log-spaced buffers from 16 KiB to 4 MiB, cold: a freshly built network
and a fresh ``SweepCaches``.  It runs as ``CHUNK``-point
``repro.api.sweep`` calls sharing that network and those caches, which
computes exactly what one 256-point call does and times each chunk.
Between chunks, single-point ``repro.api.price`` calls price grid
points one at a time, the way ``mbs-repro schedule`` does.  The whole
job runs in a child interpreter (:mod:`sweep_child`); the generator
only starts it and hands it the generated inputs.

Every sweep optimises the ``energy`` objective (the ``energy_sweep``
artifact).  The single prices cover all four objectives, at
``PRICES_PER_OBJECTIVE`` evenly spaced grid positions each; the seed
moves each point up to ``JITTER - 1`` grid steps (2.2% of buffer per
step) off its position and shuffles the order of the prices.  Network,
objective and positions are fixed because a point's cost depends on
all three (a chunk of a traffic sweep costs 27-51 ms per point across
the range, a single energy price 52-178 ms), so seeding them would make
runs of different seeds incomparable.

Fast operation: one swept point (a chunk's time per point).  Slow
operation: one single-point ``price``.  Throughput: swept points per
second of sweep time.

``python3 perfbench/sweep_dense.py --record`` rewrites
``expected_sweeps.json``: for every objective the digest of its
sweep's canonical wire bytes, its memo hit/miss counts and each
point's own digest.  Every run checks its sweeps and its single-point
prices against it exactly, so a single price equals the swept point
(the swept == per-point invariant) for every objective.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import common
import tracing

NETWORK = "inception_v4"
OBJECTIVES = ("traffic", "latency", "latency+traffic", "energy")
SWEPT = "energy"
BUFFERS = sorted({round(16 * 1024 * 256 ** (i / 255)) for i in range(256)})
CHUNK = 8
#: One cold 256-point sweep, with its share of the single prices.
SECONDS_PER_SWEEP = 10.0
PRICES_PER_OBJECTIVE = 16
JITTER = 4
SETUP_STARTS = 5
EXPECTED = common.HERE / "expected_sweeps.json"


def make_job(seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    sweeps = [{"network": NETWORK, "objective": SWEPT, "buffers": BUFFERS}
              for _ in range(max(1, round(seconds / SECONDS_PER_SWEEP)))]
    stride = len(BUFFERS) // PRICES_PER_OBJECTIVE
    points = [(objective, k * stride + rng.randrange(JITTER))
              for objective in OBJECTIVES
              for k in range(PRICES_PER_OBJECTIVE)]
    rng.shuffle(points)
    chunks = [["chunk", i, lo, lo + CHUNK] for i in range(len(sweeps))
              for lo in range(0, len(BUFFERS), CHUNK)]
    steps = []
    for n, chunk in enumerate(chunks):
        steps.append(chunk)
        # spread the prices evenly between the chunks
        first = n * len(points) // len(chunks)
        last = (n + 1) * len(points) // len(chunks)
        steps += [["price", j] for j in range(first, last)]
    prices = [{"network": NETWORK, "objective": objective,
               "buffer_bytes": BUFFERS[i]} for objective, i in points]
    return {"sweeps": sweeps, "prices": prices, "steps": steps,
            "points": points}


class Child:
    def __init__(self):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "sweep_child.py")],
            cwd=str(common.ROOT), env=common.sut_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("sweep child failed to start")
        except BaseException:
            common.stop_group(self.proc)
            raise
        self.setup_s = time.perf_counter() - self.started

    def run(self, job: dict | None, trace: bool = False) -> dict | None:
        """Hand the child its job (``None``: just exit); read its report."""
        line = ""
        if job is not None:
            line = json.dumps({"sweeps": job["sweeps"],
                               "prices": job["prices"],
                               "steps": job["steps"], "trace": trace})
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
            report = self.proc.stdout.readline()
            self.proc.wait(timeout=60)
        finally:
            common.stop_group(self.proc)
        if job is None:
            return None
        if self.proc.returncode != 0 or not report:
            raise RuntimeError(f"sweep child exited {self.proc.returncode}")
        return json.loads(report)


def check(job: dict, report: dict) -> tuple[int, list[str]]:
    expected = json.loads(EXPECTED.read_text())
    failed, problems = 0, []
    for spec, out in zip(job["sweeps"], report["sweeps"]):
        want = expected[spec["objective"]]
        if out != {k: want[k] for k in out}:
            failed += 1
            problems.append(f"sweep {spec['objective']}: {out} differs "
                            f"from the recorded sweep")
    for (objective, i), out in zip(job["points"], report["prices"]):
        if out["digest"] != expected[objective]["points"][i]:
            failed += 1
            problems.append(f"price {objective} @{BUFFERS[i]} B differs "
                            f"from the recorded sweep point")
    return failed, problems


def counters(report: dict) -> dict[str, int]:
    return {f"core.policies.memo_{kind}": sum(s[f"memo_{kind}"]
                                              for s in report["sweeps"])
            for kind in ("hits", "misses")}


def run(seed: int, seconds: float, trace: bool) -> dict:
    job = make_job(seed, seconds)
    attempted = len(job["steps"])
    if trace:
        # untraced, traced, untraced: see serve_mix.run_traced
        reports = [Child().run(job, trace=t) for t in (False, True, False)]
        failed, problems = 0, []
        for report in reports:
            f, p = check(job, report)
            failed += f
            problems += p
        traced = reports[1]
        return tracing.traced_result(
            attempted=3 * attempted, failed=failed, problems=problems,
            layers=traced["layers"], counts=counters(traced),
            plain_wall=(reports[0]["wall_s"] + reports[2]["wall_s"]) / 2,
            traced_wall=traced["wall_s"],
            config="job in a child interpreter, as in the untraced run",
        )
    children = [Child() for _ in range(SETUP_STARTS)]
    for child in children[:-1]:
        child.run(None)
    report = children[-1].run(job)
    failed, problems = check(job, report)
    per_point = [c["seconds"] / c["points"] for c in report["chunks"]]
    single = [p["seconds"] for p in report["prices"]]
    points = sum(c["points"] for c in report["chunks"])
    swept_s = sum(c["seconds"] for c in report["chunks"])
    m = common.metric
    return {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": m(common.pct([c.setup_s for c in children], 50), "s"),
            "peak_rss_mb": m(report["rss_mb"], "MB"),
            "throughput_per_s": m(points / swept_s, "1/s"),
            "fast_p50_ms": m(common.pct(per_point, 50) * 1e3, "ms"),
            "fast_p90_ms": m(common.pct(per_point, 90) * 1e3, "ms"),
            "slow_p50_ms": m(common.pct(single, 50) * 1e3, "ms"),
            "slow_p90_ms": m(common.pct(single, 90) * 1e3, "ms"),
        },
        "samples": {"fast": len(per_point), "slow": len(single),
                    "setup": len(children)},
    }


def record() -> None:
    """Rewrite the expected digests and memo counts of every objective."""
    sys.path.insert(0, str(common.SRC))
    import sweep_child
    from repro import api
    from repro.core.policies import SweepCaches

    table = {}
    for objective in OBJECTIVES:
        caches = SweepCaches()
        results = api.sweep(NETWORK, "mbs-auto", BUFFERS,
                            objective=objective, caches=caches)
        table[objective] = {
            "digest": sweep_child.digest(results),
            "memo_hits": caches.hits, "memo_misses": caches.misses,
            "points": [sweep_child.point_digest(r) for r in results],
        }
        print(NETWORK, objective, flush=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/sweep_dense.py --record")
    record()
