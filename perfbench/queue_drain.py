"""queue-drain: a journaled coordinator drained by one worker connection.

Each round starts a fresh ``mbs-repro serve --state-dir D --cache-dir C``
(new directories), submits one ``fig3`` job over ``POST /v1/jobs`` on
the artifact's integer axes ``mini_batch`` x ``buffer_mib`` (network
fixed to ``resnet50``), and one closed-loop worker connection leases
batches of ``BATCH`` points and uploads one manifest per point until
nothing is pending.  With one request in flight, at most one process
is busy at a time, so the figures do not depend on how a two-vCPU host
schedules competing threads.  Nothing is priced: the manifests are the
ones the ordinary sweep runtime produces for those points, prepared
before anything is timed (and kept, content-addressed, under
``.perfbench-tmp/prepared`` for later runs).

The seed draws the job grid: which ``mini_batch`` and ``buffer_mib``
values, from 1..64 each.  The grid size is fixed, so every lease scans
as many points and every 256 journal events write an equally large
snapshot, whatever the seed.

Fast operation: ``POST /v1/lease``.  Slow operation:
``POST /v1/lease/<id>/complete`` (one fsync'd journal event and one
cache write each).  Throughput: points drained per second, from the
submission to the last upload.
"""
from __future__ import annotations

import json
import math
import os
import random
import time

import common
import tracing

ARTIFACT = "fig3"
AXIS_VALUES = range(1, 65)
MINI_BATCHES = 32
BUFFERS_MIB = 48
BATCH = 4
#: Drain rounds per second of ``--seconds``.
ROUNDS_PER_SECOND = 0.08
SETUP_STARTS = 5


def make_axes(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "net_name": ["resnet50"],
        "mini_batch": sorted(rng.sample(AXIS_VALUES, MINI_BATCHES)),
        "buffer_mib": sorted(rng.sample(AXIS_VALUES, BUFFERS_MIB)),
    }


def prepare(axes: dict) -> list[dict]:
    """Every point's manifest, in grid order, as a worker would upload it."""
    import repro.experiments  # noqa: F401  (registers the specs)
    from repro.runtime.cache import ResultCache
    from repro.runtime.pool import Task, run_tasks
    from repro.runtime.spec import expand_grid, get_spec

    spec = get_spec(ARTIFACT)
    tasks = [Task(spec, point) for point in expand_grid(axes)]
    results = run_tasks(tasks, cache=ResultCache(common.TMP / "prepared"))
    bad = [r.error for r in results if not r.ok]
    if bad:
        raise RuntimeError(f"preparing manifests failed: {bad[0]}")
    return [r.manifest for r in results]


def drain(port: int, axes: dict, bodies: list[bytes], tracer=None) -> dict:
    """Submit the job and drain it; returns the timings and the job id.

    Dirty pages left by earlier rounds (and by preparing the manifests)
    are flushed first: the journal's fsyncs would otherwise wait on
    their writeback, by however much happens to be pending.
    """
    os.sync()
    lat = {"lease": [], "complete": []}
    errors: list[str] = []
    submit = json.dumps({"schema": 1, "artifact": ARTIFACT,
                         "axes": axes}).encode()
    client = common.Client(port)

    def call(kind, path, body, key, rid):
        token = None
        if tracer is not None:
            token = tracing.set_rid(rid)
            tracer.expect(key, rid)
        t0 = time.perf_counter()
        status, data = client.call("POST", path, body)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.spans.append(("serve.server.self", t0, t1, rid))
            tracing.reset_rid(token)
        if kind is not None:
            lat[kind].append(t1 - t0)
        if status != 200:
            errors.append(f"{path}: HTTP {status}: {data[:120]!r}")
        return status, data

    try:
        start = time.perf_counter()
        status, data = call(None, "/v1/jobs", submit, "submit", "submit")
        if status != 200:
            raise RuntimeError(errors[0])
        job_id = json.loads(data)["job_id"]
        lease = json.dumps({"schema": 1, "worker": "w0",
                            "max_points": BATCH, "job": job_id}).encode()
        n = 0
        while True:
            n += 1
            status, data = call("lease", "/v1/lease", lease, "lease:w0",
                                ("w0", n))
            grant = json.loads(data).get("lease") if status == 200 else None
            if grant is None:
                break
            for point in grant["points"]:
                i = point["index"]
                call("complete", f"/v1/lease/{grant['lease_id']}/complete",
                     bodies[i], f"complete:{i}", ("complete", i))
        seconds = time.perf_counter() - start
    finally:
        client.close()
    return {"job_id": job_id, "seconds": seconds, "lat": lat,
            "errors": errors}


def check_round(port, job_id, canon: list[str]) -> tuple[list[str], dict]:
    """The job is done, nothing was lost, the dump is what was uploaded.

    Returns the problems found and the ``jobs`` block of ``/v1/stats``.
    """
    client = common.Client(port)
    try:
        job = client.json("GET", f"/v1/jobs/{job_id}")
        stats = client.json("GET", "/v1/stats")["jobs"]
        dump = client.json("GET", f"/v1/jobs/{job_id}/manifests")
    finally:
        client.close()
    n = len(canon)
    problems = []
    if (job["state"], job["done"], job["poisoned"]) != ("done", n, 0):
        problems.append(f"job ended {job['state']} with {job['done']}/{n} "
                        f"done, {job['poisoned']} poisoned")
    want = {"leases_granted": math.ceil(n / BATCH), "points_completed": n,
            "leases_expired": 0, "points_failed": 0, "points_poisoned": 0,
            "manifests_rejected": 0}
    for name, value in want.items():
        if stats[name] != value:
            problems.append(f"/v1/stats jobs.{name} = {stats[name]}, "
                            f"expected {value}")
    if [json.dumps(m, sort_keys=True) for m in dump["manifests"]] != canon:
        problems.append("GET manifests differs from the uploaded manifests")
    return problems, stats


def journal_events(state_dir) -> int:
    """Events the journal recorded: the highest sequence number on disk."""
    last = 0
    snapshot = state_dir / "snapshot.json"
    if snapshot.exists():
        last = json.loads(snapshot.read_text())["n"]
    journal = state_dir / "journal.jsonl"
    if journal.exists():
        for line in journal.read_text().splitlines():
            if line.strip():
                last = max(last, json.loads(line)["n"])
    return last


def check_journal(state_dir, n: int) -> list[str]:
    """One submit, one lease per batch and one complete per point."""
    want = 1 + math.ceil(n / BATCH) + n
    got = journal_events(state_dir)
    if got != want:
        return [f"journal recorded {got} events, expected {want}"]
    return []


def run(seed: int, seconds: float, trace: bool) -> dict:
    axes = make_axes(seed)
    manifests = prepare(axes)
    bodies = [json.dumps({"schema": 1, "index": i, "manifest": m}).encode()
              for i, m in enumerate(manifests)]
    canon = [json.dumps(m, sort_keys=True) for m in manifests]
    del manifests
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    if trace:
        return run_traced(axes, canon, bodies)
    setups, rss, drains, problems = [], [], [], []
    for r in range(max(rounds, SETUP_STARTS)):
        state = common.scratch("state")
        server = common.ServeProcess(common.scratch("cache"), state)
        setups.append(time.perf_counter() - server.started)
        if r >= rounds:  # a start-up sample only
            server.stop()
            continue
        try:
            out = drain(server.port, axes, bodies)
            problems += out["errors"][:5]
            problems += check_round(server.port, out["job_id"], canon)[0]
            rss.append(common.tree_hwm_mb(server.proc.pid))
            drains.append(out)
        finally:
            server.stop()
        problems += check_journal(state, len(bodies))
    lease = [s for d in drains for s in d["lat"]["lease"]]
    complete = [s for d in drains for s in d["lat"]["complete"]]
    failed = sum(len(d["errors"]) for d in drains)
    m = common.metric
    return {
        "correct": not problems and not failed,
        "attempted": len(lease) + len(complete) + rounds,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": m(common.pct(setups, 50), "s"),
            "peak_rss_mb": m(common.pct(rss, 50), "MB"),
            "throughput_per_s": m(
                rounds * len(bodies) / sum(d["seconds"] for d in drains),
                "1/s"),
            "fast_p50_ms": m(common.pct(lease, 50) * 1e3, "ms"),
            "fast_p90_ms": m(common.pct(lease, 90) * 1e3, "ms"),
            "slow_p50_ms": m(common.pct(complete, 50) * 1e3, "ms"),
            "slow_p90_ms": m(common.pct(complete, 90) * 1e3, "ms"),
        },
        "samples": {"fast": len(lease), "slow": len(complete),
                    "setup": len(setups), "points": len(bodies),
                    "rounds": rounds},
    }


def _in_process_round(axes, canon, bodies, tracer=None):
    """One round on an in-process coordinator, built as serve builds it."""
    import repro.experiments  # noqa: F401  (registers the specs)
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import Journal
    from repro.runtime.queue import JobQueue
    from repro.runtime.spec import get_spec
    from repro.serve.engine import ScheduleEngine
    from repro.serve.jobs import JobHost

    state = common.scratch("state")
    cache = ResultCache(common.scratch("cache"))
    queue = JobQueue.restore(Journal(state), specs=get_spec)
    server = common.InProcessServer(ScheduleEngine(cache=cache, workers=0),
                                    jobs=JobHost(queue, cache=cache))
    if tracer is not None:
        tracer.spans.clear()  # restoring the queue is start-up, not drain
    try:
        out = drain(server.port, axes, bodies, tracer)
        problems, stats = check_round(server.port, out["job_id"], canon)
        problems = out["errors"][:5] + problems
    finally:
        server.stop()
        queue.journal.close()
    problems += check_journal(state, len(bodies))
    counts = {f"runtime.queue.{name}": stats[name] for name in (
        "leases_granted", "points_completed", "leases_expired",
        "manifests_rejected")}
    counts["runtime.journal.events"] = journal_events(state)
    return out, problems, counts


def run_traced(axes, canon, bodies) -> dict:
    """The per-layer split, with the coordinator hosted in this process.

    Untraced, traced, untraced rounds: see ``serve_mix.run_traced``.
    """
    plain = [_in_process_round(axes, canon, bodies)]
    tracer = tracing.Tracer()
    tracing.patch_queue(tracer)
    try:
        traced, problems, counts = _in_process_round(
            axes, canon, bodies, tracer)
    finally:
        tracer.restore()
    plain.append(_in_process_round(axes, canon, bodies))
    for _, p_problems, _ in plain:
        problems += p_problems
    return tracing.traced_result(
        attempted=3 * (len(traced["lat"]["lease"])
                       + len(traced["lat"]["complete"]) + 1),
        failed=sum(len(out["errors"]) for out, _, _ in plain)
        + len(traced["errors"]),
        problems=problems,
        layers=tracer.report(traced["seconds"]), counts=counts,
        plain_wall=sum(out["seconds"] for out, _, _ in plain) / 2,
        traced_wall=traced["seconds"],
        config="coordinator in-process, workers=0, one round, one connection",
    )
