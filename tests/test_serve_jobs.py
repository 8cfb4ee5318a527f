"""The distributed sweep queue: wire types, HTTP surface, e2e matrix.

Three layers of coverage:

* the :mod:`repro.api` job wire types (codec round trips, schema
  envelope, path-qualified rejection messages);
* the ``/v1/jobs`` + ``/v1/lease`` HTTP surface over a live socket
  (400/404/409 mapping, stats, coordinator-cache interop);
* the acceptance matrix — a 2-worker queue-driven sweep with one
  worker SIGKILLed mid-lease, whose merged manifest dump must be
  **byte-identical** to a single-process ``mbs-repro sweep`` run
  (``merge --check``).
"""

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.experiments.runner import main
from repro.runtime.cache import ResultCache
from repro.runtime.journal import Journal
from repro.runtime.pool import Task, run_tasks
from repro.runtime.queue import JobQueue
from repro.runtime.spec import get_spec
from repro.serve import (
    CoordinatorClient,
    CoordinatorError,
    JobHost,
    ScheduleEngine,
    Server,
    work_loop,
)
from repro.serve.worker import _Heartbeat, _is_transient, _with_retries

GRID_SETS = ["--set", "net_name='resnet50'", "--set", "mini_batch=16,32",
             "--set", "buffer_mib=5,10"]
GRID_AXES = {"net_name": ["resnet50"], "mini_batch": [16, 32],
             "buffer_mib": [5, 10]}


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# wire types
# ---------------------------------------------------------------------------

class TestSweepJobRequestWire:
    def test_round_trip(self):
        req = api.SweepJobRequest(artifact="fig3", axes=GRID_AXES,
                                  quick=True, max_attempts=2,
                                  lease_timeout_s=5.0)
        wire = req.to_wire()
        assert wire["schema"] == api.SCHEMA_VERSION
        back = api.SweepJobRequest.from_wire(wire)
        assert back.artifact == "fig3"
        assert back.axes == {k: list(v) for k, v in GRID_AXES.items()}
        assert back.quick and back.max_attempts == 2
        assert back.lease_timeout_s == 5.0

    def test_none_fields_omitted_from_wire(self):
        wire = api.SweepJobRequest(artifact="fig3").to_wire()
        assert wire == {"schema": 1, "artifact": "fig3", "quick": False}

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            api.SweepJobRequest.from_wire({"schema": 9, "artifact": "a"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown job request key"):
            api.SweepJobRequest.from_wire(
                {"schema": 1, "artifact": "a", "axis": {}})

    @pytest.mark.parametrize("wire,needle", [
        ({"artifact": ""}, "artifact:"),
        ({"artifact": "a", "axes": {"mini_batch": 5}}, "axes.mini_batch:"),
        ({"artifact": "a", "axes": {"mini_batch": []}}, "axes.mini_batch:"),
        ({"artifact": "a", "axes": {"x": "abc"}}, "axes.x:"),
        ({"artifact": "a", "max_attempts": 0}, "max_attempts:"),
        ({"artifact": "a", "lease_timeout_s": -1}, "lease_timeout_s:"),
        ({"artifact": "a", "quick": 1}, "quick:"),
    ])
    def test_path_qualified_rejections(self, wire, needle):
        with pytest.raises(ValueError, match=needle):
            api.SweepJobRequest.from_wire({"schema": 1, **wire})

    def test_describe(self):
        req = api.SweepJobRequest(artifact="fig3", axes=GRID_AXES)
        assert "fig3" in req.describe()
        assert "mini_batch[2]" in req.describe()
        assert "default sweep axes" in api.SweepJobRequest(
            artifact="fig3").describe()


class TestJobGridBound:
    def test_a_grid_past_the_bound_is_refused_before_any_journaling(
            self, tmp_path):
        host = JobHost(JobQueue(journal=Journal(tmp_path, fsync=False)))
        axes = {"mini_batch": list(range(1, 129)),
                "buffer_mib": list(range(1, 129)),
                "net_name": ["resnet50", "resnet101"]}  # 2**15 points
        with pytest.raises(ValueError, match=r"^axes: the grid has 32768 "
                                             r"points; a job may hold at "
                                             r"most 16384$"):
            host.submit_wire({"artifact": "fig3", "axes": axes})
        assert host.queue.jobs == {}
        assert host.queue.journal.events_recorded == 0
        status = host.submit_wire({"artifact": "fig3", "axes": GRID_AXES})
        assert status["job_id"] == "job-1"  # no job id was used up
        host.queue.journal.close()


class TestLeaseGrantWire:
    def test_round_trip(self):
        grant = api.LeaseGrant(
            job_id="job-1", lease_id="lease-1", worker="w1",
            artifact="fig3", quick=True, lease_timeout_s=30.0,
            points=({"index": 0, "overrides": {"mini_batch": 16}},),
        )
        back = api.LeaseGrant.from_wire(grant.to_wire())
        assert back == grant
        assert "lease-1" in grant.describe()
        assert "1 point(s)" in grant.describe()

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            api.LeaseGrant.from_wire({"job_id": "job-1"})

    def test_bad_point_rejected(self):
        wire = api.LeaseGrant(
            job_id="j", lease_id="l", worker="w", artifact="a",
            quick=False, lease_timeout_s=1.0,
            points=({"index": 0, "overrides": {}},),
        ).to_wire()
        wire["points"] = [{"index": -1, "overrides": {}}]
        with pytest.raises(ValueError, match=r"points\[0\].index"):
            api.LeaseGrant.from_wire(wire)


class TestSweepJobStatusWire:
    def test_round_trip_and_describe(self):
        status = api.SweepJobStatus(
            job_id="job-1", artifact="fig3", quick=False, state="running",
            total=8, pending=4, leased=1, done=3, poisoned=0,
            max_attempts=3, lease_timeout_s=60.0,
        )
        assert api.SweepJobStatus.from_wire(status.to_wire()) == status
        text = status.describe()
        assert "job-1" in text and "[running]" in text and "3/8" in text

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key"):
            api.SweepJobStatus.from_wire({"schema": 1, "job_id": "j"})


# ---------------------------------------------------------------------------
# HTTP surface (live socket, in-process host)
# ---------------------------------------------------------------------------

def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _post(port, path, body):
    text = body if isinstance(body, str) else json.dumps(body)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=text,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


async def _with_jobs_server(fn, *, cache=None, clock=None,
                            lease_timeout_s=30.0, max_attempts=3):
    """Run ``fn(port, host)`` off-loop against a live job server.

    Fails if the event loop reported any exception (a handler that
    crashed and dropped its connection) while the server ran.
    """
    kwargs = {"clock": clock} if clock is not None else {}
    host = JobHost(
        JobQueue(lease_timeout_s=lease_timeout_s,
                 max_attempts=max_attempts, **kwargs),
        cache=cache,
    )
    loop = asyncio.get_running_loop()
    reported = []
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    server = Server(ScheduleEngine(workers=0), jobs=host)
    await server.start()
    try:
        result = await loop.run_in_executor(
            None, fn, server.port, host
        )
    finally:
        await server.aclose()
    assert not reported, f"event loop reported: {reported}"
    return result


def _submit_wire(**over):
    wire = {"schema": 1, "artifact": "fig3", "axes": GRID_AXES,
            "quick": True}
    wire.update(over)
    return wire


class TestJobsHttp:
    def test_submit_and_poll(self):
        def fn(port, host):
            st, job = _post(port, "/v1/jobs", _submit_wire())
            assert st == 200
            listing = _get(port, "/v1/jobs")
            single = _get(port, f"/v1/jobs/{job['job_id']}")
            return job, listing, single

        job, (st_l, listing), (st_s, single) = run(_with_jobs_server(fn))
        assert job["state"] == "running"
        assert job["total"] == 4 and job["pending"] == 4
        assert st_l == 200 and listing["jobs"] == [single]
        assert st_s == 200

    def test_submit_unknown_artifact_400_path_qualified(self):
        def fn(port, host):
            return _post(port, "/v1/jobs",
                         _submit_wire(artifact="nope"))

        status, body = run(_with_jobs_server(fn))
        assert status == 400
        assert body["error"].startswith("artifact:")

    def test_submit_malformed_axes_400_path_qualified(self):
        def fn(port, host):
            return _post(port, "/v1/jobs",
                         _submit_wire(axes={"mini_batch": 5}))

        status, body = run(_with_jobs_server(fn))
        assert status == 400
        assert body["error"].startswith("axes.mini_batch:")

    def test_submit_unknown_axis_400(self):
        def fn(port, host):
            return _post(port, "/v1/jobs",
                         _submit_wire(axes={"warp_speed": [9]}))

        status, body = run(_with_jobs_server(fn))
        assert status == 400
        assert "warp_speed" in body["error"]

    def test_bad_json_400(self):
        def fn(port, host):
            return _post(port, "/v1/jobs", "{nope")

        status, body = run(_with_jobs_server(fn))
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_job_404(self):
        def fn(port, host):
            return _get(port, "/v1/jobs/job-404")

        status, body = run(_with_jobs_server(fn))
        assert status == 404
        assert "job-404" in body["error"]

    def test_unknown_lease_404(self):
        def fn(port, host):
            return _post(port, "/v1/lease/lease-404/heartbeat",
                         {"schema": 1})

        status, body = run(_with_jobs_server(fn))
        assert status == 404

    def test_lease_grant_and_all_done_protocol(self):
        def fn(port, host):
            empty = _post(port, "/v1/lease",
                          {"schema": 1, "worker": "w1"})
            _post(port, "/v1/jobs", _submit_wire())
            grant = _post(port, "/v1/lease",
                          {"schema": 1, "worker": "w1", "max_points": 4})
            drained = _post(port, "/v1/lease",
                            {"schema": 1, "worker": "w2"})
            return empty, grant, drained

        (st_e, empty), (st_g, grant), (st_d, drained) = run(
            _with_jobs_server(fn))
        assert st_e == st_g == st_d == 200
        # no jobs yet: not all_done — a worker must keep polling
        assert empty == {"schema": 1, "lease": None, "all_done": False}
        lease = api.LeaseGrant.from_wire(grant["lease"])
        assert lease.worker == "w1" and len(lease.points) == 4
        # the whole grid is leased out; nothing to grant, not done
        assert drained["lease"] is None and drained["all_done"] is False

    def test_lease_validation_400(self):
        def fn(port, host):
            return (_post(port, "/v1/lease", {"schema": 1}),
                    _post(port, "/v1/lease",
                          {"schema": 1, "worker": "w", "max_points": 0}),
                    _post(port, "/v1/lease",
                          {"schema": 1, "worker": "w", "extra": 1}))

        (s1, b1), (s2, b2), (s3, b3) = run(_with_jobs_server(fn))
        assert s1 == 400 and b1["error"].startswith("worker:")
        assert s2 == 400 and b2["error"].startswith("max_points:")
        assert s3 == 400 and "unknown lease request key" in b3["error"]

    def test_expired_heartbeat_409_and_stats(self):
        clock = _Clock()

        def fn(port, host):
            _post(port, "/v1/jobs", _submit_wire())
            _, grant = _post(port, "/v1/lease",
                             {"schema": 1, "worker": "w1"})
            lease_id = grant["lease"]["lease_id"]
            ok = _post(port, f"/v1/lease/{lease_id}/heartbeat",
                       {"schema": 1})
            clock.t += 31.0
            expired = _post(port, f"/v1/lease/{lease_id}/heartbeat",
                            {"schema": 1})
            stats = _get(port, "/v1/stats")
            return ok, expired, stats

        (st_ok, _), (st_exp, body), (st_st, stats) = run(
            _with_jobs_server(fn, clock=clock))
        assert st_ok == 200
        assert st_exp == 409
        assert "expired" in body["error"]
        assert st_st == 200
        assert stats["jobs"]["leases_expired"] == 1
        assert stats["jobs"]["leases_granted"] == 1

    def test_manifest_key_mismatch_409(self):
        def fn(port, host):
            _post(port, "/v1/jobs", _submit_wire())
            _, grant = _post(port, "/v1/lease",
                             {"schema": 1, "worker": "w1"})
            lease_id = grant["lease"]["lease_id"]
            index = grant["lease"]["points"][0]["index"]
            return _post(
                port, f"/v1/lease/{lease_id}/complete",
                {"schema": 1, "index": index,
                 "manifest": {"spec": "fig3", "key": "f" * 24}},
            )

        status, body = run(_with_jobs_server(fn))
        assert status == 409
        assert "out of sync" in body["error"]

    def test_jobs_disabled_404(self):
        async def go():
            server = Server(ScheduleEngine(workers=0))  # no JobHost
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, _get, server.port, "/v1/jobs")
            finally:
                await server.aclose()

        status, body = run(go())
        assert status == 404
        assert "not enabled" in body["error"]

    def test_coordinator_cache_pre_completes_swept_points(self, tmp_path):
        # a grid already swept into the coordinator's cache needs no
        # worker at all: the job is born done, manifests downloadable
        cache_dir = tmp_path / "coord-cache"
        assert main(["sweep", "fig3", *GRID_SETS, "--quick",
                     "--cache-dir", str(cache_dir)]) == 0

        def fn(port, host):
            st, job = _post(port, "/v1/jobs", _submit_wire())
            assert st == 200
            return job, _get(port, f"/v1/jobs/{job['job_id']}/manifests")

        job, (st_m, dump) = run(
            _with_jobs_server(fn, cache=ResultCache(cache_dir)))
        assert job["state"] == "done"
        assert job["done"] == 4
        assert st_m == 200
        assert len(dump["manifests"]) == 4
        assert all(m["spec"] == "fig3" for m in dump["manifests"])


class _DyingCache(ResultCache):
    """A cache whose store dies: a coordinator SIGKILLed mid-upload."""

    def store(self, manifest):
        raise OSError("coordinator killed while storing the manifest")


class TestManifestStoredBeforeCompletion:
    def test_store_dying_after_validation_leaves_point_open(self, tmp_path):
        # the manifest is written to its one store before the completion
        # is journaled: a crash in between loses the upload, never the
        # point — restore re-queues it instead of reporting it done
        # with no manifest to serve
        from repro.runtime.journal import Journal

        state = tmp_path / "state"
        axes = {"net_name": ["resnet50"], "mini_batch": [16],
                "buffer_mib": [5, 10]}
        host = JobHost(
            JobQueue.restore(Journal(state, fsync=False), specs=get_spec),
            cache=_DyingCache(tmp_path / "coord-cache"),
        )
        job_id = host.submit_wire(_submit_wire(axes=axes))["job_id"]
        grant = host.lease_wire({"schema": 1, "worker": "w1",
                                 "max_points": 2})["lease"]
        results = run_tasks(
            [Task(get_spec("fig3"), p["overrides"], quick=True)
             for p in grant["points"]],
            cache=ResultCache(tmp_path / "worker-cache"),
        )
        uploads = {p["index"]: {"schema": 1, "index": p["index"],
                                "manifest": r.manifest}
                   for p, r in zip(grant["points"], results)}
        with pytest.raises(OSError, match="killed"):
            host.complete_wire(grant["lease_id"], uploads[0])
        host.queue.journal.close()

        # restart on the same state dir, now with a working cache
        host = JobHost(
            JobQueue.restore(Journal(state, fsync=False), specs=get_spec),
            cache=ResultCache(tmp_path / "coord-cache"),
        )
        status = host.job_wire(job_id)
        assert (status["state"], status["done"], status["pending"]) \
            == ("running", 0, 2)
        while (grant := host.lease_wire(
                {"schema": 1, "worker": "w2"})["lease"]) is not None:
            for point in grant["points"]:
                host.complete_wire(grant["lease_id"],
                                   uploads[point["index"]])
        dump = host.manifests_wire(job_id)
        host.queue.journal.close()
        assert dump["job"]["state"] == "done"
        assert [m["key"] for m in dump["manifests"]] \
            == [r.key for r in results]


# ---------------------------------------------------------------------------
# client URL parsing + retry plumbing (no sockets)
# ---------------------------------------------------------------------------

class TestCoordinatorClientUrl:
    @pytest.mark.parametrize("url,host,port", [
        ("http://127.0.0.1:8787", "127.0.0.1", 8787),
        ("127.0.0.1:9090", "127.0.0.1", 9090),  # scheme optional
        ("http://example.com", "example.com", 8787),  # default port
        ("http://example.com/", "example.com", 8787),
        # bracketed IPv6 literal: a naive netloc.partition(":") would
        # yield host "[" and a garbage port
        ("http://[::1]:8787", "::1", 8787),
        ("[::1]:9090", "::1", 9090),
    ])
    def test_accepted_urls(self, url, host, port):
        client = CoordinatorClient(url)
        assert (client.host, client.port) == (host, port)

    def test_path_rejected_loudly(self):
        # a path would silently vanish (requests always go to /v1/...)
        with pytest.raises(ValueError, match="path/query"):
            CoordinatorClient("http://host:8787/v1/jobs")

    def test_query_rejected_loudly(self):
        with pytest.raises(ValueError, match="path/query"):
            CoordinatorClient("http://host:8787?retry=1")

    def test_non_http_scheme_rejected(self):
        with pytest.raises(ValueError, match="http://"):
            CoordinatorClient("https://host:8787")

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError, match="invalid port"):
            CoordinatorClient("http://host:notaport")


class TestRetryPlumbing:
    def test_transient_classification(self):
        assert _is_transient(ConnectionRefusedError())
        assert _is_transient(TimeoutError())
        assert _is_transient(CoordinatorError(503, "busy"))
        assert not _is_transient(CoordinatorError(409, "expired"))
        assert not _is_transient(CoordinatorError(404, "unknown"))

    def test_with_retries_recovers_with_doubling_backoff(self):
        delays = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("blip")
            return "ok"

        assert _with_retries(flaky, what="t", sleep=delays.append) == "ok"
        assert calls["n"] == 3
        assert delays == [0.1, 0.2]

    def test_with_retries_propagates_non_transient_immediately(self):
        calls = {"n": 0}

        def conflict():
            calls["n"] += 1
            raise CoordinatorError(409, "expired")

        with pytest.raises(CoordinatorError):
            _with_retries(conflict, what="t", sleep=lambda _: None)
        assert calls["n"] == 1

    def test_with_retries_gives_up_after_budget(self):
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise ConnectionRefusedError("down")

        with pytest.raises(OSError):
            _with_retries(dead, what="t", tries=3, sleep=lambda _: None)
        assert calls["n"] == 3


class _StubHeartbeatClient:
    """Scripted ``heartbeat`` endpoint: raise each queued exception,
    then succeed (setting ``recovered``) forever."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.recovered = threading.Event()

    def heartbeat(self, lease_id):
        self.calls += 1
        if self.script:
            raise self.script.pop(0)
        self.recovered.set()


class TestHeartbeatResilience:
    def test_survives_transient_blips(self):
        # the old loop returned on the first exception, silently
        # letting a healthy worker's lease expire under it
        client = _StubHeartbeatClient([
            ConnectionResetError("blip"),
            CoordinatorError(503, "restarting"),
        ])
        with _Heartbeat(client, "lease-1", interval_s=0.01):
            assert client.recovered.wait(timeout=30)
        assert client.calls >= 3

    def test_stops_on_protocol_verdict(self):
        client = _StubHeartbeatClient([CoordinatorError(409, "expired")])
        hb = _Heartbeat(client, "lease-1", interval_s=0.01)
        with hb:
            hb._thread.join(timeout=30)
            assert not hb._thread.is_alive()
        assert client.calls == 1

    def test_gives_up_after_consecutive_failures(self):
        client = _StubHeartbeatClient(
            [ConnectionResetError("down")] * 100)
        hb = _Heartbeat(client, "lease-1", interval_s=0.01,
                        max_failures=3)
        with hb:
            hb._thread.join(timeout=30)
            assert not hb._thread.is_alive()
        assert client.calls == 3


# ---------------------------------------------------------------------------
# worker loop + CLI (in-process coordinator, threaded)
# ---------------------------------------------------------------------------

class _LiveCoordinator:
    """Coordinator stack on a private event loop in a daemon thread."""

    def __init__(self, cache_dir=None, *, lease_timeout_s=30.0,
                 max_attempts=3):
        self.loop = asyncio.new_event_loop()
        # a handler that crashes and drops its connection fails close()
        self.reported = []
        self.loop.set_exception_handler(
            lambda _loop, context: self.reported.append(context))
        self.server = None
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)

            async def boot():
                host = JobHost(
                    JobQueue(lease_timeout_s=lease_timeout_s,
                             max_attempts=max_attempts),
                    cache=ResultCache(cache_dir) if cache_dir else None,
                )
                self.server = Server(ScheduleEngine(workers=0), jobs=host)
                await self.server.start()
                started.set()

            self.loop.run_until_complete(boot())
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("coordinator failed to start")

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        assert not self.reported, f"event loop reported: {self.reported}"


class _FlakyClient:
    """Fault-injecting proxy: the first ``budget[name]`` calls to each
    named method raise a transient network error, then delegate."""

    def __init__(self, inner, budget):
        self._inner = inner
        self._budget = dict(budget)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            if self._budget.get(name, 0) > 0:
                self._budget[name] -= 1
                raise ConnectionResetError(f"injected blip on {name}")
            return attr(*args, **kwargs)

        return call


class TestWorkerAndCli:
    def test_submit_work_dump_matches_single_process_reference(
            self, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["sweep", "fig3", *GRID_SETS, "--quick",
                     "--cache-dir", str(tmp_path / "ref-cache"),
                     "--out", str(ref)]) == 0

        coord = _LiveCoordinator(tmp_path / "coord-cache")
        try:
            assert main(["submit-sweep", "fig3", *GRID_SETS, "--quick",
                         "--coordinator", coord.url]) == 0
            assert main(["work", "--coordinator", coord.url,
                         "--jobs", "1", "--batch", "2", "--poll", "0.05",
                         "--cache-dir", str(tmp_path / "worker-cache"),
                         ]) == 0
            out = capsys.readouterr().out
            assert "[running]" in out
            assert "lease lease-1" in out
            assert "[    ran] fig3:" in out
            dump = tmp_path / "dump"
            assert main(["submit-sweep", "fig3", *GRID_SETS, "--quick",
                         "--coordinator", coord.url, "--wait",
                         "--poll", "0.05", "--out", str(dump)]) == 0
            out = capsys.readouterr().out
            # second submission pre-completes from the coordinator cache
            assert "[done] 4/4 done" in out
        finally:
            coord.close()

        merged = tmp_path / "merged"
        assert main(["merge", str(dump), "--out", str(merged),
                     "--check", str(ref)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_submit_sweep_rejection_exits_1(self, tmp_path, capsys):
        coord = _LiveCoordinator()
        try:
            assert main(["submit-sweep", "nope",
                         "--coordinator", coord.url]) == 1
            err = capsys.readouterr().err
            assert "400" in err and "artifact:" in err
            assert main(["submit-sweep", "fig3", "--set", "warp=1",
                         "--coordinator", coord.url]) == 1
            assert "warp" in capsys.readouterr().err
        finally:
            coord.close()

    def test_submit_sweep_unreachable_coordinator_exits_1(self, capsys):
        assert main(["submit-sweep", "fig3",
                     "--coordinator", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_worker_drains_through_injected_network_blips(self, tmp_path):
        # every endpoint the worker touches flakes a few times; the
        # retry/backoff plumbing must absorb it all — zero dropped
        # points, zero worker crashes
        coord = _LiveCoordinator(tmp_path / "cache")
        logs = []
        try:
            inner = CoordinatorClient(coord.url)
            status = inner.submit(api.SweepJobRequest(
                artifact="fig3", axes=GRID_AXES, quick=True))
            # budgets stay under each path's retry allowance: 3
            # consecutive complete blips fit the upload's 4 tries
            flaky = _FlakyClient(inner, {
                "lease": 2,  # coordinator "bounces" during polling
                "complete": 3,
                "heartbeat": 1,
            })
            uploaded = work_loop(
                flaky, worker="flaky", batch=1, poll_s=0.05,
                cache=ResultCache(tmp_path / "worker-cache"),
                reconnect_s=60.0, log=logs.append,
            )
            assert uploaded == 4
            final = inner.job(status.job_id)
            assert final.state == "done" and final.done == 4
            text = "\n".join(logs)
            assert "coordinator unreachable" in text
            assert "transient error" in text
            assert "dropped" not in text
        finally:
            coord.close()

    def test_worker_gives_up_past_reconnect_budget(self, tmp_path):
        # nobody listening on port 9: every lease poll is refused, and
        # with a zero budget the first refusal is fatal
        client = CoordinatorClient("http://127.0.0.1:9")
        with pytest.raises(OSError):
            work_loop(client, worker="w", poll_s=0.05, reconnect_s=0.0,
                      log=lambda _line: None)

    def test_worker_tolerates_lease_lost_to_expiry(self, tmp_path):
        # lease expires while the worker stalls; the re-leased points
        # are finished by a second worker, and the first worker's late
        # uploads are either accepted (idempotent) or logged+dropped —
        # never a crash, and every point ends done exactly once
        coord = _LiveCoordinator(tmp_path / "cache", lease_timeout_s=0.2)
        logs = []
        try:
            client = CoordinatorClient(coord.url)
            status = client.submit(api.SweepJobRequest(
                artifact="fig3", axes=GRID_AXES, quick=True))
            slow = threading.Thread(target=work_loop, args=(client,), kwargs={
                "worker": "slow", "batch": 4, "stall_s": 1.0,
                "max_leases": 1, "poll_s": 0.05,
                "cache": ResultCache(tmp_path / "slow-cache"),
                "log": logs.append,
            })
            slow.start()
            time.sleep(0.5)  # slow's lease is now expired
            work_loop(client, worker="fast", batch=4, poll_s=0.05,
                      cache=ResultCache(tmp_path / "fast-cache"),
                      log=logs.append)
            slow.join(timeout=120)
            assert not slow.is_alive()
            final = client.job(status.job_id)
            assert final.state == "done"
            assert final.done == 4
        finally:
            coord.close()


# ---------------------------------------------------------------------------
# acceptance: 2 workers over a live socket, one SIGKILLed mid-lease
# ---------------------------------------------------------------------------

def _spawn_worker(url, tmp_path, name, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.runner", "work",
         "--coordinator", url, "--worker-id", name, "--poll", "0.1",
         "--cache-dir", str(tmp_path / f"{name}-cache"), *extra],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


class TestKillMatrix:
    def test_worker_killed_mid_lease_run_is_byte_identical(
            self, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["sweep", "fig3", *GRID_SETS, "--quick",
                     "--cache-dir", str(tmp_path / "ref-cache"),
                     "--out", str(ref)]) == 0
        capsys.readouterr()

        coord = _LiveCoordinator(tmp_path / "coord-cache",
                                 lease_timeout_s=1.0)
        victim = survivor = None
        try:
            client = CoordinatorClient(coord.url)
            status = client.submit(api.SweepJobRequest(
                artifact="fig3", axes=GRID_AXES, quick=True))

            # worker A leases the whole grid, then stalls inside the
            # lease (before any heartbeat); we SIGKILL it there
            victim = _spawn_worker(coord.url, tmp_path, "victim",
                                   "--batch", "4", "--stall", "120")
            deadline = time.time() + 60
            while time.time() < deadline:
                if client.job(status.job_id).leased > 0:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("victim never leased anything")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)

            # worker B drains the re-queued points after lease expiry
            survivor = _spawn_worker(coord.url, tmp_path, "survivor",
                                     "--batch", "2", "--jobs", "2")
            out, _ = survivor.communicate(timeout=240)
            assert survivor.returncode == 0, out
            assert "survivor:" in out

            final = client.job(status.job_id)
            assert final.state == "done"
            assert final.done == 4 and final.poisoned == 0

            _, stats = _get(coord.server.port, "/v1/stats")
            assert stats["jobs"]["leases_expired"] >= 1
            assert stats["jobs"]["points_completed"] == 4

            dump = tmp_path / "dump"
            assert main(["submit-sweep", "fig3", *GRID_SETS, "--quick",
                         "--coordinator", coord.url, "--wait",
                         "--poll", "0.05", "--out", str(dump)]) == 0
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
            coord.close()

        merged = tmp_path / "merged"
        assert main(["merge", str(dump), "--out", str(merged),
                     "--check", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "4 manifest(s) byte-identical" in out
        assert len(list(merged.glob("*.json"))) == 4


# ---------------------------------------------------------------------------
# acceptance: the *coordinator* SIGKILLed mid-drain, restarted on the
# same --state-dir, must resume the half-drained job byte-identically
# ---------------------------------------------------------------------------

def _spawn_coordinator(tmp_path, state_dir, cache_dir, port=0):
    """``mbs-repro serve`` as a subprocess; returns (proc, lines, url).

    ``lines`` keeps accumulating in the background, so later output
    (e.g. the restore banner) can be asserted on after the fact.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.experiments.runner", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--state-dir", str(state_dir), "--cache-dir", str(cache_dir)],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.time() + 60
    while time.time() < deadline:
        for line in list(lines):
            if "listening on http://" in line:
                return proc, lines, line.split("listening on ")[1].strip()
        if proc.poll() is not None:
            raise RuntimeError(
                f"coordinator exited {proc.returncode}: {''.join(lines)}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"coordinator never came up: {''.join(lines)}")


class TestCoordinatorKillMatrix:
    def test_coordinator_sigkilled_mid_drain_resumes_byte_identical(
            self, tmp_path, capsys):
        ref = tmp_path / "ref"
        assert main(["sweep", "fig3", *GRID_SETS, "--quick",
                     "--cache-dir", str(tmp_path / "ref-cache"),
                     "--out", str(ref)]) == 0
        capsys.readouterr()

        state_dir = tmp_path / "state"
        cache_dir = tmp_path / "coord-cache"
        first = second = worker = None
        try:
            first, _, url = _spawn_coordinator(tmp_path, state_dir,
                                               cache_dir)
            port = int(url.rsplit(":", 1)[1])
            client = CoordinatorClient(url)
            status = client.submit(api.SweepJobRequest(
                artifact="fig3", axes=GRID_AXES, quick=True))

            # half-drain by hand: lease 2 points, upload only the first,
            # leaving the lease (and its second point) in flight
            grant, _ = client.lease("pre-crash", max_points=2)
            assert grant is not None and len(grant.points) == 2
            results = []
            run_tasks(
                [Task(get_spec("fig3"),
                      dict(grant.points[0]["overrides"]), quick=True)],
                jobs=1, cache=ResultCache(tmp_path / "pre-crash-cache"),
                on_result=lambda _t, r: results.append(r),
            )
            client.complete(grant.lease_id, grant.points[0]["index"],
                            results[0].manifest)
            assert client.job(status.job_id).done == 1

            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)
            assert (state_dir / "journal.jsonl").exists()

            # a worker started against the dead coordinator must treat
            # the outage as a slow poll, not a crash
            worker = _spawn_worker(url, tmp_path, "survivor",
                                   "--batch", "2", "--reconnect", "60")
            time.sleep(0.5)  # let it hit connection-refused at least once

            second, lines, url2 = _spawn_coordinator(
                tmp_path, state_dir, cache_dir, port=port)
            assert url2 == url
            out, _ = worker.communicate(timeout=240)
            assert worker.returncode == 0, out
            assert "coordinator unreachable" in out
            assert "".join(lines).count("restored 1 job(s) "
                                        "(1 still running)") == 1

            # zero lost attempts: the restore snapshot carries per-point
            # attempt counts — the voided lease's points kept theirs
            snap = json.loads((state_dir / "snapshot.json").read_text())
            assert any(
                point["attempts"] >= 1
                for job in snap["state"]["jobs"]
                for point in job["points"]
            )

            final = client.job(status.job_id)
            assert final.state == "done"
            assert final.done == 4 and final.poisoned == 0

            _, stats = _get(port, "/v1/stats")
            assert stats["jobs"]["leases_expired"] >= 1
            assert stats["jobs"]["points_completed"] == 4
            assert stats["jobs"]["leases_live"] == 0

            dump = tmp_path / "dump"
            assert main(["submit-sweep", "fig3", *GRID_SETS, "--quick",
                         "--coordinator", url, "--wait",
                         "--poll", "0.05", "--out", str(dump)]) == 0
        finally:
            for proc in (worker, first, second):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        merged = tmp_path / "merged"
        assert main(["merge", str(dump), "--out", str(merged),
                     "--check", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "4 manifest(s) byte-identical" in out

    def test_serve_refuses_corrupt_state_dir(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "snapshot.json").write_text("{nope")
        assert main(["serve", "--state-dir", str(state_dir)]) == 1
        err = capsys.readouterr().err
        assert "cannot restore state" in err
