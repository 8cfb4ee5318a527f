"""Minimal HTTP/1.1 front end for the schedule engine — stdlib only.

``asyncio.start_server`` plus a hand-rolled request parser; no web
framework, no new dependencies.  The server is deliberately a thin
shell: every interesting behavior (dedup, batching, caching, timeouts,
degradation) lives in :class:`~repro.serve.engine.ScheduleEngine`, and
every price it returns comes from :func:`repro.api.price` — the same
numbers the CLI and the Python facade print, bit for bit.

Routes::

    GET  /healthz        -> {"ok": true}
    GET  /v1/policies    -> {"schema": 1, "policies": [...]}
    GET  /v1/objectives  -> {"schema": 1, "objectives": [...]}
    GET  /v1/stats       -> engine counters (+ queue counters)
    POST /v1/schedule    -> {"schema": 1, "cached": ..., "deduped": ...,
                             "degraded": ..., "result": <ScheduleResult>}
    POST /v1/jobs        -> submit a SweepJobRequest; SweepJobStatus back
    GET  /v1/jobs        -> every job's SweepJobStatus
    GET  /v1/jobs/<id>   -> one job's SweepJobStatus
    GET  /v1/jobs/<id>/manifests    -> completed manifests, grid order
    POST /v1/lease                  -> lease points (LeaseGrant or null)
    POST /v1/lease/<id>/heartbeat   -> extend a live lease
    POST /v1/lease/<id>/complete    -> upload one point's manifest
    POST /v1/lease/<id>/fail        -> report one point's failure

``POST /v1/schedule`` accepts a :class:`~repro.api.ScheduleRequest`
wire object (``{"schema": 1, "network": "resnet50", ...}`` or an
inline ``"graph"`` envelope from :mod:`repro.graph.serialize`).
Malformed JSON or a request the schema rejects is a 400 with an
``{"error": ...}`` body, never a connection drop.  The job surface
(:mod:`repro.serve.jobs`) adds 404 for unknown job/lease ids and 409
for protocol conflicts — an expired lease heartbeat, or an uploaded
manifest whose content address disagrees with the coordinator's.
"""
from __future__ import annotations

import asyncio
import json
from typing import Any

from repro import api
from repro.runtime.queue import (
    ExpiredLease,
    RejectedManifest,
    UnknownJob,
    UnknownLease,
)
from repro.serve.engine import ScheduleEngine
from repro.serve.jobs import JobHost

#: Largest accepted request body; an inline inception_v4 graph is
#: ~100 KiB, so this is ~80x headroom, not a real ceiling.
MAX_BODY_BYTES = 8 << 20
_MAX_HEADER_LINES = 100


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
}


class Server:
    """One listening socket in front of one :class:`ScheduleEngine`.

    ``jobs`` optionally attaches a :class:`~repro.serve.jobs.JobHost`;
    without one the ``/v1/jobs`` and ``/v1/lease`` routes answer 404.
    """

    def __init__(self, engine: ScheduleEngine, *,
                 host: str = "127.0.0.1", port: int = 0,
                 jobs: JobHost | None = None):
        self.engine = engine
        self.jobs = jobs
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # port=0 asks the OS for an ephemeral port; record the real one
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit in readline() forever; cut
        # them rather than leaking their handler tasks.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        await self.engine.aclose()

    # -- connection handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(writer, exc.status,
                                        {"error": str(exc)}, close=True)
                    break
                if request is None:
                    break  # clean EOF between requests
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._route(method, path, body)
                await self._respond(writer, status, payload,
                                    close=not keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown: end the handler cleanly, not cancelled
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(400, "malformed request line")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(400, "too many headers")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                n = -1
            if n < 0:
                raise _BadRequest(400, "bad Content-Length")
            if n > MAX_BODY_BYTES:
                raise _BadRequest(413, "request body too large")
            if n:
                body = await reader.readexactly(n)
        return method, path, headers, body

    # -- routing -------------------------------------------------------

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict[str, Any]]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"ok": True}
        if path == "/v1/policies":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"schema": api.SCHEMA_VERSION,
                         "policies": list(api.policies())}
        if path == "/v1/objectives":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"schema": api.SCHEMA_VERSION,
                         "objectives": list(api.objectives())}
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            payload = {"schema": api.SCHEMA_VERSION,
                       **self.engine.stats.to_wire()}
            if self.jobs is not None:
                self.jobs.tick()
                payload["jobs"] = self.jobs.stats_wire()
            return 200, payload
        if path == "/v1/schedule":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._schedule(body)
        if path == "/v1/jobs" or path.startswith("/v1/jobs/") \
                or path == "/v1/lease" or path.startswith("/v1/lease/"):
            return self._jobs_route(method, path, body)
        return 404, {"error": f"no such path: {path}"}

    # -- the job/lease surface -----------------------------------------

    def _jobs_route(self, method: str, path: str,
                    body: bytes) -> tuple[int, dict[str, Any]]:
        """Map queue protocol errors onto HTTP statuses.

        Unknown job/lease ids are 404; an expired lease or a manifest
        whose content address disagrees with the coordinator's is 409
        (the worker must re-lease, not retry); everything else the
        wire schema rejects is a 400 with a path-qualified message.
        Any other failure (a full disk under the cache, say) is a 500:
        an answer, never a dropped connection.
        """
        if self.jobs is None:
            return 404, {"error": "job hosting is not enabled; start "
                                  "the server via `mbs-repro serve`"}
        try:
            return self._jobs_dispatch(method, path, body)
        except (UnknownJob, UnknownLease) as exc:
            return 404, {"error": str(exc)}
        except (ExpiredLease, RejectedManifest) as exc:
            return 409, {"error": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # our fault, not the request's
            return 500, {"error": f"internal error: {exc!r}"}

    def _jobs_dispatch(self, method: str, path: str,
                       body: bytes) -> tuple[int, dict[str, Any]]:
        assert self.jobs is not None
        parts = path.strip("/").split("/")
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2:
                if method == "POST":
                    return 200, self.jobs.submit_wire(self._json(body))
                if method == "GET":
                    return 200, self.jobs.jobs_wire()
                return 405, {"error": "use GET or POST"}
            if len(parts) == 3:
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, self.jobs.job_wire(parts[2])
            if len(parts) == 4 and parts[3] == "manifests":
                if method != "GET":
                    return 405, {"error": "use GET"}
                return 200, self.jobs.manifests_wire(parts[2])
        elif parts[:2] == ["v1", "lease"]:
            if len(parts) == 2:
                if method != "POST":
                    return 405, {"error": "use POST"}
                return 200, self.jobs.lease_wire(self._json(body))
            if len(parts) == 4 and parts[3] in ("heartbeat", "complete",
                                                "fail"):
                if method != "POST":
                    return 405, {"error": "use POST"}
                handler = getattr(self.jobs, f"{parts[3]}_wire")
                return 200, handler(parts[2], self._json(body))
        return 404, {"error": f"no such path: {path}"}

    @staticmethod
    def _json(body: bytes) -> dict[str, Any]:
        try:
            wire = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"request body is not valid JSON: {exc}"
            ) from None
        except RecursionError:
            raise ValueError(
                "request body is not valid JSON: nested too deeply"
            ) from None
        if not isinstance(wire, dict):
            raise ValueError("request body must be a JSON object")
        return wire

    async def _schedule(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            result, meta = await self.engine.submit(self._json(body))
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pricing blew up: our bug, not theirs
            self.engine.stats.errors += 1
            return 500, {"error": f"internal error: {exc!r}"}
        return 200, {
            "schema": api.SCHEMA_VERSION,
            "cached": meta["cached"],
            "deduped": meta["deduped"],
            "degraded": meta["degraded"],
            "result": result,
        }

    # -- response writing ----------------------------------------------

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict[str, Any], *, close: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    workers: int = 1,
    timeout_s: float = 30.0,
    max_pending: int = 64,
    cache=None,
    cache_max_entries: int | None = None,
    cache_max_bytes: int | None = None,
    lease_timeout_s: float = 60.0,
    max_attempts: int = 3,
    state_dir: str | None = None,
) -> None:
    """Entry point behind ``mbs-repro serve``: run until cancelled.

    ``state_dir`` makes the work queue durable: every queue mutation
    is journaled there before it is acknowledged, and a restart on the
    same directory restores half-drained jobs (outstanding leases are
    conservatively expired so their points re-queue).
    """
    from repro.runtime.queue import JobQueue

    # restore (or create) the queue before anything that owns
    # resources: an unreadable state dir must fail fast and clean
    if state_dir is not None:
        import repro.experiments  # noqa: F401  (populates the registry)
        from repro.runtime.journal import Journal
        from repro.runtime.spec import get_spec

        queue = JobQueue.restore(
            Journal(state_dir), specs=get_spec,
            lease_timeout_s=lease_timeout_s, max_attempts=max_attempts,
        )
        if queue.jobs:
            running = sum(j.open_points > 0 for j in queue.jobs.values())
            print(f"mbs-repro serve: restored {len(queue.jobs)} job(s) "
                  f"({running} still running) from {state_dir}")
    else:
        queue = JobQueue(lease_timeout_s=lease_timeout_s,
                         max_attempts=max_attempts)
    engine = ScheduleEngine(cache=cache, workers=workers,
                            timeout_s=timeout_s, max_pending=max_pending,
                            cache_max_entries=cache_max_entries,
                            cache_max_bytes=cache_max_bytes)
    jobs = JobHost(queue, cache=cache)
    server = Server(engine, host=host, port=port, jobs=jobs)
    await server.start()
    print(f"mbs-repro serve: listening on http://{server.host}:{server.port}")
    print("POST /v1/schedule with a ScheduleRequest wire object; "
          "GET /healthz, /v1/policies, /v1/objectives, /v1/stats; "
          "POST /v1/jobs + mbs-repro work for queued sweeps")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()
        if queue.journal is not None:
            queue.journal.close()
