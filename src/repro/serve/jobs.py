"""Job hosting for the serve layer: the ``/v1/jobs`` wire handlers.

:class:`JobHost` adapts the pure :class:`~repro.runtime.queue.JobQueue`
state machine to the HTTP surface: it decodes/encodes the
:mod:`repro.api` job wire types, expands a submission's sweep axes
into the deterministic point grid, and ingests uploaded manifests into
the same content-addressed :class:`~repro.runtime.cache.ResultCache`
layout a local ``mbs-repro sweep`` writes — which is exactly why
``--resume``, static ``--shard`` runs, and queue-driven runs all
interoperate: they are different feeders of one store.

The host is clock-driven lazily: every wire handler first ticks the
queue (``expire()``), so lease reaping needs no background task —
workers poll, and polling drives time forward.
"""
from __future__ import annotations

import math
from typing import Any, Mapping

from repro import api
from repro.runtime.cache import ResultCache
from repro.runtime.queue import DONE, JobQueue, SweepJob, SweepPoint
from repro.runtime.spec import expand_grid, get_spec

#: Most grid points one submitted job may expand to, about ten times
#: the 1,536-point grid perfbench's queue-drain submits: submission
#: expands, keys and journals every point before it answers.
MAX_JOB_POINTS = 2**14


def _job_status(job: SweepJob) -> api.SweepJobStatus:
    counts = job.counts()
    return api.SweepJobStatus(
        job_id=job.job_id,
        artifact=job.spec.name,
        quick=job.quick,
        state=job.state,
        total=len(job.points),
        pending=counts["pending"],
        leased=counts["leased"],
        done=counts["done"],
        poisoned=counts["poisoned"],
        max_attempts=job.max_attempts,
        lease_timeout_s=job.lease_timeout_s,
    )


class JobHost:
    """One coordinator's queued sweeps, spoken in wire types.

    Accepted manifests have one store.  With a cache it is the cache:
    each is persisted under ``<root>/<spec>/<key>.json`` before its
    completion is journaled, and points whose manifests the cache
    already holds are pre-completed at submission — a queue job over
    an already-swept grid finishes instantly.  ``cache=None`` keeps
    them in memory only (tests, ``serve --no-cache``).
    """

    def __init__(self, queue: JobQueue | None = None, *,
                 cache: ResultCache | None = None):
        self.queue = queue if queue is not None else JobQueue()
        self.cache = cache
        #: accepted manifests by task key, only when cache=None
        self._manifests: dict[str, dict[str, Any]] = {}

    def tick(self) -> None:
        self.queue.expire()

    # -- submission / polling ----------------------------------------

    def submit_wire(self, wire: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /v1/jobs``: enqueue one sweep, return its status."""
        self.tick()
        req = api.SweepJobRequest.from_wire(wire)
        import repro.experiments  # noqa: F401  (populates the registry)
        try:
            spec = get_spec(req.artifact)
        except KeyError as exc:
            raise ValueError(f"artifact: {exc.args[0]}") from None
        axes = dict(spec.sweep)
        if req.axes is not None:
            axes.update(req.axes)
        points = math.prod(len(values) for values in axes.values())
        if points > MAX_JOB_POINTS:
            raise ValueError(
                f"axes: the grid has {points} points; a job may hold at "
                f"most {MAX_JOB_POINTS}"
            )

        def cached(point: SweepPoint) -> dict[str, Any] | None:
            if self.cache is None:
                return None
            return self.cache.lookup(spec.name, point.key)

        try:
            job = self.queue.submit(
                spec,
                expand_grid(axes),
                quick=req.quick,
                lease_timeout_s=req.lease_timeout_s,
                max_attempts=req.max_attempts,
                already_done=cached,
            )
        except KeyError as exc:
            raise ValueError(f"axes: {exc.args[0]}") from None
        except RecursionError:  # keying a point jsonifies its values
            raise ValueError("axes: a value is nested too deeply") from None
        return _job_status(job).to_wire()

    def job_wire(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/<id>``: one job's status."""
        self.tick()
        return _job_status(self.queue.job(job_id)).to_wire()

    def jobs_wire(self) -> dict[str, Any]:
        """``GET /v1/jobs``: every job's status, submission order."""
        self.tick()
        return {
            "schema": api.SCHEMA_VERSION,
            "jobs": [
                _job_status(j).to_wire() for j in self.queue.jobs.values()
            ],
        }

    # -- leasing ------------------------------------------------------

    def lease_wire(self, wire: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /v1/lease``: grant a batch of points, or report done.

        Body: ``{"schema": 1, "worker": "...", "max_points": N,
        "job": "job-1"?}``.  The response's ``all_done`` tells an idle
        worker whether to exit (every job terminal) or keep polling
        (work may still arrive).
        """
        wire = api.read_envelope(wire, "lease request",
                                 ("worker", "max_points", "job"))
        worker = api.read_str(wire.get("worker"), "worker")
        max_points = api.read_int(wire.get("max_points", 1), "max_points")
        job_id = wire.get("job")
        if job_id is not None:
            api.read_str(job_id, "job")
        granted = self.queue.lease(worker, max_points=max_points,
                                   job_id=job_id)
        if granted is None:
            return {
                "schema": api.SCHEMA_VERSION,
                "lease": None,
                "all_done": self.queue.all_terminal,
            }
        job, lease, points = granted
        grant = api.LeaseGrant(
            job_id=job.job_id,
            lease_id=lease.lease_id,
            worker=lease.worker,
            artifact=job.spec.name,
            quick=job.quick,
            lease_timeout_s=job.lease_timeout_s,
            points=tuple(
                {"index": p.index, "overrides": dict(p.overrides)}
                for p in points
            ),
        )
        return {
            "schema": api.SCHEMA_VERSION,
            "lease": grant.to_wire(),
            "all_done": False,
        }

    def heartbeat_wire(
        self, lease_id: str, wire: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/lease/<id>/heartbeat``: extend a live lease."""
        api.read_envelope(wire, "heartbeat request", ())
        self.queue.heartbeat(lease_id)
        return {"schema": api.SCHEMA_VERSION, "ok": True}

    def complete_wire(
        self, lease_id: str, wire: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/lease/<id>/complete``: upload one point's manifest."""
        wire = api.read_envelope(wire, "complete request",
                                 ("index", "manifest"))
        index = api.read_int(wire.get("index"), "index", minimum=0)
        manifest = wire.get("manifest")
        if not isinstance(manifest, Mapping):
            raise ValueError(
                f"manifest: expected a manifest object, got "
                f"{type(manifest).__name__}"
            )
        try:
            point = self.queue.complete(lease_id, index, manifest,
                                        store=self._store_manifest)
        except RecursionError:  # storing a manifest encodes it
            raise ValueError("manifest: nested too deeply") from None
        return {"schema": api.SCHEMA_VERSION, "ok": True, "key": point.key}

    def _store_manifest(self, manifest: Mapping[str, Any]) -> None:
        stored = dict(manifest)
        if self.cache is not None:
            self.cache.store(stored)
        else:
            self._manifests[stored["key"]] = stored

    def fail_wire(
        self, lease_id: str, wire: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``POST /v1/lease/<id>/fail``: report one point's failure."""
        wire = api.read_envelope(wire, "fail request", ("index", "error"))
        index = api.read_int(wire.get("index"), "index", minimum=0)
        error = api.read_str(wire.get("error"), "error")
        point = self.queue.fail(lease_id, index, error)
        return {"schema": api.SCHEMA_VERSION, "ok": True,
                "state": point.state}

    # -- results ------------------------------------------------------

    def manifests_wire(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/<id>/manifests``: every completed manifest.

        Manifests come back in grid order — the same enumeration a
        single-process sweep would produce — so a dump of them is
        byte-comparable via ``mbs-repro merge --check``.
        """
        self.tick()
        job = self.queue.job(job_id)
        manifests = []
        for point in job.points:
            if point.state != DONE:
                continue
            if self.cache is not None:
                manifest = self.cache.lookup(job.spec.name, point.key)
            else:
                manifest = self._manifests.get(point.key)
            if manifest is not None:
                manifests.append(manifest)
        return {
            "schema": api.SCHEMA_VERSION,
            "job": _job_status(job).to_wire(),
            "manifests": manifests,
        }

    def stats_wire(self) -> dict[str, int]:
        """The ``jobs`` section of ``GET /v1/stats``."""
        return self.queue.stats()
