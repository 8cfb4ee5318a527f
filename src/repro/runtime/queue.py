"""Dynamic sweep work queue: jobs, leases, retries, poison points.

The queue is the coordinator-side state machine behind the serve
layer's ``/v1/jobs`` surface (:mod:`repro.serve.jobs`).  It is pure
bookkeeping — no HTTP, no threads, no wall clock of its own (callers
inject ``clock``; tests drive a fake one) — so lease expiry, bounded
retries, and quarantine are all unit-testable deterministically.

Life of a point::

    PENDING --lease()--> LEASED --complete()--> DONE
       ^                    |
       |   expiry / fail()  |  attempts < max_attempts
       +--------------------+
                            |  attempts >= max_attempts
                            +--> POISONED

A job's point grid comes from :func:`~repro.runtime.spec.expand_grid`
and is enumerated in the same deterministic order as a single-process
``mbs-repro sweep`` run; each point carries the content-addressed
:func:`~repro.runtime.cache.task_key` the coordinator expects its
manifest to land under.  An uploaded manifest whose key disagrees
(version-skewed worker code, wrong params) is rejected, which is the
whole byte-identity story: only manifests a local run would itself
have produced are ever accepted.

Completion is idempotent and never discards valid work: a manifest
arriving after its lease expired (slow worker, network partition that
healed) is still accepted if the point is not yet done and the key
matches — until the job is terminal, at which moment the job's leases
are pruned (the coordinator would otherwise retain every lease ever
granted).

Every state transition is one event: a public mutator validates and
decides, then appends the event to the attached
:class:`~repro.runtime.journal.Journal` (an fsync'd log) *before* it is
acknowledged, and applies it with the function :meth:`JobQueue.restore`
replays — so the queue rebuilt from snapshot + log after a crash is the
live queue (pending/leased/done/poisoned, attempts, quarantine) by
construction.  Leases outstanding at crash time are conservatively
expired on restore, so their points re-queue under the retry budget.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.runtime.cache import task_key
from repro.runtime.journal import JournalError
from repro.runtime.serialize import jsonify
from repro.runtime.spec import ExperimentSpec

PENDING = "pending"
LEASED = "leased"
DONE = "done"
POISONED = "poisoned"


class QueueError(ValueError):
    """Base class for queue protocol violations (HTTP-mappable)."""


class UnknownJob(QueueError):
    pass


class UnknownLease(QueueError):
    pass


class ExpiredLease(QueueError):
    pass


class RejectedManifest(QueueError):
    pass


def point_label(overrides: Mapping[str, Any]) -> str:
    """Canonical short label for one sweep point (shared CLI spelling)."""
    return ", ".join(f"{k}={overrides[k]!r}" for k in overrides) or "(base)"


def format_point_line(
    spec_name: str, overrides: Mapping[str, Any], status: str
) -> str:
    """One per-point progress line, identical for ``sweep`` and ``work``."""
    return f"  [{status:>7}] {spec_name}: {point_label(overrides)}"


@dataclass
class SweepPoint:
    """One grid point of one job."""

    index: int
    overrides: dict[str, Any]
    params: dict[str, Any]
    key: str
    state: str = PENDING
    attempts: int = 0
    lease_id: str | None = None
    error: str | None = None


@dataclass
class Lease:
    """One worker's claim on a batch of points."""

    lease_id: str
    job_id: str
    worker: str
    indexes: tuple[int, ...]
    deadline: float
    lease_timeout_s: float
    alive: bool = True


@dataclass
class SweepJob:
    """One submitted sweep: a spec plus its full point grid."""

    job_id: str
    spec: ExperimentSpec
    quick: bool
    points: list[SweepPoint]
    max_attempts: int
    lease_timeout_s: float
    #: points not yet DONE/POISONED — kept incrementally so the
    #: terminal check on the complete/fail hot path is O(1)
    open_points: int = 0

    def counts(self) -> dict[str, int]:
        c = {PENDING: 0, LEASED: 0, DONE: 0, POISONED: 0}
        for p in self.points:
            c[p.state] += 1
        return c

    @property
    def state(self) -> str:
        c = self.counts()
        if c[PENDING] or c[LEASED]:
            return "running"
        return "failed" if c[POISONED] else "done"


class JobQueue:
    """Coordinator bookkeeping for queued sweeps.

    ``clock`` must be a monotonic zero-arg callable; all lease
    deadlines live on its timeline.  The queue itself is not locked —
    the serve layer calls it from a single event loop, and unit tests
    are single-threaded.

    ``journal`` (a :class:`~repro.runtime.journal.Journal`) makes the
    queue durable: every mutation is appended to the event log before
    the call returns, and the journal is compacted into a snapshot
    every ``journal.snapshot_every`` events.  :meth:`restore` is the
    other half — rebuild a queue from a state dir after a crash.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        lease_timeout_s: float = 60.0,
        max_attempts: int = 3,
        journal=None,
    ):
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s: expected a positive number, got "
                f"{lease_timeout_s!r}"
            )
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts: expected a positive integer, got "
                f"{max_attempts!r}"
            )
        self.clock = clock
        self.lease_timeout_s = lease_timeout_s
        self.max_attempts = max_attempts
        self.journal = journal
        self.jobs: dict[str, SweepJob] = {}
        self.leases: dict[str, Lease] = {}
        self._job_seq = 0
        self._lease_seq = 0
        # monitoring counters (exposed via /v1/stats)
        self.leases_granted = 0
        self.leases_expired = 0
        self.points_completed = 0
        self.points_failed = 0
        self.points_poisoned = 0
        self.manifests_rejected = 0

    # -- submission --------------------------------------------------

    def submit(
        self,
        spec: ExperimentSpec,
        points_overrides: Iterable[Mapping[str, Any]],
        *,
        quick: bool = False,
        lease_timeout_s: float | None = None,
        max_attempts: int | None = None,
        already_done: Callable[[SweepPoint], Mapping[str, Any] | None]
        | None = None,
    ) -> SweepJob:
        """Enqueue one sweep job over an explicit point grid.

        ``points_overrides`` is the deterministic grid enumeration
        (usually ``expand_grid(axes)``); each point's params and cache
        key are resolved here, once, on the coordinator's code — the
        reference a worker's upload must match.  ``already_done`` lets
        the caller pre-complete points whose manifests it already holds
        (a cache hit): it receives the resolved point and returns the
        manifest or ``None``.  A grid that fails to resolve raises
        before anything is recorded, so it uses up no job id.

        Per-job ``lease_timeout_s`` / ``max_attempts`` default to the
        queue-wide values when ``None`` and are validated like the
        constructor's otherwise — an explicit ``0`` is an error, not a
        silent fall-through to the default.
        """
        if lease_timeout_s is None:
            lease_timeout_s = self.lease_timeout_s
        elif lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s: expected a positive number or None "
                f"(inherit the queue default), got {lease_timeout_s!r}"
            )
        if max_attempts is None:
            max_attempts = self.max_attempts
        elif max_attempts < 1:
            raise ValueError(
                f"max_attempts: expected a positive integer or None "
                f"(inherit the queue default), got {max_attempts!r}"
            )
        points = []
        for index, overrides in enumerate(points_overrides):
            params = spec.resolve_params(overrides, quick=quick)
            point = SweepPoint(index=index, overrides=dict(overrides),
                               params=params, key=task_key(spec, params))
            if already_done is not None:
                manifest = already_done(point)
                if manifest is not None and manifest.get("key") == point.key:
                    point.state = DONE
            points.append({"index": index, "key": point.key,
                           "overrides": jsonify(point.overrides),
                           "params": jsonify(params), "state": point.state})
        job_id = f"job-{self._job_seq + 1}"
        self._commit({
            "e": "submit",
            "job_id": job_id,
            "spec": spec.name,
            "quick": quick,
            "max_attempts": max_attempts,
            "lease_timeout_s": lease_timeout_s,
            "points": points,
        }, lambda _name: spec)
        return self.jobs[job_id]

    def job(self, job_id: str) -> SweepJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(f"unknown job {job_id!r}") from None

    @property
    def all_terminal(self) -> bool:
        """True once jobs exist and none is still running.

        Workers use this as their exit signal: an empty coordinator is
        *not* terminal (the job may simply not have been submitted
        yet), so a worker started before the submission waits.
        """
        return bool(self.jobs) and all(
            j.open_points == 0 for j in self.jobs.values()
        )

    # -- leasing -----------------------------------------------------

    def lease(
        self,
        worker: str,
        max_points: int = 1,
        job_id: str | None = None,
    ) -> tuple[SweepJob, Lease, list[SweepPoint]] | None:
        """Grant up to ``max_points`` pending points to ``worker``.

        Jobs are drained in submission order (FIFO); a grant never
        spans jobs.  Returns ``None`` when nothing is pending.
        """
        if max_points < 1:
            raise ValueError(
                f"max_points: expected a positive integer, got "
                f"{max_points!r}"
            )
        self.expire()
        candidates: Iterable[SweepJob]
        if job_id is not None:
            candidates = (self.job(job_id),)
        else:
            candidates = self.jobs.values()
        for job in candidates:
            pending = [p for p in job.points if p.state == PENDING]
            if not pending:
                continue
            batch = pending[:max_points]
            lease_id = f"lease-{self._lease_seq + 1}"
            self._commit({
                "e": "lease",
                "lease_id": lease_id,
                "job_id": job.job_id,
                "worker": worker,
                "indexes": [p.index for p in batch],
                "lease_timeout_s": job.lease_timeout_s,
            })
            return job, self.leases[lease_id], batch
        return None

    def _lease(self, lease_id: str) -> Lease:
        try:
            return self.leases[lease_id]
        except KeyError:
            raise UnknownLease(f"unknown lease {lease_id!r}") from None

    def heartbeat(self, lease_id: str) -> float:
        """Extend a live lease; returns the new deadline.

        Heartbeating an expired lease raises :class:`ExpiredLease` —
        the worker learns its points were re-queued and should abandon
        the batch rather than double-report it.
        """
        self.expire()
        lease = self._lease(lease_id)
        if not lease.alive:
            raise ExpiredLease(
                f"lease {lease_id!r} expired; its points were re-queued"
            )
        self._commit({"e": "heartbeat", "lease_id": lease_id})
        return lease.deadline

    def expire(self) -> int:
        """Reap overdue leases, re-queueing or poisoning their points."""
        now = self.clock()
        overdue = [lease.lease_id for lease in self.leases.values()
                   if lease.alive and lease.deadline <= now]
        for lease_id in overdue:
            self._commit({"e": "expire", "lease_id": lease_id})
        return len(overdue)

    def _void_lease_points(self, lease_id: str, reason: str | None) -> None:
        """Kill one lease and re-queue (or poison) its unfinished points.

        ``reason`` is ``None`` for an ordinary expiry.  A lease that an
        earlier void already pruned (its job went terminal, so its
        points were all finished) is only counted.
        """
        self.leases_expired += 1
        lease = self.leases.get(lease_id)
        if lease is None:
            return
        lease.alive = False
        if reason is None:
            error = f"lease {lease_id} expired (worker {lease.worker})"
        else:
            error = (f"lease {lease_id} (worker {lease.worker}) "
                     f"voided: {reason}")
        job = self.jobs[lease.job_id]
        for index in lease.indexes:
            point = job.points[index]
            if point.state == LEASED and point.lease_id == lease_id:
                self._requeue_or_poison(job, point, error)
        self._prune_if_terminal(job)

    def _requeue_or_poison(
        self, job: SweepJob, point: SweepPoint, error: str
    ) -> None:
        point.lease_id = None
        point.error = error
        if point.attempts >= job.max_attempts:
            point.state = POISONED
            job.open_points -= 1
            self.points_poisoned += 1
        else:
            point.state = PENDING

    def _prune_if_terminal(self, job: SweepJob) -> None:
        """Drop a terminal job's leases (late completes now 404).

        Until the job is terminal every lease — even an expired one —
        is retained so a slow worker's late ``complete`` still lands;
        once nothing in the job can change, keeping them is a leak.
        """
        if job.open_points:
            return
        stale = [lease_id for lease_id, lease in self.leases.items()
                 if lease.job_id == job.job_id]
        for lease_id in stale:
            del self.leases[lease_id]

    # -- completion --------------------------------------------------

    def complete(
        self,
        lease_id: str,
        index: int,
        manifest: Mapping[str, Any],
        *,
        store: Callable[[Mapping[str, Any]], Any] | None = None,
    ) -> SweepPoint:
        """Accept one point's manifest from the lease holder.

        Validates the manifest against the coordinator's own resolved
        key for the point (:class:`RejectedManifest` on mismatch —
        version-skewed worker).  Idempotent, and accepted even after
        the lease expired: valid finished work is never discarded.

        ``store`` persists the validated manifest *before* the
        completion is journaled: if it raises, nothing is recorded and
        the point stays open, so a journaled ``done`` never names a
        manifest that was lost.  A repeat upload for a point that is
        already done (a worker retrying an upload whose response was
        lost) is acknowledged as it is: no store, no event, no counter.
        """
        self.expire()
        lease = self._lease(lease_id)
        job = self.jobs[lease.job_id]
        point = self._point(job, lease, index)
        if manifest.get("spec") != job.spec.name \
                or manifest.get("key") != point.key:
            self.manifests_rejected += 1
            raise RejectedManifest(
                f"{job.job_id} point {index}: manifest key "
                f"{manifest.get('key')!r} does not match the expected "
                f"{point.key!r} — worker code or parameters out of sync "
                f"with the coordinator"
            )
        if point.state == DONE:
            return point
        if store is not None:
            store(manifest)
        self._commit({"e": "complete", "lease_id": lease_id, "index": index})
        return point

    def fail(self, lease_id: str, index: int, error: str) -> SweepPoint:
        """Record a worker-reported failure for one leased point."""
        self.expire()
        lease = self._lease(lease_id)
        point = self._point(self.jobs[lease.job_id], lease, index)
        if point.state == LEASED and point.lease_id == lease_id:
            self._commit({"e": "fail", "lease_id": lease_id,
                          "index": index, "error": error})
        return point

    def _point(self, job: SweepJob, lease: Lease, index: int) -> SweepPoint:
        if index not in lease.indexes:
            raise QueueError(
                f"point {index} is not part of lease {lease.lease_id!r} "
                f"(leased: {list(lease.indexes)})"
            )
        return job.points[index]

    # -- monitoring --------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "jobs": len(self.jobs),
            "leases_live": len(self.leases),
            "leases_granted": self.leases_granted,
            "leases_expired": self.leases_expired,
            "points_completed": self.points_completed,
            "points_failed": self.points_failed,
            "points_poisoned": self.points_poisoned,
            "manifests_rejected": self.manifests_rejected,
        }

    # -- durability --------------------------------------------------

    _COUNTERS = ("leases_granted", "leases_expired", "points_completed",
                 "points_failed", "points_poisoned", "manifests_rejected")

    def _commit(
        self,
        event: dict[str, Any],
        specs: Callable[[str], ExperimentSpec] | None = None,
    ) -> None:
        """Journal one decision, then apply it as :meth:`restore` would.

        Compaction runs only after a whole event is applied, so every
        snapshot holds a state replay reaches.  ``manifests_rejected``
        (discarded input, not journaled) is the one counter bumped
        outside this path.
        """
        if self.journal is not None:
            self.journal.record(event)
        self._apply_event(event, specs)
        if self.journal is not None and self.journal.compaction_due:
            self.journal.compact(self.dump_state())

    def dump_state(self) -> dict[str, Any]:
        """Full JSON-able queue state (the journal's snapshot payload).

        Lease deadlines are stored as ``remaining_s`` relative to this
        queue's clock, so the dump carries no absolute timestamps.
        """
        now = self.clock()
        return {
            "job_seq": self._job_seq,
            "lease_seq": self._lease_seq,
            "counters": {name: getattr(self, name)
                         for name in self._COUNTERS},
            "jobs": [
                {
                    "job_id": job.job_id,
                    "spec": job.spec.name,
                    "quick": job.quick,
                    "max_attempts": job.max_attempts,
                    "lease_timeout_s": job.lease_timeout_s,
                    "points": [
                        {"index": p.index,
                         "overrides": dict(p.overrides),
                         "params": dict(p.params),
                         "key": p.key, "state": p.state,
                         "attempts": p.attempts,
                         "lease_id": p.lease_id, "error": p.error}
                        for p in job.points
                    ],
                }
                for job in self.jobs.values()
            ],
            "leases": [
                {
                    "lease_id": lease.lease_id,
                    "job_id": lease.job_id,
                    "worker": lease.worker,
                    "indexes": list(lease.indexes),
                    "remaining_s": lease.deadline - now,
                    "lease_timeout_s": lease.lease_timeout_s,
                    "alive": lease.alive,
                }
                for lease in self.leases.values()
            ],
        }

    def _add_job(
        self,
        blob: Mapping[str, Any],
        specs: Callable[[str], ExperimentSpec],
    ) -> None:
        """Decode one job from a ``submit`` event or a snapshot entry."""
        try:
            spec = specs(blob["spec"])
        except KeyError:
            raise ValueError(
                f"journaled state references experiment spec "
                f"{blob['spec']!r}, which this build does not register "
                f"— the state dir was written by different code"
            ) from None
        points = [
            SweepPoint(
                index=p["index"], overrides=dict(p["overrides"]),
                params=dict(p["params"]), key=p["key"], state=p["state"],
                attempts=p.get("attempts", 0), lease_id=p.get("lease_id"),
                error=p.get("error"),
            )
            for p in blob["points"]
        ]
        self.jobs[blob["job_id"]] = SweepJob(
            job_id=blob["job_id"],
            spec=spec,
            quick=blob["quick"],
            points=points,
            max_attempts=blob["max_attempts"],
            lease_timeout_s=blob["lease_timeout_s"],
            open_points=sum(p.state in (PENDING, LEASED) for p in points),
        )
        self._job_seq = max(self._job_seq, _trailing_int(blob["job_id"]))

    def _apply_event(
        self,
        event: Mapping[str, Any],
        specs: Callable[[str], ExperimentSpec] | None,
    ) -> None:
        """Apply one event: the only code that changes queue state.

        Events record the *decisions* the public mutators took before
        committing (who leased what, which point failed), so applying
        is pure bookkeeping — no validation, no choices; the clock is
        read only for lease deadlines — and the same event sequence
        always builds the same state.  ``specs`` resolves a submit
        event's spec name.
        """
        kind = event.get("e")
        if kind == "submit":
            self._add_job(event, specs)
            self.points_completed += sum(p["state"] == DONE
                                         for p in event["points"])
        elif kind == "lease":
            job = self.jobs[event["job_id"]]
            lease = Lease(
                lease_id=event["lease_id"], job_id=job.job_id,
                worker=event["worker"],
                indexes=tuple(event["indexes"]),
                deadline=self.clock() + event["lease_timeout_s"],
                lease_timeout_s=event["lease_timeout_s"],
            )
            for index in lease.indexes:
                point = job.points[index]
                point.state = LEASED
                point.lease_id = lease.lease_id
                point.attempts += 1
            self.leases[lease.lease_id] = lease
            self.leases_granted += 1
            self._lease_seq = max(self._lease_seq,
                                  _trailing_int(lease.lease_id))
        elif kind == "heartbeat":
            lease = self.leases[event["lease_id"]]
            lease.deadline = self.clock() + lease.lease_timeout_s
        elif kind == "complete":
            lease = self.leases[event["lease_id"]]
            job = self.jobs[lease.job_id]
            point = job.points[event["index"]]
            if point.state != DONE:
                if point.state != POISONED:
                    job.open_points -= 1
                point.state = DONE
                point.lease_id = None
                point.error = None
                self.points_completed += 1
            self._prune_if_terminal(job)
        elif kind == "fail":
            lease = self.leases[event["lease_id"]]
            job = self.jobs[lease.job_id]
            self.points_failed += 1
            self._requeue_or_poison(job, job.points[event["index"]],
                                    event["error"])
            self._prune_if_terminal(job)
        elif kind == "expire":
            self._void_lease_points(event["lease_id"], None)
        else:
            raise ValueError(f"unknown journal event kind {kind!r}")

    @classmethod
    def restore(
        cls,
        journal,
        *,
        specs: Callable[[str], ExperimentSpec],
        clock: Callable[[], float] = time.monotonic,
        lease_timeout_s: float = 60.0,
        max_attempts: int = 3,
        expire_outstanding: bool = True,
        compact: bool = True,
    ) -> "JobQueue":
        """Rebuild a queue from a state dir and attach the journal.

        Loads the snapshot, replays the journal tail, conservatively
        expires leases that were outstanding at crash time
        (``expire_outstanding``), then compacts the reconstructed state
        into a fresh snapshot so the next restart starts from it.  A
        fresh state dir yields an empty queue — ``restore`` doubles as
        "open or create".

        Restored deadlines cannot be trusted (the coordinator may have
        been down past any timeout); a worker that is in fact alive
        re-leases, or lands finished points as late completes.

        ``specs`` resolves a spec name to its registered
        :class:`~repro.runtime.spec.ExperimentSpec` (usually
        :func:`repro.runtime.spec.get_spec`).  A snapshot or event this
        build cannot apply — one naming a spec it does not register, a
        lease of an unknown job or point, a missing field — raises
        :class:`~repro.runtime.journal.JournalError` naming the file
        (and the event's ``n``).
        """
        state, events = journal.load()
        queue = cls(clock=clock, lease_timeout_s=lease_timeout_s,
                    max_attempts=max_attempts)
        if state is not None:
            try:
                queue._job_seq = state["job_seq"]
                queue._lease_seq = state["lease_seq"]
                for name in cls._COUNTERS:
                    setattr(queue, name, state["counters"][name])
                for blob in state["jobs"]:
                    queue._add_job(blob, specs)
                now = clock()
                for blob in state["leases"]:
                    # older snapshots also carry a per-lease ``done``
                    # set that nothing reads
                    queue.leases[blob["lease_id"]] = Lease(
                        lease_id=blob["lease_id"], job_id=blob["job_id"],
                        worker=blob["worker"],
                        indexes=tuple(blob["indexes"]),
                        deadline=now + blob["remaining_s"],
                        lease_timeout_s=blob["lease_timeout_s"],
                        alive=blob["alive"],
                    )
            except Exception as exc:
                raise JournalError(
                    f"{journal.snapshot_path}: cannot restore the "
                    f"snapshot: {exc!r}"
                ) from exc
        for event in events:
            try:
                queue._apply_event(event, specs)
            except Exception as exc:
                raise JournalError(
                    f"{journal.journal_path}: cannot replay event "
                    f"n={event['n']}: {exc!r}"
                ) from exc
        if expire_outstanding:
            try:
                for lease_id in [lease.lease_id
                                 for lease in queue.leases.values()
                                 if lease.alive]:
                    queue._void_lease_points(lease_id,
                                             "coordinator restart")
            except Exception as exc:  # only a snapshot lease can fail here
                raise JournalError(
                    f"{journal.snapshot_path}: cannot void the restored "
                    f"leases: {exc!r}"
                ) from exc
        queue.journal = journal
        if compact:
            journal.compact(queue.dump_state())
        return queue


def _trailing_int(ident: str) -> int:
    """The numeric tail of a ``job-N`` / ``lease-N`` id (0 if none)."""
    try:
        return int(ident.rsplit("-", 1)[-1])
    except ValueError:
        return 0
