"""Coordinator durability: journal mechanics and crash-recovery replay.

Two layers under test:

- :class:`repro.runtime.journal.Journal` — the on-disk format: fsync'd
  append, sequence numbers, compaction, torn-tail tolerance, loud
  failure on real corruption.
- :meth:`repro.runtime.queue.JobQueue.restore` — replay: a queue
  rebuilt from the journal must match the live queue it mirrors, for
  arbitrary operation sequences (randomized property tests below).

Everything runs on a fake clock and tmp dirs — no coordinator process.
The kill-matrix e2e that SIGKILLs a real coordinator lives in
``test_serve_jobs.py``.
"""

import json
import random

import pytest

from repro.runtime.cache import spec_fingerprint
from repro.runtime.journal import Journal, JournalError
from repro.runtime.queue import (
    DONE,
    LEASED,
    PENDING,
    POISONED,
    JobQueue,
    RejectedManifest,
)
from repro.runtime.spec import ExperimentSpec, expand_grid


def _produce(x=0, y=1):
    return {"value": x * 10 + y}


SPEC = ExperimentSpec(
    name="jtest",
    title="journal test spec",
    produce=_produce,
    sweep={"x": (0, 1), "y": (1, 2)},
    artifact=("value",),
)

GRID = expand_grid(SPEC.sweep)  # 4 points, deterministic order


def get_test_spec(name):
    if name != SPEC.name:
        raise KeyError(name)
    return SPEC


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def manifest_for(point):
    return {
        "spec": SPEC.name,
        "version": SPEC.version,
        "key": point.key,
        "fingerprint": spec_fingerprint(SPEC),
        "params": point.params,
        "artifact": _produce(**point.params),
        "rendered": "",
    }


def make_journaled_queue(tmp_path, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("lease_timeout_s", 10.0)
    kwargs.setdefault("max_attempts", 3)
    journal = Journal(tmp_path / "state", fsync=False,
                      snapshot_every=kwargs.pop("snapshot_every", 10_000))
    queue = JobQueue(clock=clock, journal=journal, **kwargs)
    return queue, clock, journal


def restore_mirror(tmp_path, clock):
    """Rebuild the queue from disk exactly as journaled (no expiry)."""
    return JobQueue.restore(
        Journal(tmp_path / "state", fsync=False),
        specs=get_test_spec, clock=clock,
        expire_outstanding=False, compact=False,
    )


def normalized(dump):
    """Dump minus lease deadlines.

    Replay re-derives each lease deadline from the *replay-time* clock,
    so ``remaining_s`` legitimately differs between a live queue and
    its reconstruction; a real restore voids every live lease anyway.
    Everything else must match exactly.
    """
    out = json.loads(json.dumps(dump))  # deep copy + JSON-safety check
    for lease in out["leases"]:
        lease["remaining_s"] = None
    return out


# ---------------------------------------------------------------------------
# Journal file format


class TestJournalFormat:
    def test_fresh_dir_loads_empty(self, tmp_path):
        journal = Journal(tmp_path / "state")
        assert journal.load() == (None, [])

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            Journal(tmp_path, snapshot_every=0)

    def test_record_then_load_round_trips_in_order(self, tmp_path):
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        journal.record({"e": "b"})
        journal.close()
        _, events = Journal(tmp_path).load()
        assert [(e["n"], e["e"]) for e in events] == [(1, "a"), (2, "b")]

    def test_sequence_continues_after_reload(self, tmp_path):
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        journal.close()
        reopened = Journal(tmp_path, fsync=False)
        reopened.load()
        assert reopened.record({"e": "b"}) == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        journal.close()
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"n": 2, "e": "tr')  # crash mid-append
        _, events = Journal(tmp_path).load()
        assert [e["e"] for e in events] == ["a"]

    def test_corrupt_line_before_tail_is_loud(self, tmp_path):
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        journal.record({"e": "b"})
        journal.close()
        lines = journal.journal_path.read_text().splitlines()
        lines[0] = lines[0][:5]  # garbage *before* an intact event
        journal.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt event line"):
            Journal(tmp_path).load()

    def test_event_without_sequence_number_is_loud(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text('{"e": "a"}\n')
        with pytest.raises(JournalError, match="sequence number"):
            Journal(tmp_path).load()

    def test_unreadable_snapshot_is_loud(self, tmp_path):
        (tmp_path / "snapshot.json").write_text("{nope")
        with pytest.raises(JournalError, match="unreadable snapshot"):
            Journal(tmp_path).load()

    def test_wrong_schema_snapshot_is_loud(self, tmp_path):
        (tmp_path / "snapshot.json").write_text(
            json.dumps({"schema": 999, "n": 1, "state": {}})
        )
        with pytest.raises(JournalError, match="schema"):
            Journal(tmp_path).load()

    def test_compact_truncates_journal(self, tmp_path):
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        journal.compact({"marker": 1})
        journal.close()
        state, events = Journal(tmp_path).load()
        assert state == {"marker": 1}
        assert events == []
        assert journal.journal_path.read_text() == ""

    def test_crash_between_snapshot_and_truncate_is_benign(self, tmp_path):
        # simulate: snapshot renamed into place, but the old journal
        # (events the snapshot already folds in) survived the crash
        journal = Journal(tmp_path, fsync=False)
        journal.record({"e": "a"})
        stale = journal.journal_path.read_text()
        journal.compact({"marker": 1})
        journal.record({"e": "b"})
        journal.close()
        fresh = journal.journal_path.read_text()
        journal.journal_path.write_text(stale + fresh)
        state, events = Journal(tmp_path).load()
        assert state == {"marker": 1}
        assert [e["e"] for e in events] == ["b"]  # "a" skipped by n

    def test_compaction_due_after_snapshot_every_events(self, tmp_path):
        journal = Journal(tmp_path, fsync=False, snapshot_every=2)
        journal.record({"e": "a"})
        assert not journal.compaction_due
        journal.record({"e": "b"})
        assert journal.compaction_due
        journal.compact({})
        assert not journal.compaction_due
        assert journal.compactions == 1


# ---------------------------------------------------------------------------
# Queue replay


class TestQueueReplay:
    def test_replay_matches_live_through_a_full_drain(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        _, lease, points = queue.lease("w1", max_points=2)
        queue.complete(lease.lease_id, points[0].index,
                       manifest_for(points[0]))
        queue.fail(lease.lease_id, points[1].index, "boom")
        mirror = restore_mirror(tmp_path, clock)
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())

    def test_replay_reproduces_expiry_and_poison(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path, max_attempts=1)
        queue.submit(SPEC, GRID[:2])
        queue.lease("w1", max_points=2)
        clock.advance(11.0)
        queue.expire()
        assert queue.points_poisoned == 2
        mirror = restore_mirror(tmp_path, clock)
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())
        assert mirror.points_poisoned == 2

    def test_replay_reproduces_pre_completed_submit_points(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        hits = {}

        def warm(point):
            if point.index == 0:
                return hits.setdefault(0, manifest_for(point))
            return None

        queue.submit(SPEC, GRID[:2], already_done=warm)
        mirror = restore_mirror(tmp_path, clock)
        assert mirror.jobs["job-1"].points[0].state == DONE
        assert mirror.points_completed == 1
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())

    def test_snapshot_plus_tail_equals_pure_replay(self, tmp_path):
        # low snapshot_every forces mid-run compactions, so restore
        # exercises the load-snapshot-then-replay-tail path
        queue, clock, journal = make_journaled_queue(
            tmp_path, snapshot_every=3)
        queue.submit(SPEC, GRID)
        while (granted := queue.lease("w", max_points=1)) is not None:
            _, lease, points = granted
            queue.complete(lease.lease_id, points[0].index,
                           manifest_for(points[0]))
        assert journal.compactions >= 1
        mirror = restore_mirror(tmp_path, clock)
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())

    def test_one_expire_call_voids_two_leases_of_one_job(self, tmp_path):
        # voiding the first lease poisons the job's last open point, so
        # the job turns terminal and the second lease is pruned before
        # its own expire event applies
        queue, clock, _ = make_journaled_queue(tmp_path, max_attempts=1)
        job = queue.submit(SPEC, GRID[:2])
        queue.lease("w1")
        _, second, points = queue.lease("w2")
        queue.complete(second.lease_id, points[0].index,
                       manifest_for(points[0]))
        clock.advance(11.0)
        assert queue.expire() == 2
        assert queue.leases_expired == 2
        assert queue.leases == {}
        assert job.state == "failed"
        mirror = restore_mirror(tmp_path, clock)
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_replay_matches_live_for_random_histories(self, tmp_path, seed):
        """Property: replay(journal) == live queue, whatever happened.

        Drives a journaled queue through a random mix of submits (some
        rejected for an unknown axis, the host's 400), partial leases,
        completes, fails, heartbeats, and clock jumps past the lease
        timeout, then checks the reconstruction after every few steps —
        i.e. for arbitrary event-log prefixes.
        """
        rng = random.Random(seed)
        queue, clock, _ = make_journaled_queue(
            tmp_path, max_attempts=2,
            snapshot_every=rng.choice([2, 5, 10_000]))
        live = []  # (lease, points) with work possibly outstanding
        uploaded = []  # (lease, point) pairs completed once already
        for step in range(40):
            op = rng.random()
            if op < 0.15:
                grid = GRID[:rng.randrange(1, len(GRID) + 1)]
                if rng.random() < 0.3:  # rejected: must record nothing
                    with pytest.raises(KeyError):
                        queue.submit(SPEC, grid + [{"z": 1}])
                else:
                    queue.submit(SPEC, grid)
            elif op < 0.45:
                granted = queue.lease(f"w{rng.randrange(3)}",
                                      max_points=rng.randrange(1, 3))
                if granted is not None:
                    live.append((granted[1], list(granted[2])))
            elif op < 0.75 and live:
                lease, points = rng.choice(live)
                if points:
                    point = points.pop()
                    try:
                        if rng.random() < 0.7:
                            queue.complete(lease.lease_id, point.index,
                                           manifest_for(point))
                            uploaded.append((lease, point))
                        else:
                            queue.fail(lease.lease_id, point.index,
                                       "injected")
                    except Exception:
                        pass  # lease expired mid-history: fine
            elif op < 0.8 and live:
                try:
                    queue.heartbeat(rng.choice(live)[0].lease_id)
                except Exception:
                    pass
            elif op < 0.9 and uploaded:
                # a worker retrying an upload whose response was lost
                lease, point = rng.choice(uploaded)
                try:
                    queue.complete(lease.lease_id, point.index,
                                   manifest_for(point))
                except Exception:
                    pass  # its lease was pruned with a finished job
            else:
                clock.advance(rng.choice([1.0, 11.0]))
                queue.expire()
            if step % 7 == 0:
                mirror = restore_mirror(tmp_path, clock)
                assert normalized(mirror.dump_state()) \
                    == normalized(queue.dump_state()), f"step {step}"
        mirror = restore_mirror(tmp_path, clock)
        assert normalized(mirror.dump_state()) \
            == normalized(queue.dump_state())


# ---------------------------------------------------------------------------
# State dirs written by earlier code


#: ``snapshot.json`` as the queue wrote it while leases still carried a
#: write-only ``done`` set: one job over GRID (max_attempts 2, lease
#: timeout 10 s), point 0 done through lease-1, points 1 and 2 leased.
OLD_SNAPSHOT = (
    '{"n": 4, "schema": 1, "state": {"counters": {"leases_expired": 0, '
    '"leases_granted": 2, "manifests_rejected": 0, "points_completed": '
    '1, "points_failed": 0, "points_poisoned": 0}, "job_seq": 1, '
    '"jobs": [{"job_id": "job-1", "lease_timeout_s": 10.0, '
    '"max_attempts": 2, "points": [{"attempts": 1, "error": null, '
    '"index": 0, "key": "27453928b18f9e0ae257e82a", "lease_id": null, '
    '"overrides": {"x": 0, "y": 1}, "params": {"x": 0, "y": 1}, '
    '"state": "done"}, {"attempts": 1, "error": null, "index": 1, '
    '"key": "696b2888c9e865447759101c", "lease_id": "lease-1", '
    '"overrides": {"x": 0, "y": 2}, "params": {"x": 0, "y": 2}, '
    '"state": "leased"}, {"attempts": 1, "error": null, "index": 2, '
    '"key": "ec9a3fd95859b6edead0a000", "lease_id": "lease-2", '
    '"overrides": {"x": 1, "y": 1}, "params": {"x": 1, "y": 1}, '
    '"state": "leased"}, {"attempts": 0, "error": null, "index": 3, '
    '"key": "b06e1df3f652f1974c7a1630", "lease_id": null, "overrides": '
    '{"x": 1, "y": 2}, "params": {"x": 1, "y": 2}, "state": '
    '"pending"}], "quick": false, "spec": "jtest"}], "lease_seq": 2, '
    '"leases": [{"alive": true, "done": [0], "indexes": [0, 1], '
    '"job_id": "job-1", "lease_id": "lease-1", "lease_timeout_s": 10.0, '
    '"remaining_s": 10.0, "worker": "w1"}, {"alive": true, "done": [], '
    '"indexes": [2], "job_id": "job-1", "lease_id": "lease-2", '
    '"lease_timeout_s": 10.0, "remaining_s": 10.0, "worker": "w2"}]}}'
)

#: ``journal.jsonl`` after that snapshot, up to the crash: lease-1
#: heartbeats, point 2 fails, lease-2 expires, lease-3 takes point 2,
#: lease-1 completes point 1 and expires.  lease-3 is still live.
OLD_JOURNAL = (
    '{"e": "heartbeat", "lease_id": "lease-1", "n": 5}\n'
    '{"e": "fail", "error": "boom", "index": 2, "lease_id": "lease-2", '
    '"n": 6}\n'
    '{"e": "expire", "lease_id": "lease-2", "n": 7}\n'
    '{"e": "lease", "indexes": [2], "job_id": "job-1", "lease_id": '
    '"lease-3", "lease_timeout_s": 10.0, "n": 8, "worker": "w3"}\n'
    '{"e": "complete", "index": 1, "lease_id": "lease-1", "n": 9}\n'
    '{"e": "expire", "lease_id": "lease-1", "n": 10}\n'
)


#: ``journal.jsonl`` as the queue wrote it while a repeat upload still
#: journaled a second ``complete``: one job over GRID[:2], both points
#: leased to lease-1, point 0 uploaded twice, then point 1.
REPEAT_JOURNAL = (
    '{"e": "submit", "job_id": "job-1", "lease_timeout_s": 10.0, '
    '"max_attempts": 3, "n": 1, "points": [{"index": 0, "key": '
    '"9c9fadf091c9fbaeec158448", "overrides": {"x": 0, "y": 1}, '
    '"params": {"x": 0, "y": 1}, "state": "pending"}, {"index": 1, '
    '"key": "18c7cb903908733ab4059c0a", "overrides": {"x": 0, "y": 2}, '
    '"params": {"x": 0, "y": 2}, "state": "pending"}], "quick": false, '
    '"spec": "jtest"}\n'
    '{"e": "lease", "indexes": [0, 1], "job_id": "job-1", "lease_id": '
    '"lease-1", "lease_timeout_s": 10.0, "n": 2, "worker": "w1"}\n'
    '{"e": "complete", "index": 0, "lease_id": "lease-1", "n": 3}\n'
    '{"e": "complete", "index": 0, "lease_id": "lease-1", "n": 4}\n'
    '{"e": "complete", "index": 1, "lease_id": "lease-1", "n": 5}\n'
)


class TestRepeatUpload:
    def test_repeat_complete_records_nothing(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID[:2])
        _, lease, points = queue.lease("w1", max_points=2)
        stored = []
        queue.complete(lease.lease_id, points[0].index,
                       manifest_for(points[0]), store=stored.append)
        journal = (tmp_path / "state" / "journal.jsonl").read_bytes()
        stats = queue.stats()
        again = queue.complete(lease.lease_id, points[0].index,
                               manifest_for(points[0]), store=stored.append)
        assert (again.state, again.key) == (DONE, points[0].key)
        assert len(stored) == 1
        assert (tmp_path / "state" / "journal.jsonl").read_bytes() == journal
        assert queue.stats() == stats

    def test_repeat_with_a_wrong_key_is_still_rejected(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID[:2])
        _, lease, points = queue.lease("w1", max_points=2)
        queue.complete(lease.lease_id, points[0].index,
                       manifest_for(points[0]))
        with pytest.raises(RejectedManifest):
            queue.complete(lease.lease_id, points[0].index,
                           {**manifest_for(points[0]), "key": "x"})
        assert queue.manifests_rejected == 1

    def test_restores_a_journaled_repeat_complete(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "journal.jsonl").write_text(REPEAT_JOURNAL)
        queue = JobQueue.restore(
            Journal(state, fsync=False), specs=get_test_spec,
            clock=FakeClock(), expire_outstanding=False, compact=False)
        job = queue.jobs["job-1"]
        assert [p.state for p in job.points] == [DONE, DONE]
        assert job.state == "done"
        assert queue.points_completed == 2
        assert queue.leases == {}


class TestOldStateDir:
    def restore(self, tmp_path, **kwargs):
        state = tmp_path / "state"
        state.mkdir()
        (state / "snapshot.json").write_text(OLD_SNAPSHOT)
        (state / "journal.jsonl").write_text(OLD_JOURNAL)
        return JobQueue.restore(
            Journal(state, fsync=False), specs=get_test_spec,
            clock=FakeClock(), max_attempts=2, **kwargs)

    @staticmethod
    def points(queue):
        return [(p.state, p.attempts, p.lease_id, p.error)
                for p in queue.jobs["job-1"].points]

    def test_replays_to_the_queue_at_the_crash(self, tmp_path):
        queue = self.restore(tmp_path, expire_outstanding=False,
                             compact=False)
        assert self.points(queue) == [
            (DONE, 1, None, None),
            (DONE, 1, None, None),
            (LEASED, 2, "lease-3", "boom"),
            (PENDING, 0, None, None),
        ]
        assert {lid: lease.alive for lid, lease in queue.leases.items()} \
            == {"lease-1": False, "lease-2": False, "lease-3": True}
        assert queue.stats() == {
            "jobs": 1, "leases_live": 3, "leases_granted": 3,
            "leases_expired": 2, "points_completed": 2,
            "points_failed": 1, "points_poisoned": 0,
            "manifests_rejected": 0,
        }
        assert (queue._job_seq, queue._lease_seq) == (1, 3)

    def test_restart_voids_the_live_lease_and_drops_done(self, tmp_path):
        queue = self.restore(tmp_path)
        voided = "lease lease-3 (worker w3) voided: coordinator restart"
        assert self.points(queue)[2] == (POISONED, 2, None, voided)
        assert queue.leases_expired == 3
        assert not any(lease.alive for lease in queue.leases.values())
        snap = json.loads(queue.journal.snapshot_path.read_text())
        assert all("done" not in lease for lease in snap["state"]["leases"])
        # the restored queue keeps working: the last point drains
        job, lease, points = queue.lease("w4", max_points=4)
        assert [p.index for p in points] == [3]
        queue.complete(lease.lease_id, 3, manifest_for(points[0]))
        assert job.state == "failed" and queue.all_terminal
        assert queue.leases == {}
        assert queue.lease("w4") is None
        assert queue.submit(SPEC, GRID[:1]).job_id == "job-2"


# ---------------------------------------------------------------------------
# Restore policy


class TestRestorePolicy:
    def test_fresh_state_dir_yields_working_empty_queue(self, tmp_path):
        journal = Journal(tmp_path / "state", fsync=False)
        queue = JobQueue.restore(journal, specs=get_test_spec,
                                 clock=FakeClock())
        assert queue.jobs == {}
        assert queue.journal is journal
        queue.submit(SPEC, GRID[:1])  # journaling attached and live
        assert journal.events_recorded >= 1

    def test_outstanding_leases_voided_and_points_requeued(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        _, lease, points = queue.lease("w1", max_points=2)
        queue.complete(lease.lease_id, points[0].index,
                       manifest_for(points[0]))
        restored = JobQueue.restore(
            Journal(tmp_path / "state", fsync=False),
            specs=get_test_spec, clock=clock,
        )
        job = restored.jobs["job-1"]
        assert job.points[0].state == DONE  # finished work survives
        assert job.points[1].state == PENDING  # in-flight re-queued
        assert job.points[1].attempts == 1  # crash cost the attempt
        assert restored.leases_expired == queue.leases_expired + 1
        # the dead lease is retained for late completes while running
        assert not restored.leases[lease.lease_id].alive

    def test_restore_poisons_point_out_of_attempts(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path, max_attempts=1)
        queue.submit(SPEC, GRID[:1])
        queue.lease("w1")
        restored = JobQueue.restore(
            Journal(tmp_path / "state", fsync=False),
            specs=get_test_spec, clock=clock,
        )
        point = restored.jobs["job-1"].points[0]
        assert point.state == POISONED
        assert "coordinator restart" in point.error
        assert restored.leases == {}  # terminal job: leases pruned

    def test_restore_compacts_into_fresh_snapshot(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        journal = Journal(tmp_path / "state", fsync=False)
        JobQueue.restore(journal, specs=get_test_spec, clock=clock)
        assert journal.snapshot_path.exists()
        assert journal.journal_path.read_text() == ""

    def test_unknown_spec_fails_loudly(self, tmp_path):
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID[:1])

        def no_specs(name):
            raise KeyError(name)

        with pytest.raises(ValueError, match="does not register"):
            JobQueue.restore(Journal(tmp_path / "state", fsync=False),
                             specs=no_specs, clock=clock)

    def _malformed(self, tmp_path, edit):
        """One fig-style submit and one lease, journaled; then ``edit``
        rewrites the event lines and restore must raise JournalError."""
        queue, clock, journal = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        queue.lease("w1")
        journal.close()
        events = [json.loads(line) for line
                  in journal.journal_path.read_text().splitlines()]
        edit(events)
        journal.journal_path.write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(JournalError) as err:
            JobQueue.restore(Journal(tmp_path / "state", fsync=False),
                             specs=get_test_spec, clock=clock)
        return str(err.value)

    def test_event_missing_a_field_is_a_journal_error(self, tmp_path):
        message = self._malformed(
            tmp_path, lambda events: events[1].pop("job_id"))
        assert "journal.jsonl: cannot replay event n=2" in message
        assert "KeyError('job_id')" in message

    def test_event_before_its_submit_is_a_journal_error(self, tmp_path):
        message = self._malformed(tmp_path, lambda events: events.reverse())
        assert "no valid sequence number above 2" in message

    def test_lease_of_a_point_that_is_not_there_is_a_journal_error(
            self, tmp_path):
        message = self._malformed(
            tmp_path, lambda events: events[1].update(indexes=[999]))
        assert "cannot replay event n=2: IndexError" in message

    def test_snapshot_lease_of_an_unknown_job_is_a_journal_error(
            self, tmp_path):
        queue, clock, journal = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        queue.lease("w1")
        journal.compact(queue.dump_state())
        journal.close()
        snap = json.loads(journal.snapshot_path.read_text())
        snap["state"]["leases"][0]["job_id"] = "job-9"
        journal.snapshot_path.write_text(json.dumps(snap))
        with pytest.raises(JournalError,
                           match=r"snapshot\.json: cannot void the restored "
                                 r"leases: KeyError\('job-9'\)"):
            JobQueue.restore(Journal(tmp_path / "state", fsync=False),
                             specs=get_test_spec, clock=clock)

    def test_restored_queue_drains_to_byte_identical_manifests(
            self, tmp_path):
        # the end-to-end invariant in miniature: crash mid-drain,
        # restore, finish — completes validate against journaled keys
        queue, clock, _ = make_journaled_queue(tmp_path)
        queue.submit(SPEC, GRID)
        _, lease, points = queue.lease("w1", max_points=2)
        queue.complete(lease.lease_id, points[0].index,
                       manifest_for(points[0]))
        restored = JobQueue.restore(
            Journal(tmp_path / "state", fsync=False),
            specs=get_test_spec, clock=clock,
        )
        while (granted := restored.lease("w2", max_points=4)) is not None:
            _, lease, points = granted
            for point in points:
                restored.complete(lease.lease_id, point.index,
                                  manifest_for(point))
        assert restored.all_terminal
        job = restored.jobs["job-1"]
        assert [p.state for p in job.points] == [DONE] * len(GRID)
        assert restored.points_completed == len(GRID)
