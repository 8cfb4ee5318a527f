"""Durable coordinator state: an fsync'd event log plus snapshots.

``mbs-repro serve --state-dir DIR`` keeps the work queue's bookkeeping
(:class:`~repro.runtime.queue.JobQueue`) recoverable across coordinator
crashes.  The layout under ``DIR`` is two files:

``journal.jsonl``
    One JSON object per line, appended and fsync'd before the mutation
    it records is acknowledged to any worker.  Events are the queue's
    own transitions — ``submit`` / ``lease`` / ``heartbeat`` /
    ``complete`` / ``fail`` / ``expire`` — each tagged with a
    monotonically increasing sequence number ``n``.

``snapshot.json``
    A periodic full dump of the queue state
    (:meth:`~repro.runtime.queue.JobQueue.dump_state`), written
    atomically (temp file + rename) and stamped with the sequence
    number of the last event it folds in.  After a snapshot lands the
    journal is truncated, so neither file grows without bound.

Recovery (:meth:`~repro.runtime.queue.JobQueue.restore`) loads the
snapshot, replays every journal event with ``n`` past the snapshot's
stamp, and conservatively expires any lease that was outstanding at
crash time — its points re-queue under the normal retry budget.  The
sequence-number stamp makes the compaction crash-safe: if the process
dies between the snapshot rename and the journal truncation, replay
simply skips the already-folded events.

A torn final line (the crash happened mid-append) is ignored; a corrupt
line anywhere *before* the tail — or an unreadable snapshot — raises
:class:`JournalError` loudly rather than restoring a silently wrong
queue.
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

#: version stamp of both the snapshot envelope and the event lines
JOURNAL_SCHEMA = 1


class JournalError(RuntimeError, ValueError):
    """The on-disk state is unreadable or internally inconsistent.

    Also a ``ValueError``: like a malformed wire body, a state dir is
    input that this build cannot read.
    """


class Journal:
    """Append-only event log with periodic compacted snapshots.

    ``fsync=False`` trades crash durability for speed (tests, benches
    that want to isolate serialization cost); the default always
    syncs, so an acknowledged event survives power loss.
    """

    def __init__(self, state_dir: str | os.PathLike, *,
                 snapshot_every: int = 256, fsync: bool = True):
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every: expected a positive integer, got "
                f"{snapshot_every!r}"
            )
        self.root = Path(state_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.snapshot_path = self.root / "snapshot.json"
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self._fh = None
        self._seq = 0
        self._since_compact = 0
        # monitoring counters
        self.events_recorded = 0
        self.compactions = 0

    # -- reading -------------------------------------------------------

    def load(self) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """Read ``(snapshot_state, events newer than the snapshot)``.

        Returns ``(None, [])`` for a fresh state dir.  Also advances
        the internal sequence counter past everything on disk, so a
        journal that is loaded and then written to never reuses a
        sequence number.
        """
        state = None
        last_n = 0
        if self.snapshot_path.exists():
            try:
                snap = json.loads(self.snapshot_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise JournalError(
                    f"{self.snapshot_path}: unreadable snapshot: {exc}"
                ) from None
            if not isinstance(snap, dict) \
                    or snap.get("schema") != JOURNAL_SCHEMA \
                    or not isinstance(snap.get("n"), int) \
                    or not isinstance(snap.get("state"), dict):
                raise JournalError(
                    f"{self.snapshot_path}: not a schema-"
                    f"{JOURNAL_SCHEMA} queue snapshot"
                )
            state = snap["state"]
            last_n = snap["n"]
        events = self._read_events(last_n)
        self._seq = max(self._seq, last_n)
        return state, events

    def _read_events(self, last_n: int) -> list[dict[str, Any]]:
        try:
            raw = self.journal_path.read_text(encoding="utf-8",
                                              errors="replace")
        except FileNotFoundError:
            return []
        events = []
        prev_n = 0
        lines = raw.split("\n")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                # A torn tail write is the normal crash signature and
                # is dropped; garbage *before* intact events is not.
                if any(tail.strip() for tail in lines[lineno:]):
                    raise JournalError(
                        f"{self.journal_path}:{lineno}: corrupt event "
                        f"line before end of journal"
                    ) from None
                break
            n = event.get("n") if isinstance(event, dict) else None
            if not isinstance(n, int) or n <= prev_n:
                raise JournalError(
                    f"{self.journal_path}:{lineno}: event has no valid "
                    f"sequence number above {prev_n}: {line[:80]!r}"
                )
            prev_n = n
            self._seq = max(self._seq, n)
            if n <= last_n:
                continue  # already folded into the snapshot
            events.append(event)
        return events

    # -- writing -------------------------------------------------------

    def record(self, event: Mapping[str, Any]) -> int:
        """Append one event durably; returns its sequence number."""
        self._seq += 1
        line = json.dumps({"n": self._seq, **event}, sort_keys=True)
        if self._fh is None:
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._since_compact += 1
        self.events_recorded += 1
        return self._seq

    @property
    def compaction_due(self) -> bool:
        return self._since_compact >= self.snapshot_every

    def compact(self, state: Mapping[str, Any]) -> None:
        """Snapshot ``state`` (as of the last recorded event) atomically,
        then truncate the journal.

        Crash-safe in both halves: the snapshot lands via temp file +
        rename, and a crash before the truncation only leaves events
        the snapshot already covers — replay skips them by sequence
        number.
        """
        blob = json.dumps(
            {"schema": JOURNAL_SCHEMA, "n": self._seq, "state": state},
            sort_keys=True,
        )
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.journal_path, "w", encoding="utf-8")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
            self._sync_dir()
        self._since_compact = 0
        self.compactions += 1

    def _sync_dir(self) -> None:
        """Best-effort fsync of the state dir (rename durability)."""
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
