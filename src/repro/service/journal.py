"""Write-ahead job journal: crash durability for the HTTP service.

Until now a crashed service lost every queued and in-flight job — the
queue was pure memory.  This module closes that hole with the classic
write-ahead shape: every job lifecycle transition is appended to an
fsync'd, checksummed log *before* the service acknowledges it, and a
restarted service replays the log to rebuild its state — finished jobs
come back with their exact wire-form results, accepted-but-unfinished
jobs are re-enqueued and run again.

Record format (one record per line, text)::

    W1 <crc32-hex8> <compact-json-payload>\n

The payload is one of four events (written by
:class:`~repro.service.queue.JobQueue`):

``accepted``   ``{"event": "accepted", "job": id, "request": {...}}``
``started``    ``{"event": "started", "job": id}``
``finished``   ``{"event": "finished", "job": id, "state": ...,
               "result": {...}, "error": ..., "elapsed": ...}``
``shutdown``   ``{"event": "shutdown"}`` — the clean-shutdown marker; a
               replay that ends on it re-enqueues nothing.

Records carry no timestamps — replay must be deterministic, and the
service layer is a clock-free zone (lint rule ``WC01``).

Torn and corrupt tails are expected, not fatal: a ``kill -9`` can land
mid-``write``, so :func:`recover` accepts every record up to the first
unparsable/checksum-failing one, *truncates the file there*, and
discards the rest — the next append continues from a clean boundary.
A record that was never fully fsync'd was never acknowledged to a
client, so truncating it loses nothing that was promised.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.annotations import guarded_by
from repro.core.exceptions import ReproError
from repro.testing.faults import fault_point

#: Record-format magic; bump on any incompatible layout change.
MAGIC = "W1"

#: Lifecycle event names (the queue writes them, :func:`recover` folds them).
EVENT_ACCEPTED = "accepted"
EVENT_STARTED = "started"
EVENT_FINISHED = "finished"
EVENT_SHUTDOWN = "shutdown"


class JournalError(ReproError):
    """The journal could not be written (the service degrades to 503)."""


def encode_record(payload: dict) -> bytes:
    """One serialized journal record (line form, checksum included)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    raw = body.encode("utf-8")
    return f"{MAGIC} {zlib.crc32(raw):08x} ".encode("ascii") + raw + b"\n"


def decode_record(line: bytes) -> dict | None:
    """Parse one journal line; None when torn or corrupt."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the write never completed
    parts = line[:-1].split(b" ", 2)
    if len(parts) != 3 or parts[0] != MAGIC.encode("ascii"):
        return None
    try:
        checksum = int(parts[1], 16)
    except ValueError:
        return None
    if zlib.crc32(parts[2]) != checksum:
        return None
    try:
        payload = json.loads(parts[2])
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


@dataclass
class ReplayedJob:
    """One job reconstructed from the journal."""

    job_id: int
    request: dict
    #: Terminal state name, or None when the job never finished.
    state: str | None = None
    result: dict | None = None
    error: str | None = None
    elapsed: float = 0.0

    @property
    def finished(self) -> bool:
        return self.state is not None


@dataclass
class JournalReplay:
    """Everything :func:`recover` reconstructed from a journal file."""

    #: Jobs with a journaled terminal outcome, by ascending job id.
    finished: list[ReplayedJob] = field(default_factory=list)
    #: Accepted-but-unfinished jobs to re-enqueue, by ascending job id.
    unfinished: list[ReplayedJob] = field(default_factory=list)
    #: First job id a restarted service may hand out.
    next_job_id: int = 1
    #: Whether the journal ends on a clean-shutdown marker.
    clean_shutdown: bool = False
    #: Valid records accepted during replay.
    records: int = 0
    #: Bytes cut off the tail (torn/corrupt records).
    truncated_bytes: int = 0


def recover(path: Path) -> JournalReplay:
    """Replay a journal file, truncating any torn/corrupt tail in place.

    Safe on a missing or empty file (returns an empty replay).  After
    this returns, the file ends on a valid record boundary, so a
    :class:`JobJournal` opened for append continues cleanly.
    """
    replay = JournalReplay()
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return replay
    jobs: dict[int, ReplayedJob] = {}
    good_end = 0
    offset = 0
    clean = False
    while offset < len(data):
        newline = data.find(b"\n", offset)
        line = data[offset:] if newline < 0 else data[offset : newline + 1]
        payload = decode_record(line)
        if payload is None:
            break  # first bad record starts the discarded tail
        offset += len(line)
        good_end = offset
        replay.records += 1
        clean = payload.get("event") == EVENT_SHUTDOWN
        _fold_event(payload, jobs)
    replay.truncated_bytes = len(data) - good_end
    if replay.truncated_bytes:
        with open(path, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
    replay.clean_shutdown = clean
    for job_id in sorted(jobs):
        job = jobs[job_id]
        (replay.finished if job.finished else replay.unfinished).append(job)
        replay.next_job_id = max(replay.next_job_id, job_id + 1)
    return replay


def _fold_event(payload: dict, jobs: dict[int, ReplayedJob]) -> None:
    """Fold one valid record into the per-job reconstruction."""
    event = payload.get("event")
    job_id = payload.get("job")
    if not isinstance(job_id, int):
        return  # shutdown marker or unknown record shape
    if event == EVENT_ACCEPTED and isinstance(payload.get("request"), dict):
        jobs[job_id] = ReplayedJob(job_id=job_id, request=payload["request"])
        return
    job = jobs.get(job_id)
    if job is None:
        return  # finished/started for a job whose acceptance was truncated
    if event == EVENT_FINISHED:
        job.state = str(payload.get("state", "failed"))
        result = payload.get("result")
        job.result = result if isinstance(result, dict) else None
        error = payload.get("error")
        job.error = None if error is None else str(error)
        elapsed = payload.get("elapsed", 0.0)
        job.elapsed = float(elapsed) if isinstance(elapsed, (int, float)) else 0.0


@guarded_by("_lock", "_handle", "_broken", "_unsynced", "_appended")
class JobJournal:
    """Append side of the write-ahead journal.

    Args:
        path: journal file (parent directories are created).  Run
            :func:`recover` on the same path *first* — it truncates any
            corrupt tail, so appends land on a record boundary.
        sync_every: fsync cadence in records.  The default of 1 makes
            every acknowledged record durable before the caller
            proceeds; a larger value trades the crash-durability window
            (reported as :meth:`lag`, surfaced by ``/healthz``) for
            fewer fsyncs.

    A failed write or fsync marks the journal *broken*: every later
    append raises immediately, :meth:`writable` turns False, and the
    service degrades (503 on submissions and ``/healthz``) instead of
    silently accepting jobs it cannot make durable.
    """

    def __init__(self, path: Path, sync_every: int = 1) -> None:
        if sync_every < 1:
            raise ValueError("sync_every must be at least 1")
        self.path = Path(path)
        self.sync_every = sync_every
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        self._broken: str | None = None
        self._unsynced = 0
        self._appended = 0

    def append(self, payload: dict) -> None:
        """Append one record; durable on return (at ``sync_every=1``).

        Raises:
            JournalError: when the journal is or becomes unwritable.
        """
        record = encode_record(payload)
        with self._lock:
            if self._broken is not None:
                raise JournalError(f"journal is broken: {self._broken}")
            try:
                fault_point("journal.write")
                self._handle.write(record)
                self._handle.flush()
                self._unsynced += 1
                if self._unsynced >= self.sync_every:
                    os.fsync(self._handle.fileno())  # analysis: allow[BLK01] WAL ordering: the ack-before-release contract requires the sync inside the append lock
                    self._unsynced = 0
            except OSError as error:
                self._broken = str(error)
                raise JournalError(
                    f"journal append failed: {error}"
                ) from error
            self._appended += 1

    def append_soft(self, payload: dict) -> None:
        """Append one record, degrading instead of raising.

        For the paths that must make progress with a broken journal
        (finishes, placements, the shutdown marker): the first failure
        marks the journal broken, ``/healthz`` degrades to 503 and new
        submissions are refused, but jobs already accepted still run to
        completion and serve their results from memory.
        """
        try:
            self.append(payload)
        except JournalError:
            pass

    def sync(self) -> None:
        """Force any batched records to disk now."""
        with self._lock:
            if self._broken is not None or self._unsynced == 0:
                return
            try:
                os.fsync(self._handle.fileno())  # analysis: allow[BLK01] WAL ordering: sync() must not race a concurrent append's write
                self._unsynced = 0
            except OSError as error:
                self._broken = str(error)
                raise JournalError(f"journal fsync failed: {error}") from error

    def lag(self) -> int:
        """Appended-but-unsynced records (0 under ``sync_every=1``)."""
        with self._lock:
            return self._unsynced

    def writable(self) -> bool:
        """Whether appends can still succeed."""
        with self._lock:
            return self._broken is None

    def broken_reason(self) -> str | None:
        """Why the journal degraded, or None while healthy."""
        with self._lock:
            return self._broken

    def appended(self) -> int:
        """Records appended by this handle (not counting replayed ones)."""
        with self._lock:
            return self._appended

    def close(self) -> None:
        """Flush, sync and close the append handle (idempotent)."""
        with self._lock:
            if self._handle.closed:
                return
            try:
                self._handle.flush()
                if self._unsynced:
                    os.fsync(self._handle.fileno())  # analysis: allow[BLK01] WAL ordering: the closing sync must exclude concurrent appends
                    self._unsynced = 0
            except OSError as error:  # pragma: no cover — close best-effort
                self._broken = str(error)
            finally:
                self._handle.close()
