"""Thread-safe job queue + the engine runner thread.

The HTTP handler threads (one per connection under
``ThreadingHTTPServer``) only ever touch the :class:`JobQueue`; a single
:class:`_Runner` thread owns the :class:`~repro.api.engine.SciductionEngine`
and drains the queue into ``run_batch`` calls.  Draining everything
pending into one batch is what hands the engine real batches to
schedule: with ``workers > 1`` the work-stealing scheduler fans a burst
of submissions out over the worker fleet exactly as a library
``run_batch`` would.

Durability (both optional, wired in by
:class:`~repro.service.server.SciductionService` when a data directory
is configured):

* every lifecycle transition is journaled to a write-ahead
  :class:`~repro.service.journal.JobJournal` *before* it is
  acknowledged — acceptance is journaled before the 202 reply, so a
  ``kill -9`` can never lose an accepted job; :meth:`restore` replays a
  recovered journal into the queue on boot;
* completed results are persisted to a content-hashed
  :class:`~repro.service.certstore.CertStore`; a submission whose
  canonical wire form hashes to a stored certificate is answered from
  disk without ever reaching the engine.

Admission control: ``max_pending`` bounds the queue depth — a submission
past the bound is rejected with :class:`QueueFullError` carrying a
``Retry-After`` estimate derived from the observed per-kind latency
histograms, and :meth:`begin_drain` (SIGTERM) flips the queue into
reject-new/finish-in-flight mode.

One record, one id: a :class:`ServiceJob` keeps the accepted request
wire and, once terminal, one outcome shaped like :meth:`Job.response`,
set by :meth:`JobQueue._record_finish` alone.  The runner builds each
engine job with ``Job.from_payload`` under the job's HTTP id, so worker
and node frames, ``details.engine.job_id`` and the coordinator's WAL
records all name the id ``POST /jobs`` returned.

Cancellation composes the two layers: a job still in the service queue
is cancelled locally; a job already drained into the engine is forwarded
to :meth:`SciductionEngine.cancel`, which can still cancel anything the
scheduler has not dispatched to a worker.
"""

from __future__ import annotations

import itertools
import threading
import time

from dataclasses import dataclass, field

from repro.analysis.annotations import guarded_by, holds
from repro.api.engine import Job, JobState, SciductionEngine, failure_result
from repro.api.results import result_to_dict
from repro.core.exceptions import ReproError
from repro.service.certstore import (
    CertStore,
    canonical_submission,
    submission_fingerprint,
)
from repro.service.journal import (
    EVENT_ACCEPTED,
    EVENT_FINISHED,
    EVENT_SHUTDOWN,
    EVENT_STARTED,
    JobJournal,
    JournalError,
    JournalReplay,
)
from repro.service.stats import DEPTH_BOUNDS, LATENCY_BOUNDS, Histogram


def _failure_outcome(state: JobState, error: str | None = None) -> dict:
    """The outcome of a job that ends without running in the engine."""
    return {
        "state": state.value,
        "error": error,
        "elapsed": 0.0,
        "result": result_to_dict(failure_result(state, error)),
    }


#: Fallback Retry-After (seconds) before any latency data exists.
_DEFAULT_RETRY_AFTER = 5

#: Long-poll wakeup slice: waiters re-check doneness at least this often
#: even without a notification (engine jobs finish inside a batch, which
#: only notifies at harvest time).
_WAIT_SLICE = 0.05


class QueueFullError(ReproError):
    """The pending queue is at ``max_pending``; retry after a backoff."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(
            f"queue is full ({depth} jobs pending); retry in ~{retry_after}s"
        )
        self.retry_after = retry_after


class ServiceUnavailableError(ReproError):
    """The service cannot accept jobs (draining, or the journal broke)."""


@dataclass
class ServiceJob:
    """One submitted job as the HTTP surface sees it.

    It keeps the accepted request wire exactly as journaled, the outcome
    once the job is terminal (``{state, error, elapsed, result}``, the
    shape of :meth:`Job.response`, set once by
    :meth:`JobQueue._record_finish`), and the engine's :class:`Job`
    only while the job is inside the engine.  The engine job carries
    this job's id.
    """

    job_id: int
    #: ``problem``, ``max_conflicts``, ``timeout``, ``label``, ``client``.
    request: dict
    #: Whether the result was answered from the certificate store.
    from_certificate: bool = False
    outcome: dict | None = field(default=None, repr=False)
    engine_job: Job | None = field(default=None, repr=False)

    def view(self) -> dict | None:
        """The outcome as served, or None while the job is open.

        An engine job that finished inside a still-running batch shows
        its own outcome before the harvest records it.
        """
        # Engine job first: _record_finish sets the outcome, then drops it.
        engine_job = self.engine_job
        if self.outcome is None and engine_job is not None and engine_job.done:
            return engine_job.response()
        return self.outcome

    @property
    def state(self) -> str:
        engine_job = self.engine_job
        view = self.view()
        if view is not None:
            return str(view["state"])
        if engine_job is None or engine_job.state is JobState.PENDING:
            return "queued"
        return engine_job.state.value

    @property
    def done(self) -> bool:
        return self.view() is not None


@guarded_by(
    "_lock",
    "_jobs", "_pending", "_stopped", "_draining", "_rejected", "_clients",
    "_ids",
    aliases=("_wakeup", "_done"),
)
class JobQueue:
    """Registry + FIFO of service jobs, drained by the runner thread.

    Args:
        engine: the owning engine (driven only by the runner thread).
        max_history: finished jobs retained for ``GET /jobs/<id>`` —
            the oldest finished records are evicted past the bound, so a
            service that runs forever holds bounded memory.  Open jobs
            are never evicted.
        journal: write-ahead journal for lifecycle durability (optional).
        certstore: content-hashed result store (optional).
        max_pending: admission bound on queued-not-yet-drained jobs;
            ``None`` keeps the queue unbounded (the pre-PR-7 behavior).
    """

    def __init__(
        self,
        engine: SciductionEngine,
        max_history: int = 10_000,
        journal: JobJournal | None = None,
        certstore: CertStore | None = None,
        max_pending: int | None = None,
    ) -> None:
        self.engine = engine
        self.max_history = max_history
        self.journal = journal
        self.certstore = certstore
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: Notified whenever any job reaches a terminal state (harvest,
        #: cancellation, cert-store hit); long-polls wait on it.
        self._done = threading.Condition(self._lock)
        self._jobs: dict[int, ServiceJob] = {}
        self._pending: list[ServiceJob] = []
        self._ids = itertools.count(1)
        self._stopped = False
        self._draining = False
        self._rejected = 0
        #: Per-client counters: client → {"submitted"/"completed"/"rejected"}.
        self._clients: dict[str, dict[str, int]] = {}
        #: Queue depth observed at each submission (how far behind the
        #: runner is when work arrives), and per-problem-kind job
        #: latencies harvested from finished batches.  Both are only
        #: touched under ``_lock``.
        self._depth_histogram = Histogram(DEPTH_BOUNDS)
        self._latency_histograms: dict[str, Histogram] = {}
        self._runner = _Runner(self)

    # -- durability plumbing -----------------------------------------------

    @holds("_lock")
    def _record_finish(
        self, job: ServiceJob, outcome: dict, *, replayed: bool = False
    ) -> None:
        """Set a job's outcome, then journal, persist and account it (locked).

        Every terminal transition comes through here, once per job: the
        first caller wins (a cancel can finish an engine job before the
        batch harvest does).  A ``replayed`` outcome is already in the
        journal, so it is only set.
        """
        if job.outcome is not None:
            return
        job.outcome = outcome
        job.engine_job = None
        if not replayed:
            if self.journal is not None:
                self.journal.append_soft(
                    {"event": EVENT_FINISHED, "job": job.job_id, **outcome}
                )
            if (
                self.certstore is not None
                and outcome["state"] == "completed"
                and not job.from_certificate
                and outcome["result"] is not None
            ):
                fingerprint = submission_fingerprint(job.request)
                self.certstore.put(
                    fingerprint,
                    {
                        "fingerprint": fingerprint,
                        "request": canonical_submission(job.request),
                        "state": outcome["state"],
                        "result": outcome["result"],
                        "elapsed": outcome["elapsed"],
                    },
                )
            client = job.request.get("client")
            if client is not None:
                self._client_counters(client)["completed"] += 1
        self._done.notify_all()

    @holds("_lock")
    def _client_counters(self, client: str) -> dict[str, int]:
        counters = self._clients.get(client)
        if counters is None:
            counters = self._clients[client] = {
                "submitted": 0,
                "completed": 0,
                "rejected": 0,
            }
        return counters

    def restore(self, replay: JournalReplay) -> None:
        """Rebuild queue state from a journal replay (call before start).

        Finished jobs come back exactly as journaled — same ids, same
        wire-form results.  Accepted-but-unfinished jobs are re-enqueued
        for the runner in id order; after a *clean* shutdown there are
        none and the replay is a no-op beyond restoring history.
        """
        with self._wakeup:
            self._ids = itertools.count(replay.next_job_id)
            for replayed in replay.finished + replay.unfinished:
                job = self._jobs[replayed.job_id] = ServiceJob(
                    replayed.job_id, replayed.request
                )
                if not replayed.finished:
                    self._pending.append(job)
                    continue
                outcome = {
                    "state": replayed.state,
                    "error": replayed.error,
                    "elapsed": replayed.elapsed,
                    "result": replayed.result,
                }
                self._record_finish(job, outcome, replayed=True)
            if self._pending:
                self._wakeup.notify_all()

    # -- HTTP-side API -----------------------------------------------------

    def submit(self, request: dict) -> ServiceJob:
        """Enqueue a validated job request (see
        :func:`repro.service.wire.parse_job_request`).

        Raises:
            ServiceUnavailableError: shutting down, draining, or the
                journal can no longer make acceptance durable (503).
            QueueFullError: the pending queue is at ``max_pending``
                (429, with a Retry-After estimate).
        """
        with self._wakeup:
            if self._stopped or self._draining:
                raise ServiceUnavailableError("service is shutting down")
            if self.journal is not None and not self.journal.writable():
                raise ServiceUnavailableError(
                    "job journal is unwritable; refusing new work"
                )
            client = request.get("client")
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                self._rejected += 1
                if client is not None:
                    self._client_counters(client)["rejected"] += 1
                raise QueueFullError(
                    len(self._pending), self._retry_after_estimate()
                )
            job = ServiceJob(next(self._ids), request)
            cert: dict | None = None
            if self.certstore is not None:
                cert = self.certstore.get(submission_fingerprint(request))
            # Durability barrier: acceptance reaches the disk before the
            # job is registered (and before the HTTP 202 goes out).  A
            # failed append raises — the client gets a 503, and no
            # un-journaled job can exist.
            if self.journal is not None:
                try:
                    self.journal.append(
                        {"event": EVENT_ACCEPTED, "job": job.job_id, "request": request}
                    )
                except JournalError as error:
                    raise ServiceUnavailableError(
                        f"cannot make acceptance durable: {error}"
                    ) from error
            self._jobs[job.job_id] = job
            if client is not None:
                self._client_counters(client)["submitted"] += 1
            if cert is not None:
                # Served from the certificate store: terminal on arrival,
                # the engine never sees it.  The journal still records a
                # finish so a restart replays it as history, not work.
                job.from_certificate = True
                result = cert.get("result")
                outcome = {
                    "state": str(cert.get("state", "completed")),
                    "error": None,
                    "elapsed": 0.0,
                    "result": result if isinstance(result, dict) else None,
                }
                self._record_finish(job, outcome)
                return job
            self._pending.append(job)
            self._depth_histogram.observe(len(self._pending))
            self._wakeup.notify_all()
            return job

    def get(self, job_id: int) -> ServiceJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def wait_for_done(
        self, job_id: int, timeout: float
    ) -> ServiceJob | None:
        """Long-poll: block until the job is terminal or ``timeout`` passes.

        Returns the job either way (the caller inspects ``done``); None
        for an unknown id.  Waiters are notified on harvest,
        cancellation and cert-store hits, and additionally re-check at a
        small slice so completions inside a still-running batch are
        observed promptly.
        """
        deadline = time.monotonic() + timeout  # analysis: allow[WC01] long-poll deadline anchor; bounds one HTTP request, never a solver input
        with self._done:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            while not job.done:
                remaining = deadline - time.monotonic()  # analysis: allow[WC01] long-poll deadline probe; bounds one HTTP request, never a solver input
                if remaining <= 0:
                    break
                self._done.wait(min(remaining, _WAIT_SLICE))
            return job

    def jobs(self) -> list[ServiceJob]:
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def cancel(self, job_id: int) -> str | None:
        """Cancel a job, reporting what actually happened.

        Returns ``"cancelled"`` when the cancellation took *now*,
        ``"running"`` when the job is already executing,
        ``"finished:<state>"`` when the job was already terminal (a
        structured 409 — nothing is journaled, the recorded outcome
        stands), or None for an unknown id.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.done:
                return f"finished:{job.state}"
            engine_job = job.engine_job
            if engine_job is None:
                # Still queued: the engine's cancelled wire, for a job
                # that never reached it.
                self._pending.remove(job)
                self._record_finish(job, _failure_outcome(JobState.CANCELLED))
                return "cancelled"
            if self.engine.cancel(engine_job):
                # The engine marked it cancelled synchronously; record
                # the outcome now so the journal and long-pollers see it
                # without waiting for the batch harvest.
                self._record_finish(job, engine_job.response())
                return "cancelled"
            return f"finished:{job.state}" if engine_job.done else "running"

    def counts(self) -> dict:
        """Per-state job counts (for ``/stats``)."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def histograms(self) -> dict:
        """Queue-depth and per-kind latency histograms (for ``/stats``)."""
        with self._lock:
            return {
                "queue_depth": self._depth_histogram.as_dict(),
                "job_latency": {
                    kind: histogram.as_dict()
                    for kind, histogram in sorted(
                        self._latency_histograms.items()
                    )
                },
            }

    def admission(self) -> dict:
        """Admission-control state (for ``/stats``)."""
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "pending": len(self._pending),
                "rejected": self._rejected,
                "draining": self._draining,
                "retry_after_estimate": self._retry_after_estimate(),
            }

    def clients(self) -> dict:
        """Per-client accounting snapshot (for ``/stats``)."""
        with self._lock:
            return {
                client: dict(counters)
                for client, counters in sorted(self._clients.items())
            }

    def _retry_after_estimate(self) -> int:
        """Seconds a rejected client should wait, from observed latency.

        Mean harvested job latency times the current backlog, clamped to
        [1, 120]; before any job finished, a small fixed default.  Callers
        hold ``_lock``.
        """
        total_count = 0
        total_sum = 0.0
        for kind in sorted(self._latency_histograms):
            histogram = self._latency_histograms[kind]
            total_count += histogram.count
            total_sum += histogram.total
        if total_count == 0:
            return _DEFAULT_RETRY_AFTER
        mean = total_sum / total_count
        estimate = mean * max(1, len(self._pending))
        return max(1, min(120, int(estimate) + 1))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._runner.start()

    def begin_drain(self) -> None:
        """Stop accepting new jobs; everything queued still runs."""
        with self._wakeup:
            self._draining = True
            self._wakeup.notify_all()

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the runner thread (pending jobs are finished first).

        The runner loop keeps draining until the pending queue is empty,
        so a stop is a graceful drain of everything already accepted.
        Once the runner is down with nothing left, a clean-shutdown
        marker is journaled — a replay of this journal re-enqueues
        nothing.
        """
        with self._wakeup:
            self._stopped = True
            self._wakeup.notify_all()
        if self._runner.is_alive():
            self._runner.join(timeout=timeout)
        with self._lock:
            all_done = not self._pending and not self._runner.is_alive()
        if all_done and self.journal is not None:
            self.journal.append_soft({"event": EVENT_SHUTDOWN})

    def runner_alive(self) -> bool:
        return self._runner.is_alive()

    def runner_failed(self) -> bool:
        """Whether the runner thread is down while the queue is not stopping."""
        with self._lock:
            return not self._runner.is_alive() and not self._stopped

    # -- runner side -------------------------------------------------------

    def _drain(self) -> list[ServiceJob]:
        """Move every pending job into the engine (runner thread only).

        Blocks until at least one job is pending or the queue stops.
        """
        with self._wakeup:
            while not self._pending and not self._stopped:
                self._wakeup.wait()  # analysis: allow[BLK01] parked runner: wait() releases the lock while blocked; submit()/stop() notify_all
            drained = []
            for job in self._pending:
                try:
                    engine_job = Job.from_payload({**job.request, "job_id": job.job_id})
                except Exception as error:  # noqa: BLE001 — the runner keeps serving
                    # An undecodable request (one replayed from a journal
                    # this process cannot run) fails alone.
                    self._record_finish(
                        job, _failure_outcome(JobState.FAILED, str(error))
                    )
                    continue
                job.engine_job = self.engine.submit(engine_job)
                if self.journal is not None:
                    self.journal.append_soft({"event": EVENT_STARTED, "job": job.job_id})
                drained.append(job)
            self._pending.clear()
            return drained

    def _harvest(self, drained: list[ServiceJob]) -> None:
        """Record a finished batch and bound retained memory (runner
        thread only): each job keeps only its wire-form outcome, the
        engine forgets its handles, and the oldest finished service
        records past ``max_history`` are evicted."""
        with self._lock:
            for job in drained:
                if job.engine_job is not None:  # not cancelled in the engine
                    self._record_finish(job, job.engine_job.response())
                assert job.outcome is not None
                kind = str(job.request["problem"].get("kind", "unknown"))
                self._latency_histograms.setdefault(
                    kind, Histogram(LATENCY_BOUNDS)
                ).observe(job.outcome["elapsed"])
            self.engine.prune()
            if len(self._jobs) > self.max_history:
                for job_id in sorted(self._jobs):
                    if len(self._jobs) <= self.max_history:
                        break
                    if self._jobs[job_id].outcome is not None:
                        del self._jobs[job_id]

    def _fail_batch(self, drained: list[ServiceJob], error: Exception) -> None:
        """Finish a batch whose run or harvest raised (runner thread only):
        each open job ends with its engine response, or ``failed`` in the
        engine too, so no later batch runs it."""
        message = f"batch failed: {type(error).__name__}: {error}"
        with self._lock:
            for job in drained:
                engine_job = job.engine_job
                if engine_job is None:  # already recorded
                    continue
                if not engine_job.done:
                    engine_job.fail(JobState.FAILED, message, stamp=False)
                self._record_finish(job, engine_job.response())
            self.engine.prune()


class _Runner(threading.Thread):
    """The single thread that owns the engine and runs the batches."""

    def __init__(self, queue: JobQueue) -> None:
        super().__init__(name="sciduction-runner", daemon=True)
        self._queue = queue

    def run(self) -> None:
        while True:
            drained = self._queue._drain()
            if drained:
                try:
                    self._queue.engine.run_batch()
                    self._queue._harvest(drained)
                except Exception as error:  # noqa: BLE001 — the runner keeps serving
                    self._queue._fail_batch(drained, error)
            elif self._queue._stopped:
                return
