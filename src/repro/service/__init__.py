"""Sciduction as a long-lived HTTP service.

The :mod:`repro.api` engine made the three paper applications one
library call; this package makes them one *service*: a stdlib-only HTTP
front end (``http.server``, no new dependencies) over a persistent
:class:`~repro.api.engine.SciductionEngine` with a thread-safe job
queue.  Problems arrive as the same JSON wire-form specs the engine
already speaks, results leave as the same wire-form results — running a
job over HTTP and running it in process produce byte-identical wire
forms (the service-smoke CI job asserts exactly that).

Crash safety (PR 7): configured with a data directory, the service
journals every job lifecycle transition to a checksummed write-ahead log
(:mod:`repro.service.journal`) before acknowledging it and persists
completed results in a content-hashed certificate store
(:mod:`repro.service.certstore`) — a ``kill -9`` loses no accepted job,
and a re-submitted identical spec is answered from disk without an
engine call.  ``max_pending`` bounds admission (429 + ``Retry-After``),
and SIGTERM drains gracefully.

Endpoints (see :mod:`repro.service.server`)::

    POST   /jobs             submit {"problem": {...}, "timeout": ..., ...}
                             (429 + Retry-After when the queue is full,
                              503 while draining or journal-broken)
    GET    /jobs             list job summaries
    GET    /jobs/<id>        job state record; ?wait=<seconds> long-polls
                             until the job is terminal
    GET    /jobs/<id>/result wire-form result (409 while the job is open)
    DELETE /jobs/<id>        cancel a queued job (structured 409 when it
                             is already running or finished)
    GET    /stats            engine + queue + certstore + client counters
    GET    /problems         registered problem kinds
    GET    /healthz          liveness probe (503 when the journal broke
                             or the runner died)

Run it::

    python -m repro.service --port 8080
    python -m repro.service --port 0 --port-file port.txt   # ephemeral
    python -m repro.service --data-dir state/               # crash-safe
"""

from repro.service.certstore import CertStore, submission_fingerprint
from repro.service.journal import (
    JobJournal,
    JournalError,
    JournalReplay,
    ReplayedJob,
    recover,
)
from repro.service.queue import (
    JobQueue,
    QueueFullError,
    ServiceJob,
    ServiceUnavailableError,
)
from repro.service.server import SciductionService
from repro.service.wire import WireError, parse_job_request

__all__ = [
    "CertStore",
    "JobJournal",
    "JobQueue",
    "JournalError",
    "JournalReplay",
    "QueueFullError",
    "ReplayedJob",
    "SciductionService",
    "ServiceJob",
    "ServiceUnavailableError",
    "WireError",
    "parse_job_request",
    "recover",
    "submission_fingerprint",
]
