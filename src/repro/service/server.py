"""The HTTP front end: stdlib ``ThreadingHTTPServer`` over the engine.

No frameworks, no new dependencies: request routing is a handful of
regular expressions, bodies are ``json`` both ways, concurrency is one
handler thread per connection (the handlers only touch the thread-safe
:class:`~repro.service.queue.JobQueue`; the engine itself is driven by
the queue's single runner thread).

Crash safety (PR 7): pass ``data_dir`` and the service opens a
write-ahead :class:`~repro.service.journal.JobJournal` plus a
content-hashed :class:`~repro.service.certstore.CertStore` under it,
replaying any existing journal *before* serving — accepted jobs survive
``kill -9``.  ``max_pending`` adds admission control (429 with
``Retry-After``), ``GET /jobs/<id>?wait=N`` long-polls, and
``/healthz`` degrades to 503 when the journal can no longer accept
writes or the runner thread has died.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import FrameType
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

if TYPE_CHECKING:  # type-only: the cluster layer imports this module
    from repro.cluster.auth import TokenSet

from repro.api.config import EngineConfig
from repro.api.engine import SciductionEngine
from repro.api.problems import problem_types
from repro.service.certstore import CertStore
from repro.service.journal import JobJournal, JournalReplay, recover
from repro.service.queue import (
    JobQueue,
    QueueFullError,
    ServiceJob,
    ServiceUnavailableError,
)
from repro.service.wire import (
    WireError,
    error_wire,
    job_record_wire,
    job_summary_wire,
    parse_job_request,
)

_JOB_PATH = re.compile(r"^/jobs/(\d+)$")
_RESULT_PATH = re.compile(r"^/jobs/(\d+)/result$")

#: Request bodies above this size are rejected (the wire forms the
#: service accepts are small; this bounds memory per connection).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Upper bound on one ``?wait=`` long-poll, seconds.  Clients wanting
#: longer just re-issue the request — bounding one hold keeps handler
#: threads from pinning forever on abandoned connections.
MAX_WAIT_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the owning :class:`SciductionService`."""

    #: Injected by :meth:`SciductionService._handler_class`.
    service: "SciductionService"

    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def _body_length(self) -> int:
        raw = self.headers.get("Content-Length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except ValueError:
            # A client protocol error, not a server fault — and the body
            # size is unknowable, so the connection cannot be reused.
            self.close_connection = True
            raise WireError(f"invalid Content-Length header {raw!r}") from None
        return max(0, length)

    def _drain_body(self) -> None:
        """Discard an unread request body before replying.

        Under HTTP/1.1 keep-alive the connection is reused for the next
        request; replying without consuming the body would leave it in
        the stream, where it gets parsed as the next request line.
        Oversized bodies are not worth draining — the connection is
        closed instead.
        """
        try:
            remaining = self._body_length()
        except WireError:
            return  # close_connection already set
        if not remaining:
            return
        if remaining > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                break
            remaining -= len(chunk)

    def _reply(
        self,
        status: int,
        payload: dict | list,
        headers: dict[str, str] | None = None,
    ) -> None:
        if not self._body_consumed:
            self._drain_body()
            self._body_consumed = True
        # Canonical key order: a result served from the engine, the
        # certificate store and a journal replay must be byte-identical
        # on the wire, and the stores round-trip through sorted JSON.
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, message: str) -> None:
        self._reply(status, error_wire(message, status))

    def _read_json(self) -> Any:
        length = self._body_length()
        self._body_consumed = True
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise WireError("request body too large", status=413)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise WireError("request body required")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise WireError(f"invalid JSON body: {error}") from error

    def handle_one_request(self) -> None:  # noqa: D102 — http.server API
        self._body_consumed = False
        super().handle_one_request()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.service.quiet:
            super().log_message(format, *args)

    def _authenticate(self, route: str) -> tuple[bool, str | None]:
        """Bearer-token gate: ``(allowed, authenticated identity)``.

        With no token set configured every caller is allowed and
        anonymous.  With one configured, every route except ``/healthz``
        (load balancers probe it unauthenticated) requires
        ``Authorization: Bearer <token>``; a missing or wrong token is
        answered here with a structured 401 + ``WWW-Authenticate``.
        """
        tokens = self.service.auth
        if tokens is None or not tokens.required() or route == "/healthz":
            return True, None
        header = self.headers.get("Authorization", "")
        presented = header[7:] if header.startswith("Bearer ") else None
        identity = tokens.identify(presented)
        if identity is None:
            self._reply(
                401,
                error_wire("authentication required", 401),
                headers={"WWW-Authenticate": 'Bearer realm="sciduction"'},
            )
            return False, None
        return True, identity

    def _job_or_404(self, job_id: str) -> "ServiceJob | None":
        job = self.service.queue.get(int(job_id))
        if job is None:
            self._fail(404, f"unknown job id {job_id}")
        return job

    @staticmethod
    def _split_query(path: str) -> tuple[str, dict[str, list[str]]]:
        route, _, query = path.partition("?")
        return route, parse_qs(query) if query else {}

    @staticmethod
    def _wait_seconds(query: dict[str, list[str]]) -> float:
        """Parse ``?wait=`` into a clamped number of seconds (0 = no wait)."""
        values = query.get("wait")
        if not values:
            return 0.0
        try:
            wait = float(values[-1])
        except ValueError:
            raise WireError(f"'wait' must be a number, got {values[-1]!r}") from None
        if wait < 0:
            raise WireError(f"'wait' must be non-negative, got {wait}")
        return min(wait, MAX_WAIT_SECONDS)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            route, query = self._split_query(self.path)
            allowed, _identity = self._authenticate(route)
            if not allowed:
                return
            if route == "/healthz":
                status, payload = self.service.health()
                self._reply(status, payload)
                return
            if route == "/stats":
                self._reply(200, self.service.stats())
                return
            if route == "/problems":
                self._reply(200, {"kinds": sorted(problem_types())})
                return
            if route == "/jobs":
                self._reply(
                    200,
                    {"jobs": [job_summary_wire(job) for job in self.service.queue.jobs()]},
                )
                return
            match = _JOB_PATH.match(route)
            if match:
                job = self.service.queue.wait_for_done(
                    int(match.group(1)), self._wait_seconds(query)
                )
                if job is None:
                    self._fail(404, f"unknown job id {match.group(1)}")
                else:
                    self._reply(200, job_record_wire(job))
                return
            match = _RESULT_PATH.match(route)
            if match:
                job = self._job_or_404(match.group(1))
                if job is None:
                    return
                outcome = job.view()
                if outcome is None or outcome["result"] is None:
                    self._fail(409, f"job {job.job_id} is {job.state}; no result yet")
                    return
                self._reply(200, outcome["result"])
                return
            self._fail(404, f"unknown path {self.path}")
        except WireError as error:
            self._fail(error.status, str(error))
        except Exception as error:  # noqa: BLE001 — a handler must answer
            self._fail(500, f"internal error: {error}")

    def do_POST(self) -> None:  # noqa: N802
        try:
            allowed, identity = self._authenticate(self.path)
            if not allowed:
                return
            if self.path != "/jobs":
                self._fail(404, f"unknown path {self.path}")
                return
            request = parse_job_request(self._read_json())
            if identity is not None:
                # Per-client accounting keys on who *authenticated*, not
                # on whatever tag the request body claims.
                request["client"] = identity
            job = self.service.queue.submit(request)
            self._reply(
                202,
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "location": f"/jobs/{job.job_id}",
                    "from_certificate": job.from_certificate,
                },
            )
        except QueueFullError as error:
            self._reply(
                429,
                error_wire(str(error), 429, retry_after=error.retry_after),
                headers={"Retry-After": str(error.retry_after)},
            )
        except ServiceUnavailableError as error:
            self._fail(503, str(error))
        except WireError as error:
            self._fail(error.status, str(error))
        except Exception as error:  # noqa: BLE001
            self._fail(500, f"internal error: {error}")

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            allowed, _identity = self._authenticate(self.path)
            if not allowed:
                return
            match = _JOB_PATH.match(self.path)
            if not match:
                self._fail(404, f"unknown path {self.path}")
                return
            outcome = self.service.queue.cancel(int(match.group(1)))
            if outcome is None:
                self._fail(404, f"unknown job id {match.group(1)}")
                return
            if outcome == "cancelled":
                self._reply(200, {"cancelled": True})
                return
            if outcome == "running":
                self._reply(
                    409,
                    error_wire(
                        "job is already running and cannot be cancelled",
                        409,
                        state=outcome,
                        cancelled=False,
                    ),
                )
                return
            # Terminal state: cancellation is meaningless, nothing is
            # journaled, and the client learns what actually happened.
            state = outcome.partition(":")[2]
            self._reply(
                409,
                error_wire(
                    f"job already finished as {state!r}",
                    409,
                    state=state,
                    cancelled=False,
                ),
            )
        except Exception as error:  # noqa: BLE001
            self._fail(500, f"internal error: {error}")


class SciductionService:
    """Engine + queue + HTTP server, composed for one process.

    Args:
        config: engine configuration (``workers > 1`` fans service
            batches over the parallel scheduler).
        host: bind address (loopback by default — the service speaks
            plaintext HTTP and has no auth story yet; see ROADMAP).
        port: bind port; 0 asks the OS for an ephemeral one (read it
            back from :attr:`port`).
        quiet: silence per-request access logs.
        data_dir: enable durability — the job journal lives at
            ``<data_dir>/journal.wal`` and the certificate store under
            ``<data_dir>/certs``.  Any existing journal is replayed
            before the server binds, restoring finished results and
            re-enqueueing accepted-but-unfinished jobs (the replay
            summary is exposed as :attr:`replay`).  ``None`` (default)
            keeps the pre-PR-7 in-memory behavior.
        max_pending: admission bound forwarded to the queue (429 past it).
        engine: inject a pre-built engine (the cluster coordinator hands
            in a :class:`~repro.cluster.coordinator.ClusterEngine`);
            ``config`` is ignored when given — the engine's own config
            governs.
        auth: bearer-token set (see :mod:`repro.cluster.auth`); when it
            requires auth, every route except ``/healthz`` answers 401
            to callers without a valid token, and per-client accounting
            keys on the authenticated identity.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = False,
        data_dir: Path | str | None = None,
        max_pending: int | None = None,
        engine: SciductionEngine | None = None,
        auth: "TokenSet | None" = None,
    ) -> None:
        self.engine = engine if engine is not None else SciductionEngine(config)
        self.auth = auth
        self.journal: JobJournal | None = None
        self.certstore: CertStore | None = None
        self.replay: JournalReplay | None = None
        if data_dir is not None:
            root = Path(data_dir)
            journal_path = root / "journal.wal"
            # Replay first: recover() truncates any torn tail in place,
            # so the append handle opens onto a clean record boundary.
            self.replay = recover(journal_path)
            self.journal = JobJournal(journal_path)
            self.certstore = CertStore(root / "certs")
        self.queue = JobQueue(
            self.engine,
            journal=self.journal,
            certstore=self.certstore,
            max_pending=max_pending,
        )
        if self.replay is not None:
            self.queue.restore(self.replay)
        self.quiet = quiet
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._server_thread: threading.Thread | None = None
        self._serving = False
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stats(self) -> dict:
        """The ``/stats`` payload: queue counts, depth/latency histograms,
        engine-wide counters, and (PR 7) certificate-store counters,
        per-client accounting and admission-control state.

        ``queue`` stays the flat per-state count mapping (clients key on
        it); the histograms ride along as separate top-level keys:
        ``queue_depth`` (pending depth observed at each submission) and
        ``job_latency`` (per-problem-kind seconds, from harvested jobs).
        """
        payload = {
            "queue": self.queue.counts(),
            "engine": self.engine.statistics(),
            "config": self.engine.config.to_dict(),
            "admission": self.queue.admission(),
            "clients": self.queue.clients(),
            "auth": {
                "required": bool(self.auth is not None and self.auth.required())
            },
        }
        if self.certstore is not None:
            payload["certstore"] = self.certstore.statistics()
        # A cluster engine contributes topology, failover history and
        # memo-service counters (duck-typed so this module stays free of
        # a runtime dependency on the cluster layer).
        cluster_statistics = getattr(self.engine, "cluster_statistics", None)
        if callable(cluster_statistics):
            payload["cluster"] = cluster_statistics()
        payload.update(self.queue.histograms())
        return payload

    def health(self) -> tuple[int, dict]:
        """The ``/healthz`` status code and payload.

        Healthy is 200.  A journal that can no longer accept writes
        means new work cannot be made durable, and a runner thread that
        died while the queue is not stopping means accepted work never
        runs — either is a 503, so load balancers stop routing
        submissions here.  A degraded cert store stays 200 (it is an
        optimization, not a promise) but is reported.
        """
        payload: dict = {
            "status": "ok",
            "runner": {"alive": self.queue.runner_alive()},
        }
        status = 200
        if self.queue.runner_failed():
            status = 503
            payload["status"] = "degraded"
        if self.journal is not None:
            journal_health = {
                "enabled": True,
                "writable": self.journal.writable(),
                "lag_records": self.journal.lag(),
            }
            reason = self.journal.broken_reason()
            if reason is not None:
                journal_health["reason"] = reason
            payload["journal"] = journal_health
            if not self.journal.writable():
                status = 503
                payload["status"] = "degraded"
        else:
            payload["journal"] = {"enabled": False}
        if self.certstore is not None:
            payload["certstore"] = {
                "enabled": True,
                "available": self.certstore.available(),
            }
            if not self.certstore.available():
                payload["status"] = "degraded"
        else:
            payload["certstore"] = {"enabled": False}
        return status, payload

    def start(self) -> None:
        """Start the runner thread and serve HTTP in the background."""
        # Fork the worker fleet while this process is still
        # single-threaded — forking under live handler threads is unsafe.
        self.engine.prestart_workers()
        self.queue.start()
        self._serving = True
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="sciduction-http",
            daemon=True,
        )
        self._server_thread.start()

    def serve_forever(self) -> None:
        """Start the runner thread and serve HTTP on the calling thread."""
        self.engine.prestart_workers()
        self.queue.start()
        self._serving = True
        self._httpd.serve_forever()

    def run_cli(
        self, banner: str, port_files: list[tuple[Path | None, int]]
    ) -> int:
        """Serve on the calling thread until Ctrl-C or SIGTERM; return 0.

        The serve loop of ``python -m repro.service`` and ``python -m
        repro.cluster.coordinator``: print the journal replay summary
        (when the replay found records) and ``banner``, write each
        ``(path, port)`` port file (None paths skipped), and drain on
        the way out.  SIGTERM drains from a helper thread, because
        :meth:`shutdown` joins the threads :meth:`serve_forever` runs
        on.
        """
        if self.replay is not None and self.replay.records:
            replay = self.replay
            print(
                "journal replay: "
                f"{len(replay.finished)} finished restored, "
                f"{len(replay.unfinished)} unfinished re-enqueued, "
                f"{replay.truncated_bytes} torn bytes truncated, "
                f"clean_shutdown={replay.clean_shutdown}",
                flush=True,
            )

        def _on_sigterm(signum: int, frame: FrameType | None) -> None:
            threading.Thread(target=self.shutdown, name="sciduction-drain").start()

        signal.signal(signal.SIGTERM, _on_sigterm)
        print(banner, flush=True)
        for path, port in port_files:
            if path is not None:
                path.write_text(f"{port}\n")
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            self.shutdown()
        return 0

    def shutdown(self) -> None:
        """Graceful drain: refuse new jobs, finish everything accepted,
        journal a clean-shutdown marker, release workers.  Idempotent —
        a SIGTERM racing an atexit call runs the sequence once."""
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        # 1. Stop admitting (503 on POST) while the HTTP server is still
        #    answering status polls for jobs about to finish.
        self.queue.begin_drain()
        # 2. Stop the listener.  httpd.shutdown() handshakes with
        #    serve_forever and would block forever on a service that was
        #    never started (e.g. constructed only to inspect a replay).
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
            self._server_thread = None
        # 3. Drain the queue: the runner keeps batching until nothing is
        #    pending, then the clean-shutdown marker is journaled.
        self.queue.stop(timeout=60.0)
        self.engine.close()
        if self.journal is not None:
            self.journal.close()
