"""The sciduction engine: one front door for every problem type.

:class:`SciductionEngine` turns the three per-application entry points
(`OgisSynthesizer`, `GameTime`, `SwitchingLogicSynthesizer`) into one
job-oriented service surface:

    engine = SciductionEngine(EngineConfig(pool_size=2))
    job = engine.submit(DeobfuscationProblem(task="multiply45", width=8))
    engine.submit(TimingAnalysisProblem(program="bounded_linear_search"))
    results = engine.run_batch()          # runs every pending job
    print(result_to_json(results[0]))

Within one process jobs run sequentially (the solvers are
single-threaded Python), but *sessions* persist: SMT-backed jobs lease a
pooled incremental solver from the engine's
:class:`~repro.api.pool.SolverPool`, routed by problem shape so the warm
caches a job inherits actually match the terms it asserts.  Scoped
leases guarantee the verdicts are independent of which session a job
lands on — a batch gives the same answers as running each job on a
fresh solver.

With ``EngineConfig(workers=N)`` (N > 1), :meth:`run_batch` fans the
batch out over a persistent fleet of worker *processes*, one
``SolverPool`` per worker.  Problem specs are JSON-round-trippable, so
they ship to the workers as their wire dictionaries; results and
certificates come back as the existing JSON wire format (the in-process
artifact object stays behind — its ``repr`` and the problem-specific
details survive).  Jobs are grouped into per-shape FIFO queues and
shapes planned onto workers least-loaded; idle workers then *steal whole
un-started shape queues* from loaded ones
(:mod:`repro.api.scheduler`), so skewed streams keep every worker busy
while every shape's session history — and therefore every result — stays
identical to the sequential run; results are returned in submission
order either way.  (When a batch spans more distinct solver shapes than
``pool_size``, session evictions depend on the cross-shape interleaving
each pool observes, so per-job *statistics* may differ between worker
topologies; verdicts, artifacts and certificates never do.)  A worker
process that dies mid-job is retired and replaced (the job retried once,
then reported failed), mirroring the pool's poisoned-session retry.

Decided ``check`` verdicts are shared *across* sessions and workers
through one check memo per process (:mod:`repro.api.memo`): every
session of the engine's pool uses the engine's
:class:`~repro.api.memo.CheckMemoClient`, and each worker process puts
its own client in front of the parent's store (reached through a
``multiprocessing`` manager).  When a long-lived engine re-plans a
repeated stream onto different workers — the per-batch plan rotation
does this on purpose — the new worker answers the moved shape's checks
from the parent's store instead of re-running the SAT search.  The fleet
and the memo manager persist across batches;
:meth:`SciductionEngine.close` (or dropping the engine) shuts them down.

Per-job controls (both execution modes):

* ``max_conflicts`` — a job-wide CDCL conflict budget spanning all of the
  job's checks, installed with the job's solver lease as one absolute
  conflict ceiling;
* ``timeout`` — a wall-clock limit enforced inside the SAT search loop
  for SMT-backed jobs and inside the reachability oracle's integration
  loop for simulation-backed (switching-logic) jobs;
* :meth:`SciductionEngine.cancel` — pending jobs can be cancelled until
  the batch reaches them; under ``workers > 1`` a submitted job can
  still be cancelled while it is queued behind an in-flight job.

Exhausted budgets, timeouts, and failures never raise out of
:meth:`~SciductionEngine.run_batch`; they are reported as structured
unsuccessful results (``details["outcome"]``) with the job marked
accordingly.
"""

from __future__ import annotations

import enum
import itertools
import multiprocessing
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.annotations import guarded_by
from repro.api.config import EngineConfig
from repro.api.memo import CheckMemoClient, start_shared_memo
from repro.api.pool import SolverPool
from repro.api.problems import JobContext, ProblemSpec, problem_from_dict
from repro.api.results import json_safe, result_from_dict, result_to_dict
from repro.api.scheduler import SchedulerStatistics, WorkStealingScheduler
from repro.core.exceptions import BudgetExceededError, ReproError, SolverError
from repro.core.procedure import SciductionResult
from repro.testing.faults import fault_point

if TYPE_CHECKING:
    from repro.platform.measurement import MeasurementMemo


#: Per-job solver counters stamped into ``details.engine``, in wire order.
_SMT_JOB_COUNTERS = (
    "checks", "sat_answers", "unsat_answers", "variables_generated",
    "clauses_generated", "check_memo_hits", "shared_memo_hits",
)
_SAT_JOB_COUNTERS = ("conflicts", "decisions", "propagations", "learned_clauses")


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed-out"
    BUDGET_EXHAUSTED = "budget-exhausted"
    CANCELLED = "cancelled"


def failure_result(state: JobState, error: str | None = None, **extra: Any) -> SciductionResult:
    """The structured unsuccessful result of a job that ended in ``state``.

    ``details`` holds ``outcome`` (the state's value), then ``error``
    when there is one, then ``extra`` (``partial``, ``fault_chain``).
    """
    details: dict[str, Any] = {"outcome": state.value}
    if error is not None:
        details["error"] = error
    details.update(extra)
    return SciductionResult(success=False, details=details)


@dataclass
class Job:
    """Handle for one submitted problem, on every execution path.

    The handle is returned by :meth:`SciductionEngine.submit` immediately
    and filled in by :meth:`SciductionEngine.run_batch`.  It owns the
    job's wire forms: the request (:meth:`payload`), the one fold of an
    outcome (:meth:`finish`) and the response a remote executor sends
    back (:meth:`response`, :meth:`fold_response`).
    """

    job_id: int
    problem: ProblemSpec
    max_conflicts: int | None = None
    timeout: float | None = None
    label: str | None = None
    state: JobState = JobState.PENDING
    result: SciductionResult | None = None
    error: str | None = None
    elapsed: float = 0.0
    _result_wire: dict | None = field(default=None, repr=False, compare=False)
    # Transient parallel-execution state (parent side; never pickled —
    # only wire dictionaries cross the process boundary).
    _future: Future | None = field(default=None, repr=False, compare=False)
    _crash_retries: int = field(default=0, repr=False, compare=False)
    _fault_chain: list = field(default_factory=list, repr=False, compare=False)

    @property
    def done(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self.state not in (JobState.PENDING, JobState.RUNNING)

    def result_wire(self) -> dict | None:
        """The result's JSON wire form (made once, with the result; a
        remote executor's exactly as received), or None while open."""
        return self._result_wire

    def payload(self) -> dict:
        """The request wire form (inverse of :meth:`from_payload`)."""
        return {
            "job_id": self.job_id,
            "problem": self.problem.to_dict(),
            "max_conflicts": self.max_conflicts,
            "timeout": self.timeout,
            "label": self.label,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Job":
        """Rebuild a pending job from :meth:`payload` output (raises
        :class:`ReproError` for a problem kind this process lacks)."""
        return cls(
            job_id=payload["job_id"],
            problem=problem_from_dict(payload["problem"]),
            max_conflicts=payload["max_conflicts"],
            timeout=payload["timeout"],
            label=payload["label"],
        )

    def finish(
        self,
        state: JobState,
        result: SciductionResult,
        *,
        error: str | None = None,
        elapsed: float | None = None,
        wire: dict | None = None,
        engine_details: dict | None = None,
    ) -> None:
        """Fold one terminal outcome into the handle.

        ``engine_details`` (when given) are stamped into
        ``details.engine`` after the job's own fields; ``wire`` is a
        remote executor's result wire, kept as received.  The state is
        set last: a job that reads ``done`` has its result wire.
        """
        if engine_details is not None:
            result.details.setdefault("engine", {}).update(
                {
                    "job_id": self.job_id,
                    "label": self.label,
                    "state": state.value,
                    "pooled": self.problem.needs_solver,
                    "session_reused": False,
                    **engine_details,
                }
            )
        self.error = error
        if elapsed is not None:
            self.elapsed = elapsed
        self._result_wire = result_to_dict(result) if wire is None else wire
        self.result = result
        self.state = state

    def fail(
        self, state: JobState, error: str | None = None, *, stamp: bool = True, **extra: Any
    ) -> None:
        """End the job with :func:`failure_result`; ``stamp=False`` (a
        cancelled job, a garbled node result) leaves out ``details.engine``."""
        self.finish(
            state,
            failure_result(state, error, **extra),
            error=error,
            engine_details={} if stamp else None,
        )

    def response(self) -> dict:
        """A finished job's outcome in wire form."""
        return {
            "state": self.state.value,
            "error": self.error,
            "elapsed": self.elapsed,
            "result": self._result_wire,
        }

    def fold_response(self, response: dict) -> None:
        """Fold a remote :meth:`response`; a malformed one raises and
        leaves the handle as it was."""
        wire = response["result"]
        self.finish(
            JobState(response["state"]),
            result_from_dict(wire),
            error=response["error"],
            elapsed=response["elapsed"],
            wire=wire,
        )


# ---------------------------------------------------------------------------
# Worker-process machinery (workers > 1)
# ---------------------------------------------------------------------------

#: The per-process engine built by :func:`_initialize_worker`.  One engine —
#: and therefore one :class:`SolverPool` — lives for the whole worker
#: process, so warm sessions amortize across every job the worker runs.
_WORKER_ENGINE: "SciductionEngine | None" = None
#: This worker's client id (stamped into shared-memo calls and payloads).
_WORKER_ID: str = ""
#: This worker's memo client (None without the parent's shared store).
_WORKER_MEMO: CheckMemoClient | None = None


def _initialize_worker(config_wire: dict, memo_proxy: Any, worker_id: str) -> None:
    """Process-pool initializer: build this worker's engine from the wire.

    The worker engine is forced to ``workers=1`` — worker processes run
    their jobs sequentially; parallelism lives in the parent's
    scheduler.  ``shared_check_memo`` is likewise forced off: the
    worker's one memo client is built here, with the *parent's* store
    (``memo_proxy``, a manager proxy) as its remote, and installed on the
    worker pool so every solver session publishes and reads cross-worker.
    Without a proxy every session keeps a private memo.
    """
    global _WORKER_ENGINE, _WORKER_ID, _WORKER_MEMO
    _WORKER_ID = worker_id
    _WORKER_ENGINE = SciductionEngine(
        EngineConfig.from_dict(
            dict(config_wire, workers=1, shared_check_memo=False)
        )
    )
    if memo_proxy is not None:
        _WORKER_MEMO = CheckMemoClient(memo_proxy, worker_id)
        _WORKER_ENGINE.pool.set_memo_backend(_WORKER_MEMO)


def _run_job_in_worker(payload: dict) -> dict:
    """Execute one job (wire form in, wire form out) in a worker process.

    Budget, deadline and statistics semantics are exactly the sequential
    engine's: the payload carries the *relative* timeout, the deadline
    clock starts when the job starts executing here, and the per-job
    statistics deltas are snapshotted by this process's lease — never by
    the parent — so parallel batches report per-job work, not
    pool-lifetime totals.  The worker's executor snapshot rides along
    (outside the result) so the parent can report it per worker in
    :meth:`SciductionEngine.statistics`.
    """
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover — initializer always ran
        raise ReproError("worker process was not initialized")
    # Fault site: `exit` faults armed here (inherited over fork, or via
    # REPRO_FAULTS) kill this worker with no cleanup — the supervised
    # crash-retry path in the parent is exactly what gets exercised.
    fault_point("worker.crash")
    response = engine.run_wire(payload)
    response["worker_id"] = _WORKER_ID
    response["executor"] = engine.executor_statistics(_WORKER_MEMO)
    return response


def _worker_ready() -> bool:
    """No-op submitted by :meth:`_WorkerFleet.prestart` to force the
    executor to fork its worker process immediately."""
    return True


def _fork_context() -> "multiprocessing.context.BaseContext | None":
    """The ``fork`` multiprocessing context when available (else default).

    Forked workers inherit the parent's problem-type registry, so problem
    kinds registered at runtime (plugins, tests) remain resolvable in the
    workers; platforms without ``fork`` fall back to the default start
    method, where only import-time registrations are visible.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return None


class _WorkerFleet:
    """Persistent worker processes (plus the shared-memo manager) of one engine.

    PR 4 built and tore down its executors inside every ``run_batch``
    call; a long-lived service amortizes much better with workers that
    survive across batches — their warm solver pools keep serving
    re-planned shapes, and the shared check memo keeps its entries.  The
    fleet is created lazily on the first parallel batch and lives until
    :meth:`close` (called by :meth:`SciductionEngine.close`, and by a
    ``weakref`` finalizer when an engine is simply dropped).

    One single-process executor per worker index keeps the scheduler's
    placement decisions authoritative — a shape's jobs reach exactly the
    worker the plan (or a steal) routed them to, FIFO.
    """

    def __init__(self, config: EngineConfig) -> None:
        self._config_wire = config.to_dict()
        self._executors: dict[int, ProcessPoolExecutor] = {}
        self._memo_manager: Any = None
        self._memo_proxy: Any = None
        if config.shared_check_memo:
            self._memo_manager, self._memo_proxy = start_shared_memo(
                context=_fork_context()
            )
        self._closed = False

    def submit(self, worker: int, payload: dict) -> Future:
        """Submit one job payload to worker ``worker`` (created lazily).

        Raises:
            ReproError: after :meth:`close` — rebuilding an executor on a
                closed fleet would leak worker processes nothing tracks.
        """
        if self._closed:
            raise ReproError("worker fleet is closed")
        return self._executor(worker).submit(_run_job_in_worker, payload)

    def _executor(self, worker: int) -> ProcessPoolExecutor:
        executor = self._executors.get(worker)
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_fork_context(),
                initializer=_initialize_worker,
                initargs=(self._config_wire, self._memo_proxy, f"worker-{worker}"),
            )
            self._executors[worker] = executor
        return executor

    def prestart(self, workers: int) -> None:
        """Fork every worker process now, from the calling thread.

        ``fork`` from a multithreaded process is unsafe (handler threads
        may hold locks mid-fork); a service that serves HTTP with
        ``workers > 1`` calls this *before* starting its threads, so the
        lazily-created executors never have to fork later.
        """
        for worker in range(workers):
            self._executor(worker).submit(_worker_ready).result()

    def retire(self, worker: int) -> None:
        """Drop a crashed worker's executor; the next submit rebuilds it."""
        executor = self._executors.pop(worker, None)
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def memo_statistics(self) -> dict | None:
        """Counter snapshot of the manager-served shared memo, None without one.

        The snapshot carries ``available``: True when the manager answered,
        False (and no counters) once its process is gone.
        """
        if self._memo_proxy is None:
            return None
        try:
            return dict(self._memo_proxy.statistics(), available=True)
        except Exception:  # noqa: BLE001 — a dead manager fails in many ways
            return {"available": False}

    def close(self) -> None:
        """Shut down every worker process and the memo manager (idempotent).

        Waiting for worker teardown keeps interpreter shutdown clean (an
        abandoned executor's atexit hook races its own pipes).
        """
        if self._closed:
            return
        self._closed = True
        for executor in self._executors.values():
            executor.shutdown(wait=True, cancel_futures=True)
        self._executors.clear()
        if self._memo_manager is not None:
            self._memo_manager.shutdown()
            self._memo_manager = None
            self._memo_proxy = None


@guarded_by("_state_lock", "_jobs", "_worker_statistics", "_platform_memo")
class SciductionEngine:
    """Unified engine running declarative problem specs over pooled solvers.

    Args:
        config: engine configuration (solver flags, pool sizing); one
            config governs every job — problem specs carry only problem
            parameters.
        pool: inject a pre-built :class:`SolverPool` (e.g. to share
            sessions between engines); by default the engine owns one
            sized by ``config.pool_size``.
    """

    def __init__(self, config: EngineConfig | None = None, pool: SolverPool | None = None) -> None:
        self.config = config or EngineConfig()
        #: This process's check memo: every session of this engine's pool
        #: reads and publishes through it, so a verdict decided on one
        #: session short-circuits the same check on another (e.g. after
        #: a session was recycled past the pool bound).  Parallel batches
        #: serve the workers a separate, manager-hosted store (see
        #: :class:`_WorkerFleet`).
        self._memo: CheckMemoClient | None = (
            CheckMemoClient() if self.config.shared_check_memo else None
        )
        self.pool = pool or SolverPool(self.config, memo_backend=self._memo)
        self._jobs: list[Job] = []
        self._job_ids = itertools.count(1)
        # Guards PENDING → RUNNING/CANCELLED transitions: cancel() may be
        # called from another thread (the HTTP front end) while a batch
        # dispatches.
        self._state_lock = threading.Lock()
        self._scheduler_statistics = SchedulerStatistics()
        #: Latest executor snapshot of each worker.
        self._worker_statistics: dict[str, dict] = {}
        self._fleet: _WorkerFleet | None = None
        self._fleet_finalizer: "weakref.finalize | None" = None
        #: This process's memo of platform measurements, built on first
        #: use (see :meth:`_measurement_memo`).
        self._platform_memo: MeasurementMemo | None = None

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down worker processes and the shared-memo manager.

        Only needed for engines that ran parallel batches (their worker
        fleet persists across ``run_batch`` calls); sequential engines
        hold no external resources.  Idempotent; the engine remains
        usable afterwards (a new fleet is built on demand).
        """
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None

    def __enter__(self) -> "SciductionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _measurement_memo(self) -> MeasurementMemo:
        """This process's memo of platform measurements, built on first use.

        Every timing job this engine runs measures through it, so a
        distinct (binary, platform, start state, inputs) run happens
        once per engine process; worker processes each own one.  Built
        lazily because the platform layer's import would otherwise slow
        every engine's start-up.
        """
        with self._state_lock:
            if self._platform_memo is None:
                from repro.platform.measurement import MeasurementMemo

                self._platform_memo = MeasurementMemo()
            return self._platform_memo

    def _worker_fleet(self) -> _WorkerFleet:
        if self._fleet is None:
            self._fleet = _WorkerFleet(self.config)
            # Belt and braces for engines that are dropped without
            # close(): the finalizer references the fleet, never the
            # engine, so it cannot keep the engine alive.
            self._fleet_finalizer = weakref.finalize(self, self._fleet.close)
        return self._fleet

    def prestart_workers(self) -> None:
        """Fork the worker fleet now instead of at the first batch.

        Worker processes are started with the ``fork`` method (it is what
        lets runtime-registered problem kinds resolve in workers), and
        forking is only safe while the process is single-threaded — a
        host that is about to start serving threads (the HTTP service)
        calls this first.  A no-op for ``workers == 1``.
        """
        if self.config.workers > 1:
            self._worker_fleet().prestart(self.config.workers)

    # -- job lifecycle -----------------------------------------------------

    def submit(
        self,
        problem: ProblemSpec | dict | Job,
        max_conflicts: int | None = None,
        timeout: float | None = None,
        label: str | None = None,
    ) -> Job:
        """Queue a problem for the next :meth:`run_batch`.

        Args:
            problem: a spec instance, its wire-format dictionary
                (dispatched through the problem-type registry), or a
                pending :class:`Job` the caller built with its own id
                (the HTTP service passes ``Job.from_payload`` of each
                request), queued as it is.
            max_conflicts: job-wide CDCL conflict budget.
            timeout: wall-clock seconds before the job is preempted.
            label: free-form tag echoed into the result details.
        """
        if isinstance(problem, Job):
            job = problem
        else:
            if isinstance(problem, dict):
                problem = problem_from_dict(problem)
            if not isinstance(problem, ProblemSpec):
                raise ReproError(
                    f"expected a ProblemSpec or wire dict, got {type(problem).__name__}"
                )
            job = Job(
                job_id=next(self._job_ids),
                problem=problem,
                max_conflicts=max_conflicts,
                timeout=timeout,
                label=label,
            )
        # Serialized against prune()'s list swap: an unlocked append can
        # land on the list prune() is about to replace and silently lose
        # the handle (LOCK02).
        with self._state_lock:
            self._jobs.append(job)
        return job

    def cancel(self, job: Job) -> bool:
        """Cancel a job; returns whether the cancellation took.

        Pending jobs always cancel — including jobs of a batch that is
        already in flight under ``workers > 1``: the scheduler holds
        queued jobs in the parent process and only transitions them to
        RUNNING at dispatch, so anything not yet handed to a worker is
        still cancellable (the transition and the cancellation are
        serialized by one lock).  A job a worker is already executing
        cannot be cancelled.
        """
        with self._state_lock:
            if job.state is JobState.PENDING:
                job.fail(JobState.CANCELLED, stamp=False)
                return True
        return False

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Every job this engine still tracks (read-only view).

        By default that is every job ever submitted; long-lived callers
        (the HTTP service) call :meth:`prune` after harvesting results so
        the engine's history — and with it ``run_batch``'s pending scan —
        stays bounded.
        """
        with self._state_lock:
            return tuple(self._jobs)

    def prune(self) -> int:
        """Forget finished jobs (the caller keeps the handles it needs).

        A service that runs forever must not let the engine accumulate
        every result ever produced: the job handles pin full
        :class:`SciductionResult` payloads (models, certificates, wire
        dictionaries).  Open jobs (pending or running) are always kept.

        Returns:
            The number of job handles dropped.
        """
        with self._state_lock:
            kept = [job for job in self._jobs if not job.done]
            dropped = len(self._jobs) - len(kept)
            self._jobs = kept
        return dropped

    # -- execution ---------------------------------------------------------

    def run(
        self,
        problem: ProblemSpec | dict,
        max_conflicts: int | None = None,
        timeout: float | None = None,
    ) -> SciductionResult:
        """Submit one problem and run it immediately."""
        job = self.submit(problem, max_conflicts=max_conflicts, timeout=timeout)
        self._execute(job)
        assert job.result is not None
        return job.result

    def run_wire(self, payload: dict) -> dict:
        """Execute one :meth:`Job.payload`; return its :meth:`Job.response`.

        The single remote-execution surface: worker processes
        (:func:`_run_job_in_worker`) and cluster node agents
        (:mod:`repro.cluster.node`) both run jobs through it, so every
        execution topology produces byte-identical result wire forms.
        The job handle is transient (the submitting side owns the
        authoritative one).  Raises :class:`ReproError` for a problem
        kind this process does not know; the job never starts.
        """
        job = Job.from_payload(payload)
        self._execute(job)
        return job.response()

    def run_batch(
        self, problems: list[ProblemSpec | dict] | None = None
    ) -> list[SciductionResult]:
        """Run every pending job (submitting ``problems`` first).

        Returns results in submission order — independent of the pool's
        session scheduling and of ``config.workers``.  Individual
        failures, exhausted budgets and timeouts are reported in the
        results, never raised.
        """
        for problem in problems or []:
            self.submit(problem)
        with self._state_lock:
            batch = [job for job in self._jobs if job.state is JobState.PENDING]
        self._run_jobs(batch)
        results = []
        for job in batch:
            assert job.result is not None
            results.append(job.result)
        return results

    def _run_jobs(self, batch: list[Job]) -> None:
        """Bring every job of ``batch`` (submission order) to a terminal state."""
        if self.config.workers > 1 and len(batch) > 1:
            self._execute_batch_parallel(batch)
        else:
            for job in batch:
                self._execute(job)

    # -- parallel execution ------------------------------------------------

    def _execute_batch_parallel(self, batch: list[Job]) -> None:
        """Fan ``batch`` out over the worker fleet with work stealing.

        Jobs are grouped into per-shape FIFO queues and shapes assigned
        to workers by the deterministic least-loaded plan; idle workers
        then steal whole un-started shape queues from loaded ones (see
        :mod:`repro.api.scheduler`).  A shape's jobs always hit one
        worker, in submission order, on one warm session — exactly the
        session history the sequential engine produces — so parallel
        results match sequential results byte for byte, and they are
        collected back in submission order regardless of which worker
        finishes first.

        The plan's tie-break rotates once per batch: on a long-lived
        engine a repeated stream lands its shapes on different workers
        over time, and the cross-worker check memo converts the move
        into shared-memo hits instead of cold re-searches.
        """
        workers = self.config.workers
        fleet = self._worker_fleet()

        class _Transport:
            @staticmethod
            def submit(worker: int, job: Job) -> Future:
                job._future = fleet.submit(worker, job.payload())
                return job._future

            @staticmethod
            def retire(worker: int) -> None:
                fleet.retire(worker)

        def retry_crash(job: Job) -> bool:
            job._fault_chain.append(
                f"worker process crashed (attempt {job._crash_retries + 1})"
            )
            if job._crash_retries >= self.config.job_retry_limit:
                return False
            job._crash_retries += 1
            return True

        def complete(job: Job, kind: str, value: Any) -> None:
            if kind == "payload":
                job.fold_response(value)
                # statistics() reads this dict from HTTP handler threads
                # while the dispatch loop completes jobs (LOCK02).
                with self._state_lock:
                    self._worker_statistics[value["worker_id"]] = value["executor"]
            elif kind == "crashed":
                # The full fault history, one entry per attempt — a
                # terminal failure names every crash that consumed the
                # retry budget.
                job.fail(
                    JobState.FAILED,
                    "worker process crashed (retry budget of "
                    f"{self.config.job_retry_limit} exhausted)",
                    fault_chain=list(job._fault_chain),
                )
            elif kind == "error":
                # The worker returned an unrunnable-job error (e.g. a
                # problem kind not registered in the worker process).
                job.fail(JobState.FAILED, str(value))
            elif kind == "cancelled" and job.result is None:
                # Normally cancel() recorded the result before the future
                # was dropped; a future cancelled from outside (e.g. the
                # fleet shut down mid-batch) still needs one — run_batch
                # promises a structured result for every job, never a
                # raise.
                job.fail(JobState.CANCELLED, stamp=False)

        scheduler = WorkStealingScheduler(
            transport=_Transport,
            claim=self._claim,
            complete=complete,
            retry_crash=retry_crash,
            statistics=self._scheduler_statistics,
        )
        rotation = (self._scheduler_statistics.batches) % workers
        scheduler.run_batch(
            [(job.problem.shape_key(), job) for job in batch],
            workers=workers,
            rotation=rotation,
        )

    def _claim(self, job: Job) -> bool:
        """PENDING → RUNNING under the lock :meth:`cancel` takes."""
        with self._state_lock:
            if job.state is not JobState.PENDING:
                return False
            job.state = JobState.RUNNING
            return True

    def _execute(self, job: Job) -> None:
        if not self._claim(job):
            return
        deadline = (
            time.monotonic() + job.timeout if job.timeout is not None else None  # analysis: allow[WC01] sanctioned deadline anchor; budget enforcement only
        )
        start = time.perf_counter()  # analysis: allow[WC01] elapsed-time accounting for the job record; not a decision input
        retries = 0
        fault_chain: list[str] = []
        while True:
            lease = (
                self.pool.acquire(
                    shape=job.problem.shape_key(),
                    max_conflicts=job.max_conflicts,
                    deadline=deadline,
                )
                if job.problem.needs_solver
                else None
            )
            retire = False
            try:
                # Fault sites (no-ops unless a test armed them): a slow
                # engine and an in-process execution fault, both folded
                # into the job outcome like any organic failure.
                fault_point("engine.slow")
                fault_point("engine.crash")
                context = JobContext(
                    config=self.config,
                    lease=lease,
                    deadline=deadline,
                    measurement_memo=self._measurement_memo(),
                )
                result = job.problem.run(context)
                state, error = JobState.COMPLETED, None
            except BudgetExceededError as exhausted:
                timed_out = deadline is not None and time.monotonic() >= deadline  # analysis: allow[WC01] sanctioned deadline probe; classifies timeout vs budget exhaustion
                state = JobState.TIMED_OUT if timed_out else JobState.BUDGET_EXHAUSTED
                error = str(exhausted)
                # Reusable partial progress (e.g. the OGIS example set);
                # resubmitting the problem with it resumes the job
                # instead of restarting from zero.
                partial = {"partial": json_safe(exhausted.partial)} if exhausted.partial else {}
                result = failure_result(state, error, **partial)
            except SolverError as poisoned:
                # A pooled session can be poisoned by an earlier tenant
                # (e.g. a variable redeclared at a different width).
                # Retire it and retry the job on a fresh solver, bounded
                # by the per-job retry budget — and only when the
                # session actually had an earlier tenant; a fresh solver
                # failing the same way would just repeat the job's side
                # effects.
                retire = True
                fault_chain.append(
                    f"poisoned session (attempt {retries + 1}): {poisoned}"
                )
                if (
                    lease is not None
                    and lease.reused
                    and retries < self.config.job_retry_limit
                ):
                    retries += 1
                    self.pool.retire(lease)
                    continue
                state, error = JobState.FAILED, str(poisoned)
                result = failure_result(state, error, fault_chain=list(fault_chain))
            except Exception as failure:  # noqa: BLE001 — batch jobs never raise
                state, error = JobState.FAILED, str(failure)
                result = failure_result(state, error)
            finally:
                if lease is not None and not lease.released:
                    job_smt = lease.smt_statistics()
                    job_sat = lease.sat_statistics()
                    if retire:
                        self.pool.retire(lease)
                    else:
                        self.pool.release(lease)
                else:
                    job_smt = job_sat = None
            break
        engine_details: dict[str, Any] = {
            "session_reused": lease is not None and lease.reused
        }
        if job_smt is not None:
            # Per-job accounting: deltas charged to this lease, never the
            # pooled solver's lifetime totals.
            engine_details["smt_job_statistics"] = {
                name: getattr(job_smt, name) for name in _SMT_JOB_COUNTERS
            }
            engine_details["sat_job_statistics"] = {
                name: getattr(job_sat, name) for name in _SAT_JOB_COUNTERS
            }
        job.finish(
            state,
            result,
            error=error,
            elapsed=time.perf_counter() - start,  # analysis: allow[WC01] elapsed-time accounting for the job record; not a decision input
            engine_details=engine_details,
        )

    # -- reporting ---------------------------------------------------------

    def statistics(self) -> dict:
        """JSON-ready engine-wide counters (the ``/stats`` payload).

        Aggregates five layers:

        * ``pool`` — the in-process :class:`~repro.api.pool.SolverPool`
          (sequential execution and ``run()`` calls);
        * ``scheduler`` — batches, dispatches, steals and crash
          retirements of the parallel work-stealing scheduler;
        * ``workers`` — each worker process's latest
          :meth:`executor_statistics` snapshot, reported with every
          finished job: its cumulative pool counters, its memo client's
          counters under ``memo_client`` (``local_hits``,
          ``remote_hits``, ``degraded``, ``degradations`` …; None without
          a shared store) and its measurement memo's under
          ``platform_memo``;
        * ``shared_memo`` — the check-memo store counters, summed over
          the engine's in-process store and the manager-served store the
          workers use.  ``cross_worker_hits`` counts verdicts decided by
          one worker and reused by another.  ``manager_available`` says
          whether the manager-served store's counters are in the sums:
          None without one, False once its process is gone;
        * ``platform_memo`` — this process's memo of platform
          measurements (``lookups``, ``hits``, ``evictions``,
          ``entries``, ``capacity``).  Like every counter here it stays
          out of results.
        """
        memo = {}
        stores = []
        manager_available = None
        if self._memo is not None:
            stores.append(self._memo.local.statistics())
        if self._fleet is not None:
            fleet_memo = self._fleet.memo_statistics()
            if fleet_memo is not None:
                manager_available = fleet_memo.pop("available")
                stores.append(fleet_memo)
        for record in stores:
            for key, value in record.items():
                if key == "capacity":
                    # The configured bound, not a counter — never summed.
                    memo[key] = max(memo.get(key, 0), value)
                else:
                    memo[key] = memo.get(key, 0) + value
        memo["manager_available"] = manager_available
        with self._state_lock:
            workers = dict(sorted(self._worker_statistics.items()))
        return {
            "pool": asdict(self.pool.statistics),
            "scheduler": self._scheduler_statistics.as_dict(),
            "workers": workers,
            "shared_memo": memo,
            "platform_memo": self._measurement_memo().statistics(),
        }

    def executor_statistics(self, memo_client: CheckMemoClient | None) -> dict:
        """Pool counters plus ``memo_client`` and ``platform_memo``: the
        snapshot a worker or node attaches to every response it sends."""
        return dict(
            asdict(self.pool.statistics),
            memo_client=None if memo_client is None else memo_client.statistics(),
            platform_memo=self._measurement_memo().statistics(),
        )

    def batch_report(self) -> list[dict]:
        """JSON-ready summaries of every finished job."""
        report = []
        for job in self.jobs:
            wire = job.result_wire()
            if wire is None:
                continue
            report.append(
                {
                    "job_id": job.job_id,
                    "label": job.label,
                    "state": job.state.value,
                    "elapsed": job.elapsed,
                    "problem": job.problem.to_dict(),
                    "result": wire,
                }
            )
        return report
