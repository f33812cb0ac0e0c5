"""One configuration surface for the whole sciduction engine.

:class:`EngineConfig` is one frozen, JSON-serializable dataclass that
every layer consumes: solver sessions are built from
:meth:`EngineConfig.solver_options`, and the pool, engine and service
read the remaining fields directly.

The module deliberately imports nothing from the application layers so it
can be imported from anywhere in the package without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.core.exceptions import ReproError


@dataclass(frozen=True)
class EngineConfig:
    """All engine-level tuning knobs in one place.

    Attributes:
        simplify_terms: run the word-level simplifier over every formula
            before bit-blasting (ablation knob).
        polarity_aware: Plaisted–Greenbaum CNF for asserted formulas
            (ablation knob).
        gc_dead_clauses: dead-scope clause threshold triggering SAT
            database garbage collection; ``None`` disables it.
        workers: number of worker *processes* backing
            :meth:`~repro.api.engine.SciductionEngine.run_batch`.  The
            default of 1 runs jobs sequentially in-process; ``workers > 1``
            fans the batch out over a process pool, one
            :class:`~repro.api.pool.SolverPool` per worker, with jobs
            routed to workers by problem shape so every shape's session
            history (and therefore every result) is identical to the
            sequential run.
        pool_size: maximum number of idle persistent solver sessions kept
            warm by the engine's :class:`~repro.api.pool.SolverPool`.
            Sessions are keyed by problem shape (see
            :meth:`~repro.api.problems.ProblemSpec.shape_key`), so the
            default of 4 lets a mixed stream keep one warm session per
            shape; the least-recently-used session is recycled past the
            limit.
        reuse_sessions: when False the pool hands out a fresh solver for
            every lease (the per-job-fresh baseline measured by the
            batch-throughput benchmark).
        shared_check_memo: share decided check answers *across* solver
            sessions and worker processes: the engine's pool sessions
            all use one :class:`~repro.api.memo.CheckMemoClient`, and
            worker processes put their process-local client in front of
            the parent's store (reached through a ``multiprocessing``
            manager).  Keys are the process-independent wire form of
            ``(layout, assertions, extras, frontier)``, so a verdict
            decided on worker A short-circuits the same check on worker
            B — the situation a long-lived service creates whenever a
            problem shape moves between workers (re-planned batches,
            stolen shape queues, sessions recycled past the pool bound).
            When False every session gets a private memo.
        intern_table_limit: once the process-wide hash-consing table
            exceeds this many entries, the next lease release clears it
            (and the simplify table) and drops every idle pooled session
            with the releasing one, since their caches hold the old
            terms (``None`` = never).  Below the limit, cross-job term
            sharing — and therefore bit-blast-cache amortization — is
            fully preserved; past it, each shape's next lease starts
            cold and routing hits resume after it.  A reset changes no
            verdict.
        job_retry_limit: per-job budget for supervised retries — both a
            worker process crashing mid-job (parallel execution) and a
            poisoned pooled session failing a job (sequential
            execution) consume from it.  Once exhausted the job reaches
            a terminal ``failed`` state whose details carry the fault
            chain (one entry per attempt), so an operator can tell a
            persistent fault from a transient one.  0 disables retries;
            retries run immediately.
    """

    simplify_terms: bool = True
    polarity_aware: bool = True
    gc_dead_clauses: int | None = 2000
    workers: int = 1
    pool_size: int = 4
    reuse_sessions: bool = True
    shared_check_memo: bool = True
    intern_table_limit: int | None = 1_000_000
    job_retry_limit: int = 1

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ReproError("pool_size must be at least 1")
        if self.workers < 1:
            raise ReproError("workers must be at least 1")
        if self.job_retry_limit < 0:
            raise ReproError("job_retry_limit must be non-negative")

    def solver_options(self) -> dict:
        """Keyword arguments for :class:`~repro.smt.solver.SmtSolver`."""
        return {
            "simplify_terms": self.simplify_terms,
            "polarity_aware": self.polarity_aware,
            "gc_dead_clauses": self.gc_dead_clauses,
        }

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected so that config typos fail loudly.
        """
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**data)
