"""One configuration surface for the whole sciduction engine.

Before :mod:`repro.api`, the solver knobs introduced by the incremental
and query-shrinking passes (``reencode_each_check``, ``simplify_terms``,
``polarity_aware``, ``gc_dead_clauses``) were hand-threaded as loose
kwargs through :class:`~repro.ogis.encoding.SynthesisEncoder`,
:class:`~repro.ogis.synthesizer.OgisSynthesizer` and
:class:`~repro.cfg.ssa.PathConstraintBuilder`, each copy drifting
independently.  :class:`EngineConfig` replaces all of them: one frozen,
JSON-serializable dataclass that every layer consumes via
:meth:`EngineConfig.solver_options`.

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
        reencode_each_check: rebuild a fresh SAT solver for every check
            (the pre-incremental escape hatch / benchmark baseline).
        adaptive_restarts: use glucose-style LBD-moving-average restarts
            instead of the default Luby sequence.
        max_conflicts: default per-check CDCL conflict budget (``None``
            = unlimited); per-*job* budgets are set at submit time and
            override nothing here — both limits apply independently.
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
        release_clause_lbd: LBD retention threshold applied to a pooled
            session's learned clauses when a job releases its lease:
            learned clauses with LBD above the threshold are dropped, so
            the warm clause database stays lean enough that session reuse
            is a wall-time win, not just an encoding win.  The default of
            0 drops *all* learned clauses — together with the release-time
            heuristic reset this makes a warm session replay exactly the
            search a fresh solver would run, minus the encoding work;
            ``N >= 1`` additionally keeps glue/binary clauses with LBD ≤ N
            (cross-job lemma transfer, which can help or perturb);
            ``None`` disables the trim entirely.
        memoize_checks: let every solver memoize decided ``check``
            answers keyed by the exact asserted-formula sequence (see
            :class:`~repro.smt.solver.SmtSolver`).  On a warm shape-routed
            session a repeated job replays the same query sequence, so
            its checks answer from the memo without running the SAT
            search — this is the warm-cache hit that makes pooled
            throughput beat per-job-fresh solving.  Fresh solvers carry
            the same flag (one config governs both), they just never see
            a repeat within their one-job lifetime.
        shared_check_memo: additionally share decided check answers
            *across* solver sessions and worker processes through a
            :class:`~repro.api.memo.SharedCheckMemo` owned by the engine
            (workers reach it through a ``multiprocessing`` manager).
            Keys are the process-independent wire form of ``(assertions,
            extras, frontier)``, so a verdict decided on worker A
            short-circuits the same check on worker B — the situation a
            long-lived service creates whenever a problem shape moves
            between workers (re-planned batches, stolen shape queues,
            sessions recycled past the pool bound).  Requires
            ``memoize_checks``; ignored without it.
        shared_memo_size: LRU entry bound of the shared check memo.
        gc_freeze_sessions: move each pooled session's long-lived object
            graph (clause database, watch lists, bit-blast caches) into
            the cyclic garbage collector's permanent generation the first
            time the session is released (``gc.collect()`` then
            ``gc.freeze()``, the standard long-lived-service pattern).
            Without this, every generation-2 collection re-walks the warm
            sessions' graphs and session reuse loses its wall-time edge
            over fresh solvers.  The freeze affects the whole process:
            objects alive at freeze time are exempted from cyclic
            collection (reference counting still frees them normally).
        intern_table_limit: once the global hash-consing table exceeds
            this many entries, the pool evicts each finished job's
            interned terms at lease release and recycles the session
            that cached them (``None`` = never).  Below the limit,
            cross-job term sharing — and therefore bit-blast-cache
            amortization — is fully preserved; past it, memory is
            genuinely bounded at the cost of cold sessions.
        job_retry_limit: per-job budget for supervised retries — both a
            worker process crashing mid-job (parallel execution) and a
            poisoned pooled session failing a job (sequential
            execution) consume from it.  Once exhausted the job reaches
            a terminal ``failed`` state whose details carry the fault
            chain (one entry per attempt), so an operator can tell a
            persistent fault from a transient one.  0 disables retries.
        retry_backoff: base seconds slept before retry attempt ``n``
            (``retry_backoff * 2**(n-1)``, exponential).  The default
            of 0 retries immediately — correct for poisoned-session
            retries, which are deterministic; raise it on deployments
            where crashes are resource-driven and immediate retries
            would just crash again.
    """

    simplify_terms: bool = True
    polarity_aware: bool = True
    gc_dead_clauses: int | None = 2000
    reencode_each_check: bool = False
    adaptive_restarts: bool = False
    max_conflicts: int | None = None
    workers: int = 1
    pool_size: int = 4
    reuse_sessions: bool = True
    release_clause_lbd: int | None = 0
    memoize_checks: bool = True
    shared_check_memo: bool = True
    shared_memo_size: int = 4096
    gc_freeze_sessions: bool = True
    intern_table_limit: int | None = 1_000_000
    job_retry_limit: int = 1
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError("workers must be at least 1")
        if self.shared_memo_size < 1:
            raise ReproError("shared_memo_size must be at least 1")
        if self.job_retry_limit < 0:
            raise ReproError("job_retry_limit must be non-negative")
        if self.retry_backoff < 0:
            raise ReproError("retry_backoff must be non-negative")

    def solver_options(self) -> dict:
        """Keyword arguments for :class:`~repro.smt.solver.SmtSolver`."""
        return {
            "max_conflicts": self.max_conflicts,
            "reencode_each_check": self.reencode_each_check,
            "simplify_terms": self.simplify_terms,
            "polarity_aware": self.polarity_aware,
            "gc_dead_clauses": self.gc_dead_clauses,
            "restart_strategy": "glucose" if self.adaptive_restarts else "luby",
            "memoize_checks": self.memoize_checks,
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
