"""Persistent SMT solver sessions shared across jobs.

A production sciduction service answers a stream of jobs whose SMT
queries overlap heavily — repeated problem shapes re-blast the same term
skeletons when every job builds a fresh
:class:`~repro.smt.solver.SmtSolver`.  :class:`SolverPool` keeps a small
set of long-lived incremental solvers and *leases* them to jobs:

* leases are routed by **problem shape**: each idle session remembers the
  shape key (problem kind + bit-width signature, see
  :meth:`~repro.api.problems.ProblemSpec.shape_key`) of the job it last
  served, and :meth:`SolverPool.acquire` hands a job the session that
  last solved the same shape — so a job's warm bit-blast caches actually
  match the terms it is about to assert, instead of whatever a
  round-robin slot happened to accumulate;
* there is one way in: :meth:`SolverLease.base_session` opens (or, for a
  same-shape tenant, reuses) a fingerprinted *base scope*, the caller
  asserts its job-independent constraints there and calls
  :meth:`SolverLease.seal_base`, and every job scope sits on top of it;
* there is one way out: at release the job scope is popped and one
  :meth:`~repro.smt.solver.SmtSolver.reset_to_base` pass returns the
  session to the watermark taken at seal time;
* the first release also moves the session's long-lived object graph
  into the cyclic garbage collector's permanent generation
  (``gc.freeze()``);
* each lease snapshots the solver's statistics at hand-over, so per-job
  accounting is a delta, never the pool-lifetime cumulative counts;
* :meth:`SolverPool.acquire` installs a job's limits (one absolute
  conflict ceiling and a deadline) on the leased solver, and release or
  retire clears them first, so no later tenant inherits them;
* once the process-wide intern table has grown past
  ``config.intern_table_limit``, a release starts a new term generation
  (:func:`repro.smt.terms.clear_intern_table`) and drops every idle
  session with the releasing one: their bit-blaster caches and base
  caches hold old-generation terms, so dropping them with the table is
  what bounds memory.  Each shape's next lease starts cold, and routing
  hits resume from the one after.  Below the limit nothing is evicted.

What a warm session keeps from one job to the next is exactly three
things: the sealed base scope's encoding (its SAT variables and
clauses), the bit-blaster caches over those variables, and the
:attr:`SolverLease.base_cache` of values derived from the base's
fingerprint — GameTime keeps its path encodings there (interned terms
keyed by path edges), so a repeated path is not re-encoded.  Everything
else goes at release: the finished job's variables, clauses and blaster
entries, *every* learned clause (base-scope ones included; a session
that never sealed a base keeps only those locked as reasons of level-0
facts), and the branching heuristics — so the next tenant runs exactly
the search a fresh solver over the same encoding would.

The check memo is not part of a session.  Every solver the pool creates
gets the pool's memo backend — the engine's one
:class:`~repro.api.memo.CheckMemoClient` — or, without one, a private
client of its own.  Memo keys carry the blaster's layout signature and
variable frontier, so an entry recorded under one base scope can only
answer a check whose layout matches it, in any session.

``config.pool_size`` bounds the number of *idle* sessions kept warm
(least-recently-used sessions are recycled past the bound); concurrent
leases may temporarily exceed it.  Sessions are single-threaded and
leases must be released in LIFO order with respect to each other (the
engine runs jobs sequentially per process, which trivially satisfies
this).
"""

from __future__ import annotations

import gc

from dataclasses import dataclass
from typing import Any

from repro.api.config import EngineConfig
from repro.api.memo import CheckMemoClient
from repro.core.exceptions import SolverError
from repro.smt.sat import SatStatistics
from repro.smt.solver import SmtSolver, SmtStatistics
from repro.smt.terms import clear_intern_table, intern_table_size


@dataclass
class PoolStatistics:
    """Counters describing the pool's behaviour over its lifetime."""

    leases: int = 0
    #: Leases that reused a solver warmed up by an earlier job.
    reused_sessions: int = 0
    solvers_created: int = 0
    #: Solvers discarded via :meth:`SolverPool.retire` (poisoned sessions)
    #: or recycled past the ``pool_size`` / intern-table bounds.
    solvers_retired: int = 0
    #: Intern-table entries dropped by resets at the intern-table limit.
    intern_entries_evicted: int = 0
    #: Leases routed to a session that last solved the same problem shape.
    routing_hits: int = 0
    #: Leases that found no same-shape idle session and started cold.
    routing_misses: int = 0
    #: Learned clauses dropped at lease release.
    trimmed_learned_clauses: int = 0


@dataclass
class _SessionRecord:
    """Pool-side state of one solver session (leased or idle)."""

    solver: SmtSolver
    #: Shape key of the job this session last served (None if never routed).
    shape: str | None
    #: Monotone recency stamp (higher = more recently released).
    stamp: int
    #: Fingerprint of the persistent base scope kept open *across* leases
    #: (see :meth:`SolverLease.base_session`), or None when the session is
    #: parked at its root.
    base_fingerprint: str | None = None
    #: Results derived from the sealed base scope alone, kept as long as
    #: it is (see :attr:`SolverLease.base_cache`); None while unsealed.
    base_cache: dict | None = None
    #: Whether this session's long-lived graph has been gc-frozen.
    frozen: bool = False


class SolverLease:
    """One job's hold on a pooled solver session.

    Obtained from :meth:`SolverPool.acquire`; the application layer gets
    its solver through :meth:`base_session` (and :meth:`seal_base`), then
    the lease is released through :meth:`SolverPool.release` (or
    :meth:`SolverPool.retire` if the session misbehaved).
    """

    def __init__(self, pool: "SolverPool", record: _SessionRecord, reused: bool) -> None:
        self._pool = pool
        self._record = record
        self._solver = record.solver
        #: Whether this lease reuses a solver warmed by a previous job.
        self.reused = reused
        self._smt_base = self._solver.statistics.snapshot()
        self._sat_base = self._solver.sat_statistics()
        #: Fingerprint handed to :meth:`base_session` but not yet sealed.
        self._pending_fingerprint: str | None = None
        self.released = False

    @property
    def solver(self) -> SmtSolver:
        """The leased solver (prefer :meth:`base_session` for job execution)."""
        return self._solver

    @property
    def shape(self) -> str | None:
        """Shape key the lease was routed by."""
        return self._record.shape

    def _check_open(self) -> None:
        if self.released:
            raise SolverError("lease already released; acquire a new one")

    def _pop_to(self, depth: int) -> None:
        while self._solver.scope_depth > depth:
            self._solver.pop()

    def base_session(self, fingerprint: str) -> tuple[SmtSolver, bool]:
        """A job scope stacked on a persistent, fingerprinted base scope.

        The base scope (e.g. the OGIS well-formedness + symbolic-run
        skeleton, or an empty per-CFG scope for GameTime) stays open
        between leases, so a later same-shape tenant skips re-encoding it
        (see the module docstring for what else survives a release).

        Returns ``(solver, base_ready)``.  When the session's sealed base
        fingerprint equals ``fingerprint``, the base scope is kept, a
        fresh job scope is pushed on top, and ``base_ready`` is True.
        Otherwise everything is popped to the root, one empty scope is
        pushed, and ``base_ready`` is False: the caller asserts its base
        constraints into that scope and calls :meth:`seal_base`, which
        records the fingerprint and pushes the job scope.  Either way the
        caller sees fresh-solver *semantics* on a warm solver.

        Raises:
            SolverError: if the lease has already been released (a stale
                handle must not mutate a solver now owned by another job).
        """
        self._check_open()
        if (
            self._record.base_fingerprint == fingerprint
            and self._solver.scope_depth == 1
        ):
            self._pending_fingerprint = None
            self._solver.push()
            return self._solver, True
        self._record.base_fingerprint = None
        self._record.base_cache = None
        self._pending_fingerprint = fingerprint
        self._pop_to(0)
        self._solver.push()
        return self._solver, False

    def seal_base(self) -> None:
        """Seal the base scope opened by :meth:`base_session` and open the
        job scope above it.

        The base constraints are encoded into the SAT core and the solver
        takes its watermark (:meth:`~repro.smt.solver.SmtSolver.seal_base`):
        every release resets the session to it, dropping the finished
        job's encoding (variables, gate definitions, learned clauses)
        wholesale while the sealed base encoding stays warm for the next
        same-shape job.

        Raises:
            SolverError: without a preceding unsealed ``base_session``.
        """
        self._check_open()
        if self._pending_fingerprint is None:
            raise SolverError("seal_base requires an unsealed base_session")
        self._solver.seal_base()
        self._record.base_fingerprint = self._pending_fingerprint
        self._record.base_cache = {}
        self._pending_fingerprint = None
        self._solver.push()

    @property
    def base_cache(self) -> dict | None:
        """A dict that lives exactly as long as the sealed base scope.

        Created empty by :meth:`seal_base`, kept by every later
        same-fingerprint :meth:`base_session`, dropped when the base is
        popped or re-sealed under another fingerprint, and gone with the
        session.  The fingerprint pins everything a cached value may
        depend on, so a tenant can store values derived from it (the
        GameTime path encodings) for the next tenant.  None until the
        base is sealed.
        """
        return self._record.base_cache

    def close(self) -> None:
        """Pop back to the persistent base scope — or the root when none
        is sealed (called by the pool on release)."""
        self._pop_to(1 if self._record.base_fingerprint is not None else 0)

    # -- per-job accounting (the pooled-solver statistics contract) -------

    def smt_statistics(self) -> SmtStatistics:
        """SMT work charged to this lease (delta since acquisition)."""
        return self._solver.statistics.delta_since(self._smt_base)

    def sat_statistics(self) -> SatStatistics:
        """CDCL work charged to this lease (delta since acquisition)."""
        return self._solver.sat_statistics().delta_since(self._sat_base)


class SolverPool:
    """A pool of persistent incremental SMT solver sessions, routed by shape.

    Args:
        config: engine configuration; up to ``pool_size`` idle sessions
            are kept warm, solvers are constructed with
            ``config.solver_options()``, and ``reuse_sessions`` /
            ``intern_table_limit`` govern reuse and intern-table resets.
        memo_backend: the check memo every created solver shares (see
            :meth:`set_memo_backend`); None gives each solver a private
            :class:`~repro.api.memo.CheckMemoClient`.
    """

    def __init__(
        self, config: EngineConfig | None = None, memo_backend: Any | None = None
    ) -> None:
        self.config = config or EngineConfig()
        #: Idle (not currently leased) warm sessions, unordered; recency
        #: is tracked by each session's ``stamp``.
        self._idle: list[_SessionRecord] = []
        self._clock = 0
        self._active: list[SolverLease] = []
        self.statistics = PoolStatistics()
        self._memo_backend = memo_backend

    def set_memo_backend(self, backend: Any) -> None:
        """Install the check memo shared by every session of the pool.

        Solvers created *after* the call use it (see
        :meth:`~repro.smt.solver.SmtSolver.set_memo_backend`); existing
        idle sessions are updated in place.  The engine wires this up:
        a sequential engine hands its sessions one local
        :class:`~repro.api.memo.CheckMemoClient`, a worker process one
        whose remote is the parent's store, a cluster node one whose
        remote is the memo service.
        """
        self._memo_backend = backend
        for idle in self._idle:
            idle.solver.set_memo_backend(backend)

    def acquire(
        self,
        shape: str | None = None,
        *,
        max_conflicts: int | None = None,
        deadline: float | None = None,
    ) -> SolverLease:
        """Lease a solver session, preferring one warmed on ``shape``.

        ``max_conflicts`` and ``deadline`` are the job's limits, installed
        with :meth:`~repro.smt.solver.SmtSolver.set_job_limits`.

        Routing policy (when ``reuse_sessions`` is on):

        1. an idle session whose last job had the same shape — a *routing
           hit*: its bit-blast caches and sealed base scope match the
           work about to arrive;
        2. otherwise a fresh solver (a miss), retiring the
           least-recently-used idle session first when the pool is
           already at ``pool_size``.  A wrong-shape warm session is never
           handed out: its variable names typically recur at different
           bit widths, so the tenant would poison it mid-job and re-run
           on a fresh solver anyway — paying for the job twice.

        Because every shape keeps its own session while the pool has
        room, a shape's session history depends only on that shape's own
        job sequence — which is what makes parallel (per-worker-pool)
        execution return results identical to the sequential run.  (Past
        ``pool_size`` distinct shapes, evictions depend on the global
        cross-shape interleaving, so per-job *statistics* may differ
        between worker topologies; verdicts and artifacts never do.)
        """
        self._clock += 1
        self.statistics.leases += 1
        record: _SessionRecord | None = None
        if self.config.reuse_sessions:
            match = None
            for idle in self._idle:
                if idle.shape == shape and (
                    match is None or idle.stamp > match.stamp
                ):
                    match = idle
            if match is not None:
                self._idle.remove(match)
                record = match
                self.statistics.routing_hits += 1
            else:
                self.statistics.routing_misses += 1
                while len(self._idle) >= self.config.pool_size:
                    victim = min(self._idle, key=lambda idle: idle.stamp)
                    self._idle.remove(victim)
                    self.statistics.solvers_retired += 1
        else:
            self.statistics.routing_misses += 1
        reused = record is not None
        if record is None:
            solver = SmtSolver(**self.config.solver_options())
            solver.set_memo_backend(self._memo_backend or CheckMemoClient())
            record = _SessionRecord(solver, shape, self._clock)
            self.statistics.solvers_created += 1
        record.solver.set_job_limits(max_conflicts, deadline)
        lease = SolverLease(self, record, reused)
        self._active.append(lease)
        if reused:
            self.statistics.reused_sessions += 1
        return lease

    def release(self, lease: SolverLease) -> None:
        """Return a lease: pop to the sealed base, reset the session, clean up.

        The session is put back on the idle list keyed by the lease's
        shape (evicting the least-recently-used session past
        ``pool_size``), reset to what the module docstring says a warm
        session keeps.  Past ``config.intern_table_limit`` the release
        clears the intern table and drops every idle session instead.
        """
        self._finish(lease, retire=False)

    def retire(self, lease: SolverLease) -> None:
        """Release a lease *and* discard its solver.

        Used when a session has been poisoned — e.g. a job redeclared a
        variable name at a different width than an earlier tenant, which
        the bit-blaster rejects.  The intern table is left as it is.
        """
        self._finish(lease, retire=True)

    def _finish(self, lease: SolverLease, retire: bool) -> None:
        if lease.released:
            return
        if lease is not (self._active[-1] if self._active else None):
            raise SolverError("solver leases must be released in LIFO order")
        self._active.pop()
        lease.released = True
        lease.solver.set_job_limits()
        try:
            lease.close()
        except Exception:
            retire = True  # a session that cannot be reset is poisoned
        if retire:
            self.statistics.solvers_retired += 1
            return
        limit = self.config.intern_table_limit
        if limit is not None and intern_table_size() > limit:
            # A new term generation: every idle session's blaster and base
            # caches hold old-generation terms that would keep the cleared
            # table's memory alive, and a rebuilt term would re-blast into
            # duplicate gates beside them — so the sessions go too.
            self.statistics.intern_entries_evicted += clear_intern_table()
            self.statistics.solvers_retired += len(self._idle) + 1
            self._idle = []
            return
        if not self.config.reuse_sessions:
            return
        # Hand the next tenant the sealed base encoding with a pristine
        # search state: without the reset, the previous job's learned
        # clauses, VSIDS activities and saved phases steer the next search
        # off the trajectory a fresh solver would take — empirically a net
        # loss on these workloads.
        self.statistics.trimmed_learned_clauses += lease.solver.reset_to_base()
        if not lease._record.frozen:
            # The session's clause database, watch lists and blaster
            # caches are long-lived from here on; without a freeze every
            # generation-2 cyclic collection re-walks them, which alone
            # costs warm sessions their wall-time edge over fresh
            # solvers.  Collect first so pending cyclic garbage does not
            # become permanent (sessions are created rarely — once per
            # shape in steady state — so the full collection amortizes).
            lease._record.frozen = True
            gc.collect()
            gc.freeze()
        self._clock += 1
        lease._record.stamp = self._clock
        self._idle.append(lease._record)
        while len(self._idle) > self.config.pool_size:
            victim = min(self._idle, key=lambda idle: idle.stamp)
            self._idle.remove(victim)
            self.statistics.solvers_retired += 1

    def close(self) -> None:
        """Drop every pooled solver (active leases must be released first)."""
        if self._active:
            raise SolverError("cannot close the pool while leases are active")
        self._idle = []


def private_solver(config: EngineConfig) -> SmtSolver:
    """A solver outside any pool, built from ``config.solver_options()``,
    with a private :class:`~repro.api.memo.CheckMemoClient` of its own."""
    solver = SmtSolver(**config.solver_options())
    solver.set_memo_backend(CheckMemoClient())
    return solver
