"""Persistent SMT solver sessions shared across jobs.

A production sciduction service answers a stream of jobs whose SMT
queries overlap heavily — repeated problem shapes re-blast the same term
skeletons and re-derive the same learned clauses when every job builds a
fresh :class:`~repro.smt.solver.SmtSolver`.  :class:`SolverPool` keeps a
small set of long-lived incremental solvers and *leases* them to jobs:

* leases are routed by **problem shape**: each idle session remembers the
  shape key (problem kind + bit-width signature, see
  :meth:`~repro.api.problems.ProblemSpec.shape_key`) of the job it last
  served, and :meth:`SolverPool.acquire` hands a job the session that
  last solved the same shape — so a job's warm bit-blast caches and
  learned clauses actually match the terms it is about to assert, instead
  of whatever a round-robin slot happened to accumulate;
* a lease's :meth:`~SolverLease.session` returns the underlying solver
  with one fresh push/pop scope open, so everything a job asserts is
  scoped; releasing the lease pops back to the root, which permanently
  falsifies the scope's activation literal and retires the job's clauses
  without touching the rest of the database;
* at release the session drops every learned clause and resets its
  branching heuristics, so the next job replays exactly the search a
  fresh solver would run, minus the encoding work; the first release
  also moves the session's long-lived object graph into the cyclic
  garbage collector's permanent generation (``gc.freeze()``);
* each lease snapshots the solver's statistics at hand-over, so per-job
  accounting is a delta, never the pool-lifetime cumulative counts;
* each lease opens a hash-consing intern scope
  (:func:`repro.smt.terms.push_intern_scope`); at release the scope is
  popped, and once the global intern table has grown past
  ``config.intern_table_limit`` the scope's entries are evicted *and the
  session is recycled* (terms live on in the solver's bit-blast caches,
  so only dropping both actually bounds memory) — below the limit,
  cross-job sharing is preserved untouched.

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
from repro.core.exceptions import SolverError
from repro.smt.sat import SatStatistics
from repro.smt.solver import SmtSolver, SmtStatistics
from repro.smt.terms import intern_table_size, pop_intern_scope, push_intern_scope


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
    #: Intern-table entries evicted at lease release.
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
    #: Scope depth of the pool root (0 for pool-created solvers).
    root_depth: int = 0
    #: Fingerprint of the persistent base scope kept open *across* leases
    #: (see :meth:`SolverLease.base_session`), or None when the session is
    #: parked at its root.
    base_fingerprint: str | None = None
    #: SAT variable watermark captured when the base scope was sealed;
    #: releases roll the session back to it, shedding the finished job's
    #: encoding while keeping the base scope's clauses and lemmas.
    frontier: int | None = None
    #: Level-0 trail length at seal time: when unchanged at release, no
    #: new fixed facts appeared and the heuristic reset can skip its
    #: database simplification pass.
    level0_mark: int = 0
    #: Whether this session's long-lived graph has been gc-frozen.
    frozen: bool = False


class SolverLease:
    """One job's hold on a pooled solver session.

    Obtained from :meth:`SolverPool.acquire`; hand the result of
    :meth:`session` to the application layer, then release the lease
    through :meth:`SolverPool.release` (or :meth:`SolverPool.retire` if
    the session misbehaved).
    """

    def __init__(self, pool: "SolverPool", record: _SessionRecord, reused: bool) -> None:
        self._pool = pool
        self._record = record
        self._solver = record.solver
        #: Whether this lease reuses a solver warmed by a previous job.
        self.reused = reused
        self._intern_token = push_intern_scope()
        self._smt_base = self._solver.statistics.snapshot()
        self._sat_base = self._solver.sat_statistics()
        #: Fingerprint handed to :meth:`base_session` but not yet sealed.
        self._pending_fingerprint: str | None = None
        self.released = False

    @property
    def solver(self) -> SmtSolver:
        """The leased solver (prefer :meth:`session` for job execution)."""
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

    def session(self) -> SmtSolver:
        """The leased solver, reset to a clean job scope.

        The first call pushes one scope over the solver's root; later
        calls (e.g. an encoder rebuilding its skeleton) pop back to the
        root first, retiring everything asserted so far — including any
        persistent base scope a previous tenant kept — then push a new
        scope.  Either way the caller sees fresh-solver *semantics* on a
        warm solver.

        Raises:
            SolverError: if the lease has already been released (a stale
                handle must not mutate a solver now owned by another job).
        """
        self._check_open()
        self._record.base_fingerprint = None
        self._record.frontier = None
        self._pending_fingerprint = None
        # New epoch: memoized model bits were recorded against the old
        # base scope's variable layout.
        self._solver.clear_check_memo()
        self._pop_to(self._record.root_depth)
        self._solver.push()
        return self._solver

    def base_session(self, fingerprint: str) -> tuple[SmtSolver, bool]:
        """A job scope stacked on a persistent, fingerprinted base scope.

        This is how application encoders share work *across* jobs beyond
        the bit-blast caches: a base scope (e.g. the OGIS well-formedness
        + symbolic-run skeleton) stays open between leases, so its
        activation literal — and therefore every learned clause the
        search derived about it — remains valid and assumed for the next
        same-shape tenant.  Popping the scope per job (the plain
        :meth:`session` contract) would permanently falsify the literal
        and turn those clauses into dead weight.

        Returns ``(solver, base_ready)``.  When the session's sealed base
        fingerprint equals ``fingerprint``, the base scope is kept, a
        fresh job scope is pushed on top, and ``base_ready`` is True.
        Otherwise everything is popped to the root, one empty scope is
        pushed, and ``base_ready`` is False: the caller asserts its base
        constraints into that scope and calls :meth:`seal_base`, which
        records the fingerprint and pushes the job scope.
        """
        self._check_open()
        root = self._record.root_depth
        if (
            self._record.base_fingerprint == fingerprint
            and self._solver.scope_depth == root + 1
        ):
            self._pending_fingerprint = None
            self._solver.push()
            return self._solver, True
        self._record.base_fingerprint = None
        self._record.frontier = None
        self._pending_fingerprint = fingerprint
        self._solver.clear_check_memo()
        self._pop_to(root)
        self._solver.push()
        return self._solver, False

    def seal_base(self) -> None:
        """Seal the base scope opened by :meth:`base_session` and open the
        job scope above it.

        The base constraints are flushed into the SAT core and the
        variable frontier is captured: every release rolls the session
        back to it, dropping the finished job's encoding (variables, gate
        definitions, job-local learned clauses) wholesale while the
        sealed base — and every lemma the search derives over it — stays
        warm for the next same-shape job.

        Raises:
            SolverError: without a preceding unsealed ``base_session``.
        """
        self._check_open()
        if self._pending_fingerprint is None:
            raise SolverError("seal_base requires an unsealed base_session")
        self._solver.flush()
        self._record.frontier = self._solver.frontier()
        self._record.level0_mark = self._solver.level0_facts()
        self._record.base_fingerprint = self._pending_fingerprint
        self._pending_fingerprint = None
        self._solver.push()

    def close(self) -> None:
        """Pop back to the persistent base scope — or the pool root when
        none is sealed (called by the pool on release)."""
        keep = 1 if self._record.base_fingerprint is not None else 0
        self._pop_to(self._record.root_depth + keep)

    def __call__(self) -> SmtSolver:
        """Alias for :meth:`session`: leases double as solver factories."""
        return self.session()

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
            ``intern_table_limit`` govern reuse and intern-table cleanup.
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
        #: Shared (cross-session / cross-worker) check-memo backend
        #: installed on every solver the pool creates; see
        #: :meth:`set_memo_backend`.
        self._memo_backend = memo_backend

    def set_memo_backend(self, backend: Any) -> None:
        """Install a shared check-memo backend on the pool.

        Solvers created *after* the call consult it (see
        :meth:`~repro.smt.solver.SmtSolver.set_memo_backend`); existing
        idle sessions are updated in place.  The engine wires this up —
        sequential engines hand every pool session one in-process
        :class:`~repro.api.memo.SharedCheckMemo`, worker processes
        receive a manager proxy to the parent's store.
        """
        self._memo_backend = backend
        for idle in self._idle:
            idle.solver.set_memo_backend(backend)

    def acquire(self, shape: str | None = None) -> SolverLease:
        """Lease a solver session, preferring one warmed on ``shape``.

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
            if self._memo_backend is not None:
                solver.set_memo_backend(self._memo_backend)
            record = _SessionRecord(
                solver, shape, self._clock, root_depth=solver.scope_depth
            )
            self.statistics.solvers_created += 1
        lease = SolverLease(self, record, reused)
        self._active.append(lease)
        if reused:
            self.statistics.reused_sessions += 1
        return lease

    def release(self, lease: SolverLease) -> None:
        """Return a lease: pop to the root, drop learned clauses, clean up.

        The session is put back on the idle list keyed by the lease's
        shape (evicting the least-recently-used session past
        ``pool_size``).  Every learned clause is dropped and the search
        heuristics are reset, so the next tenant runs the search a fresh
        solver would, over the warm encoding.  Below
        ``config.intern_table_limit`` the job's interned terms are kept
        so later jobs can share them (and hit the warm bit-blast caches);
        past the limit the terms are evicted together with the session
        that caches them, bounding memory in a long-lived process at the
        cost of a cold next lease.
        """
        self._finish(lease, retire=False)

    def retire(self, lease: SolverLease) -> None:
        """Release a lease *and* discard its solver.

        Used when a session has been poisoned — e.g. a job redeclared a
        variable name at a different width than an earlier tenant, which
        the bit-blaster rejects.  The job's interned terms are always
        evicted.
        """
        self._finish(lease, retire=True)

    def _finish(self, lease: SolverLease, retire: bool) -> None:
        if lease.released:
            return
        if lease is not (self._active[-1] if self._active else None):
            raise SolverError("solver leases must be released in LIFO order")
        self._active.pop()
        lease.released = True
        try:
            lease.close()
        except Exception:
            retire = True  # a session that cannot be reset is poisoned
        limit = self.config.intern_table_limit
        if not retire and limit is not None and intern_table_size() > limit:
            # Recycle the whole session: evicting intern entries alone
            # would not bound memory (the solver's bit-blaster caches
            # keep the evicted terms alive) and would silently destroy
            # cache sharing — rebuilt terms would re-blast into duplicate
            # SAT variables on the warm solver.  Dropping the solver with
            # the terms makes the limit a genuine memory bound.
            retire = True
        self.statistics.intern_entries_evicted += pop_intern_scope(
            lease._intern_token, discard=retire
        )
        if retire:
            self.statistics.solvers_retired += 1
            return
        if not self.config.reuse_sessions:
            return
        if lease._record.frontier is not None:
            # Roll the session back to its sealed base: the finished
            # job's variables, gate definitions and job-local learned
            # clauses all go; the base scope's encoding stays.
            lease.solver.rollback_to(lease._record.frontier)
        self.statistics.trimmed_learned_clauses += lease.solver.trim_learned(0)
        # Hand the next tenant a pristine search state over the warm
        # encoding: without this, the previous job's VSIDS activities and
        # saved phases steer the next search off the trajectory a fresh
        # solver would take — empirically a net loss on these workloads.
        # The simplification pass is only needed when new level-0 facts
        # appeared during the lease (rare).
        lease.solver.reset_search_state(
            simplify=(
                lease._record.frontier is None
                or lease.solver.level0_facts() != lease._record.level0_mark
            )
        )
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
