"""SMT solver facade for quantifier-free bit-vector formulas.

This is the deductive engine of GameTime (basis-path feasibility) and of
OGIS (candidate programs and distinguishing inputs).  It is lightweight
in the paper's sense (Sec. 2.2.3): it decides QF_BV satisfiability (NP),
a strict special case of the overall synthesis problems (Sigma_2 for
component-based synthesis).  It wraps the term language, the
bit-blaster, and the CDCL SAT solver in a small API reminiscent of
z3py::

    solver = SmtSolver()
    x = bv_var("x", 8)
    solver.add(x * bv_const(3, 8) == ...)        # via .eq()
    if solver.check() is SmtResult.SAT:
        model = solver.model()
        print(model["x"])

The facade is **incremental across checks**: one persistent
:class:`~repro.smt.sat.CdclSolver` and one persistent
:class:`~repro.smt.bitblast.BitBlaster` live for the lifetime of the
``SmtSolver``, so term caches, learned clauses and VSIDS activities all
survive between ``check()`` calls.  Push/pop scopes are implemented with
MiniSat-style *activation literals*: each scope owns a fresh literal
``a``, assertions inside the scope are encoded as ``(¬a ∨ formula)`` and
``a`` is passed as a solver assumption while the scope is open; popping
the scope permanently asserts ``~a``, which satisfies (and thereby
retires) every clause of the scope without touching the rest of the
database.  ``check(*extra)`` formulas are likewise passed as assumptions,
so they constrain only the one query.

The reference semantics is a fresh solver per check: ``check(*extra)``
answers exactly what ``solve(assertions + extra)`` would, and the tests
compare the incremental stack against that.

Every query is shrunk before it reaches the SAT core, in three layers
that can each be disabled independently (the ablation knobs used by
``benchmarks/bench_perf_suite.py``):

* ``simplify_terms`` — word-level rewriting (:mod:`repro.smt.simplify`)
  of every asserted / checked formula: constant folding, neutral and
  absorbing elements, ITE collapsing, trivial comparisons;
* ``polarity_aware`` — Plaisted–Greenbaum CNF: asserted formulas are
  blasted under positive polarity only, so single-polarity gates emit
  half their Tseitin clauses (see :mod:`repro.smt.bitblast`);
* ``gc_dead_clauses`` — scope garbage collection: popping a scope
  permanently falsifies its activation literal, and once the volume of
  such permanently deactivated clauses crosses a threshold the SAT
  solver's level-0 database simplification sweeps them out.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.exceptions import SolverError
from repro.smt.bitblast import BOTH, POSITIVE, BitBlaster
from repro.smt.cnf import make_literal, negate
from repro.smt.sat import CdclSolver, SatResult, SatStatistics
from repro.smt.simplify import simplify_bool
from repro.smt.terms import (
    Assignment,
    BitVecTerm,
    BoolTerm,
    BvVar,
    BoolVar,
    bool_and,
    evaluate,
    free_variables,
)


class SmtResult(enum.Enum):
    """Verdict of an SMT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Model:
    """A satisfying assignment for the asserted formulas.

    Provides dictionary-style access by variable name; bit-vector values
    are unsigned integers, Boolean values are ``bool``.
    """

    assignment: Assignment = field(default_factory=Assignment)

    def __getitem__(self, name: str) -> int | bool:
        if name in self.assignment.bv_values:
            return self.assignment.bv_values[name]
        if name in self.assignment.bool_values:
            return self.assignment.bool_values[name]
        raise KeyError(name)

    def get(self, name: str, default: int | bool | None = None) -> int | bool | None:
        """Dictionary-style ``get``."""
        try:
            return self[name]
        except KeyError:
            return default

    def value_of(self, variable: BvVar | BoolVar) -> int | bool:
        """Value of a term-level variable object."""
        return self[variable.name]

    def evaluate(self, term) -> int | bool:
        """Evaluate an arbitrary term under this model.

        Variables not constrained by the asserted formulas default to 0 /
        False (completion of the partial model).
        """
        bool_names, bv_widths = free_variables(term)
        completed = self.assignment.copy()
        for name in bool_names:
            completed.bool_values.setdefault(name, False)
        for name in bv_widths:
            completed.bv_values.setdefault(name, 0)
        return evaluate(term, completed)

    def as_dict(self) -> dict[str, int | bool]:
        """Return all variable values as one dictionary."""
        merged: dict[str, int | bool] = dict(self.assignment.bv_values)
        merged.update(self.assignment.bool_values)
        return merged


@dataclass
class SmtStatistics:
    """Counters aggregated over the lifetime of an :class:`SmtSolver`."""

    checks: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    clauses_generated: int = 0
    variables_generated: int = 0
    #: Assertions whose word-level simplification changed the term.
    terms_simplified: int = 0
    #: Clauses reclaimed by scope garbage collection (see ``gc_dead_clauses``).
    clauses_collected: int = 0
    #: Checks answered from the check memo (local or shared) without
    #: touching the SAT core.
    check_memo_hits: int = 0
    #: The subset of ``check_memo_hits`` answered by the *shared*
    #: cross-worker memo backend (see :meth:`SmtSolver.set_memo_backend`).
    shared_memo_hits: int = 0

    def merged_with(self, other: "SmtStatistics") -> "SmtStatistics":
        """Field-wise sum of two statistics records."""
        return SmtStatistics(
            checks=self.checks + other.checks,
            sat_answers=self.sat_answers + other.sat_answers,
            unsat_answers=self.unsat_answers + other.unsat_answers,
            clauses_generated=self.clauses_generated + other.clauses_generated,
            variables_generated=self.variables_generated + other.variables_generated,
            terms_simplified=self.terms_simplified + other.terms_simplified,
            clauses_collected=self.clauses_collected + other.clauses_collected,
            check_memo_hits=self.check_memo_hits + other.check_memo_hits,
            shared_memo_hits=self.shared_memo_hits + other.shared_memo_hits,
        )

    def snapshot(self) -> "SmtStatistics":
        """An independent copy of the current counters."""
        return replace(self)

    def delta_since(self, baseline: "SmtStatistics") -> "SmtStatistics":
        """Counters accumulated since ``baseline`` was snapshotted.

        This is the per-job view used when a solver is shared across jobs
        (see :mod:`repro.api.pool`): all fields are monotone counters, so
        a plain field-wise difference is exact.
        """
        return SmtStatistics(
            checks=self.checks - baseline.checks,
            sat_answers=self.sat_answers - baseline.sat_answers,
            unsat_answers=self.unsat_answers - baseline.unsat_answers,
            clauses_generated=self.clauses_generated - baseline.clauses_generated,
            variables_generated=self.variables_generated - baseline.variables_generated,
            terms_simplified=self.terms_simplified - baseline.terms_simplified,
            clauses_collected=self.clauses_collected - baseline.clauses_collected,
            check_memo_hits=self.check_memo_hits - baseline.check_memo_hits,
            shared_memo_hits=self.shared_memo_hits - baseline.shared_memo_hits,
        )


class SmtSolver:
    """A QF_BV SMT solver built on bit-blasting + CDCL SAT.

    Args:
        max_conflicts: optional conflict budget per ``check`` (returns
            :data:`SmtResult.UNKNOWN` when exhausted).
        simplify_terms: run the word-level simplifier over every formula
            before bit-blasting (default True; ablation knob).
        polarity_aware: blast asserted formulas under positive polarity
            only (Plaisted–Greenbaum; default True; ablation knob).
        gc_dead_clauses: threshold of permanently deactivated clauses
            accumulated by ``pop`` that triggers a level-0 garbage
            collection of the SAT clause database; ``None`` disables the
            collection (ablation knob).
        memoize_checks: cache decided ``check`` answers keyed by the
            exact asserted-formula sequence plus the ``extra`` assumptions
            (hash-consed terms make the key cheap and exact).  A repeated
            query — the common case on pooled sessions whose job stream
            repeats problem shapes — returns the recorded verdict and
            model bits without touching the SAT core.  Sound because a
            check's verdict is a pure function of the asserted formulas,
            and the recorded model is exactly the one the deterministic
            search would recompute; UNKNOWN (budget-limited) answers are
            never cached.  Off by default: plain solvers prefer the
            freshest model a re-search would find.
    """

    #: Bound on memoized check answers (the memo is wiped, not LRU-evicted,
    #: beyond it — entries are cheap to recompute and the bound exists only
    #: to keep a pathological stream from pinning unbounded model bits).
    CHECK_MEMO_LIMIT = 512

    def __init__(
        self,
        max_conflicts: int | None = None,
        simplify_terms: bool = True,
        polarity_aware: bool = True,
        gc_dead_clauses: int | None = 2000,
        memoize_checks: bool = False,
    ):
        self._assertions: list[BoolTerm] = []
        self._scopes: list[int] = []
        self._max_conflicts = max_conflicts
        self._simplify_terms = simplify_terms
        self._assert_polarity = POSITIVE if polarity_aware else BOTH
        self._gc_dead_clauses = gc_dead_clauses
        self._memoize_checks = memoize_checks
        # (assertion tuple, extra tuple) → (verdict, model bits | None).
        # Keys hold strong references to the hash-consed terms, so key
        # identity can never be recycled under the memo.
        self._check_memo: dict = {}
        # Optional shared (cross-worker) memo backend consulted after a
        # local miss; see :meth:`set_memo_backend`.
        self._memo_backend = None
        # Term → structural digest, memoized for shared-memo keys
        # (cleared together with the local memo).
        self._digest_cache: dict = {}
        # Job-level limits (see :meth:`set_job_limits`).
        self._job_conflicts_remaining: int | None = None
        self._job_deadline: float | None = None
        self._last_model: Model | None = None
        # (blaster, sat model bits) of the last SAT answer; the Model is
        # built lazily from it on the first model() call, so checks whose
        # model is never read pay nothing for extraction.
        self._model_source: tuple[BitBlaster, list[bool]] | None = None
        self.statistics = SmtStatistics()
        # Persistent incremental core (created lazily on first use).
        self._sat_solver: CdclSolver | None = None
        self._blaster: BitBlaster | None = None
        # One activation literal per open scope, parallel to ``_scopes``.
        self._activations: list[int] = []
        # clauses_added watermark at each push, parallel to ``_activations``
        # (used to estimate how many clauses a popped scope leaves behind).
        self._scope_clause_marks: list[int] = []
        # Clauses belonging to permanently deactivated scopes, pending GC.
        self._dead_clauses = 0
        # Prefix of ``_assertions`` already encoded into the SAT solver.
        self._encoded_count = 0

    # -- assertion stack --------------------------------------------------

    def add(self, *formulas: BoolTerm) -> None:
        """Assert one or more Boolean formulas."""
        for formula in formulas:
            if not isinstance(formula, BoolTerm):
                raise SolverError(
                    f"only Boolean terms can be asserted, got {type(formula).__name__}"
                )
            self._assertions.append(formula)

    def push(self) -> None:
        """Push a backtracking scope."""
        self._scopes.append(len(self._assertions))
        sat_solver, _ = self._core()
        self._activations.append(make_literal(sat_solver.new_variable()))
        self._scope_clause_marks.append(sat_solver.statistics.clauses_added)
        self.statistics.variables_generated += 1

    def pop(self) -> None:
        """Pop the most recent scope, discarding its assertions.

        The scope's clauses stay in the SAT solver, permanently satisfied
        by the falsified activation literal.  Their volume is tracked, and
        once it crosses the ``gc_dead_clauses`` threshold the solver's
        level-0 database simplification reclaims them (together with
        anything else fixed-satisfied by then).
        """
        if not self._scopes:
            raise SolverError("pop without matching push")
        boundary = self._scopes.pop()
        del self._assertions[boundary:]
        activation = self._activations.pop()
        mark = self._scope_clause_marks.pop()
        if self._encoded_count > boundary:
            # Clauses of this scope are already in the SAT solver;
            # permanently falsifying the activation literal satisfies
            # (and thereby retires) all of them.
            sat_solver, _ = self._core()
            clauses_before = sat_solver.statistics.clauses_added
            sat_solver.add_clause([negate(activation)])
            self.statistics.clauses_generated += (
                sat_solver.statistics.clauses_added - clauses_before
            )
            self._encoded_count = boundary
            total = sat_solver.statistics.clauses_added
            dead_span = max(0, total - mark)
            self._dead_clauses += dead_span
            # Advance each enclosing scope's watermark by exactly the
            # span counted here, so this scope's clauses are not
            # counted again when the enclosing scopes pop — while the
            # enclosing scopes' own clauses stay in their accounting.
            self._scope_clause_marks = [
                outer_mark + dead_span for outer_mark in self._scope_clause_marks
            ]
            if (
                self._gc_dead_clauses is not None
                and self._dead_clauses >= self._gc_dead_clauses
            ):
                self.statistics.clauses_collected += sat_solver.simplify_database()
                self._dead_clauses = 0

    @property
    def assertions(self) -> Sequence[BoolTerm]:
        """The currently asserted formulas (read-only view)."""
        return tuple(self._assertions)

    @property
    def scope_depth(self) -> int:
        """Number of currently open push/pop scopes."""
        return len(self._scopes)

    # -- job limits ---------------------------------------------------------

    def set_job_limits(
        self,
        max_conflicts: int | None = None,
        deadline: float | None = None,
    ) -> None:
        """Install (or clear, when called with no arguments) job limits.

        Args:
            max_conflicts: total CDCL conflict budget shared by all
                subsequent ``check`` calls (unlike the constructor's
                ``max_conflicts``, which is per-check); exhausted checks
                answer :data:`SmtResult.UNKNOWN`.
            deadline: ``time.monotonic()`` timestamp after which checks
                answer :data:`SmtResult.UNKNOWN`.

        This is how the engine layer (:mod:`repro.api`) enforces per-job
        budgets and timeouts on pooled solvers without rebuilding them.
        """
        self._job_conflicts_remaining = max_conflicts
        self._job_deadline = deadline
        if self._sat_solver is not None and max_conflicts is None and deadline is None:
            self._sat_solver.set_limits(None, None)

    def _install_job_limits(self, sat_solver: CdclSolver) -> None:
        ceiling = None
        if self._job_conflicts_remaining is not None:
            ceiling = sat_solver.statistics.conflicts + max(
                0, self._job_conflicts_remaining
            )
        sat_solver.set_limits(ceiling, self._job_deadline)

    def _charge_job_conflicts(
        self, sat_solver: CdclSolver, conflicts_before: int
    ) -> None:
        if self._job_conflicts_remaining is not None:
            spent = sat_solver.statistics.conflicts - conflicts_before
            self._job_conflicts_remaining = max(
                0, self._job_conflicts_remaining - spent
            )

    # -- incremental core ---------------------------------------------------

    def _core(self) -> tuple[CdclSolver, BitBlaster]:
        """The persistent SAT solver + blaster pair (created on first use)."""
        if self._sat_solver is None:
            self._sat_solver = CdclSolver(max_conflicts=self._max_conflicts)
            self._blaster = BitBlaster(self._sat_solver)
            # Count the blaster's true-constant variable and unit clause
            # as encoding work.
            self.statistics.variables_generated += self._sat_solver.num_variables
            self.statistics.clauses_generated += (
                self._sat_solver.statistics.clauses_added
            )
        assert self._blaster is not None
        return self._sat_solver, self._blaster

    def _prepare(self, formula: BoolTerm) -> BoolTerm:
        """Word-level simplification applied before any encoding."""
        if not self._simplify_terms:
            return formula
        simplified = simplify_bool(formula)
        if simplified is not formula:
            self.statistics.terms_simplified += 1
        return simplified

    def _encode_pending(self) -> None:
        """Blast assertions added since the previous ``check``.

        Base-level assertions become unit clauses; assertions inside an
        open scope are guarded by that scope's activation literal.  Either
        way the formula is only ever used as a true assertion, so it is
        blasted under positive polarity when ``polarity_aware`` is on.
        """
        sat_solver, blaster = self._core()
        for index in range(self._encoded_count, len(self._assertions)):
            formula = self._prepare(self._assertions[index])
            literal = blaster.blast_bool(formula, self._assert_polarity)
            scope = bisect.bisect_right(self._scopes, index)
            if scope == 0:
                sat_solver.add_clause([literal])
            else:
                sat_solver.add_clause(
                    [negate(self._activations[scope - 1]), literal]
                )
        self._encoded_count = len(self._assertions)

    # -- solving -----------------------------------------------------------

    def check(self, *extra: BoolTerm) -> SmtResult:
        """Check satisfiability of the asserted formulas (plus ``extra``).

        ``extra`` formulas constrain this check only: they are encoded
        once (their definitional clauses stay cached) but asserted via
        solver assumptions, so they leave no trace on later checks.

        Returns:
            :data:`SmtResult.SAT`, :data:`SmtResult.UNSAT`, or
            :data:`SmtResult.UNKNOWN` when the conflict budget is exhausted.
        """
        self.statistics.checks += 1
        for formula in extra:
            if not isinstance(formula, BoolTerm):
                raise SolverError(
                    f"only Boolean terms can be checked, got {type(formula).__name__}"
                )
        sat_solver, blaster = self._core()
        variables_before = sat_solver.num_variables
        clauses_before = sat_solver.statistics.clauses_added
        conflicts_before = sat_solver.statistics.conflicts
        self._encode_pending()
        assumptions = list(self._activations)
        # ``extra`` formulas are assumed true for this check only, which is
        # a positive occurrence — the same polarity rule as assertions.
        assumptions.extend(
            blaster.blast_bool(self._prepare(formula), self._assert_polarity)
            for formula in extra
        )
        self.statistics.variables_generated += (
            sat_solver.num_variables - variables_before
        )
        self.statistics.clauses_generated += (
            sat_solver.statistics.clauses_added - clauses_before
        )
        memo_key = None
        if self._memoize_checks:
            # The memo is consulted *after* the encoding work, so hits
            # and misses leave the solver in the identical state — the
            # variable layout never depends on which checks were cached.
            # Including the post-encoding variable count in the key makes
            # a recorded model's bit indices valid by construction: a
            # hit's layout provably matches the record-time layout for
            # every variable the memoized check constrains (same formula
            # sequence blasted from the same frontier; see the solver
            # pool's base-scope epochs).
            memo_key = (
                tuple(self._assertions),
                tuple(extra),
                sat_solver.num_variables,
            )
            cached = self._check_memo.get(memo_key)
            if cached is not None:
                return self._replay_memoized(cached)
            shared = self._shared_lookup(memo_key)
            if shared is not None:
                # Read-through: keep the answer locally so the shared
                # round trip is paid at most once per solver.
                self._store_memo(memo_key, shared)
                self.statistics.shared_memo_hits += 1
                return self._replay_memoized(shared)
        self._install_job_limits(sat_solver)
        result = sat_solver.solve(assumptions)
        self._charge_job_conflicts(sat_solver, conflicts_before)
        verdict = self._record_result(result, sat_solver, blaster)
        if memo_key is not None and verdict is not SmtResult.UNKNOWN:
            entry = (
                verdict,
                sat_solver.cached_model() if verdict is SmtResult.SAT else None,
            )
            self._store_memo(memo_key, entry)
            self._shared_publish(memo_key, entry)
        return verdict

    def _store_memo(self, memo_key: tuple, entry: tuple) -> None:
        if len(self._check_memo) >= self.CHECK_MEMO_LIMIT:
            self._check_memo.clear()
        self._check_memo[memo_key] = entry

    # -- shared (cross-worker) memo backend ---------------------------------

    def set_memo_backend(self, backend) -> None:
        """Install a shared check-memo backend (or None to detach).

        ``backend`` is duck-typed (see :class:`repro.api.memo.MemoClient`):
        ``lookup(key)`` returns ``(verdict_value, model_bits)`` or None,
        ``publish(key, verdict_value, model_bits)`` records a decided
        answer.  The backend is consulted only when ``memoize_checks`` is
        on and only after the solver-local memo misses; keys are the
        process-independent wire form of ``(assertions, extras,
        frontier)`` built by :func:`repro.smt.wire.check_wire_key`, so a
        verdict decided by one worker process short-circuits the same
        check in another.
        """
        self._memo_backend = backend

    def _shared_key(self, memo_key: tuple) -> str:
        from repro.smt.wire import check_wire_key

        assertions, extras, frontier = memo_key
        # The blaster's declaration-layout signature joins the key: a
        # variable *count* alone can coincide between sessions whose
        # caches were polluted differently (e.g. a re-sealed base over
        # leftover blasted terms), and replayed model bits are only valid
        # when every declared name sits at the recorded positions.
        _, blaster = self._core()
        return (
            f"{blaster.layout_signature()}:"
            f"{check_wire_key(assertions, extras, frontier, self._digest_cache)}"
        )

    def _shared_lookup(self, memo_key: tuple) -> tuple | None:
        if self._memo_backend is None:
            return None
        found = self._memo_backend.lookup(self._shared_key(memo_key))
        if found is None:
            return None
        verdict_value, model_bits = found
        return (
            SmtResult(verdict_value),
            None if model_bits is None else list(model_bits),
        )

    def _shared_publish(self, memo_key: tuple, entry: tuple) -> None:
        if self._memo_backend is None:
            return
        verdict, model_bits = entry
        self._memo_backend.publish(
            self._shared_key(memo_key), verdict.value, model_bits
        )

    def _replay_memoized(self, cached: tuple) -> SmtResult:
        """Answer an already-encoded check from the memo (no search).

        Only the SAT search is skipped — the caller has already encoded
        pending assertions and the check's assumptions, exactly as a miss
        would, so the recorded model bits line up with the live variable
        layout (guaranteed by the variable count in the memo key).  Names
        blasted only after the recorded model resolve to None, which is
        correct: the memoized check did not constrain them.  The pool
        clears the memo whenever a session's base scope is
        re-established (:meth:`clear_check_memo`).
        """
        verdict, model_bits = cached
        self.statistics.check_memo_hits += 1
        self._last_model = None
        _, blaster = self._core()
        if verdict is SmtResult.SAT:
            self.statistics.sat_answers += 1
            self._model_source = (blaster, model_bits)
        else:
            self.statistics.unsat_answers += 1
            self._model_source = None
        return verdict

    def clear_check_memo(self) -> None:
        """Drop every memoized check answer.

        Called by the solver pool whenever a session's base scope is
        re-established: memoized model bits are only valid relative to
        the variable layout of the epoch they were recorded in.  (The
        shared backend is left untouched — its keys embed the variable
        frontier, so entries from other epochs simply never match.)
        """
        self._check_memo.clear()
        self._digest_cache.clear()

    def flush(self) -> None:
        """Encode every pending assertion into the SAT core now.

        Normally encoding is lazy (it happens at ``check`` time); flushing
        makes the solver's variable frontier reflect exactly the
        assertions made so far, which is what :meth:`frontier` needs to
        capture a meaningful watermark.
        """
        sat_solver, _ = self._core()
        variables_before = sat_solver.num_variables
        clauses_before = sat_solver.statistics.clauses_added
        self._encode_pending()
        self.statistics.variables_generated += (
            sat_solver.num_variables - variables_before
        )
        self.statistics.clauses_generated += (
            sat_solver.statistics.clauses_added - clauses_before
        )

    def frontier(self) -> int:
        """The current SAT variable watermark (see :meth:`rollback_to`).

        Call :meth:`flush` first so pending assertions are included.
        """
        sat_solver, _ = self._core()
        return sat_solver.num_variables

    def rollback_to(self, frontier: int) -> int:
        """Drop all SAT variables, clauses and blaster caches above
        ``frontier``.

        The pooled-session retention hook
        (:class:`~repro.api.pool.SolverPool`): between jobs a session
        rolls back to the watermark captured when its persistent base
        scope was sealed, shedding the finished job's entire encoding —
        gate definitions included — while keeping the base scope's
        clauses and every learned clause over base variables.  Requires
        that all scopes opened after the watermark have been popped.

        Returns:
            The number of SAT clauses removed.
        """
        if self._sat_solver is None:
            return 0
        if frontier >= self._sat_solver.num_variables:
            return 0
        assert self._blaster is not None
        removed = self._sat_solver.shrink_variables(frontier)
        self._blaster.rollback_variables(frontier)
        # Dead-scope accounting may reference dropped clauses; reset it
        # rather than triggering a GC over clauses already gone.
        self._dead_clauses = 0
        self._last_model = None
        self._model_source = None
        return removed

    def trim_learned(self, max_lbd: int) -> int:
        """Drop learned clauses with LBD above ``max_lbd`` (between jobs).

        This is the cross-job retention hook used by
        :class:`~repro.api.pool.SolverPool` at lease release: a warm
        session keeps its bit-blast caches and (for ``max_lbd >= 1``) its
        good-glue learned clauses, but sheds the high-LBD clauses a
        finished job left behind, which would otherwise slow down
        propagation for every later tenant; ``max_lbd <= 0`` drops every
        learned clause.

        Returns:
            The number of learned clauses removed.
        """
        if self._sat_solver is None:
            return 0
        return self._sat_solver.reduce_learned(max_lbd)

    def reset_search_state(self, simplify: bool = True) -> None:
        """Reset the SAT core's branching heuristics to a pristine state.

        See :meth:`repro.smt.sat.CdclSolver.reset_search_state`.
        """
        if self._sat_solver is not None:
            self._sat_solver.reset_search_state(simplify=simplify)

    def level0_facts(self) -> int:
        """Number of assignments fixed on the level-0 trail.

        Used by the solver pool to detect whether any new facts (learned
        units and their consequences) appeared during a lease, which
        decides whether the release-time heuristic reset needs its
        simplification pass.
        """
        if self._sat_solver is None:
            return 0
        return self._sat_solver.num_fixed_literals

    def sat_statistics(self) -> SatStatistics:
        """A copy of the persistent SAT solver's lifetime CDCL counters.

        A copy, so callers can keep it as a baseline snapshot.
        """
        if self._sat_solver is None:
            return SatStatistics()
        return replace(self._sat_solver.statistics)

    def _record_result(
        self, result: SatResult, sat_solver: CdclSolver, blaster: BitBlaster
    ) -> SmtResult:
        self._last_model = None
        if result is SatResult.SAT:
            self.statistics.sat_answers += 1
            model_bits = sat_solver.cached_model()
            assert model_bits is not None
            self._model_source = (blaster, model_bits)
            return SmtResult.SAT
        self._model_source = None
        if result is SatResult.UNSAT:
            self.statistics.unsat_answers += 1
            return SmtResult.UNSAT
        return SmtResult.UNKNOWN

    def model(self) -> Model:
        """Return the model found by the last satisfiable ``check``.

        Raises:
            SolverError: if the last check was not satisfiable.
        """
        if self._last_model is None and self._model_source is not None:
            blaster, model_bits = self._model_source
            self._last_model = Model(blaster.extract_assignment(model_bits))
        if self._last_model is None:
            raise SolverError("no model available (last check was not SAT)")
        return self._last_model

    def model_value(self, name: str) -> int | bool | None:
        """Value of one named variable in the last satisfiable check's model.

        Cheaper than :meth:`model` when only a few variables are needed —
        the persistent blaster may know thousands of names from earlier
        checks, and full extraction visits all of them.  Returns None for
        variables the solver has never blasted (or blasted only after the
        model was found); they are unconstrained, so any value completes
        the model.

        Raises:
            SolverError: if the last check was not satisfiable.
        """
        if self._model_source is None:
            raise SolverError("no model available (last check was not SAT)")
        blaster, model_bits = self._model_source
        return blaster.extract_value(name, model_bits)

    # -- convenience entry points ------------------------------------------

    def is_satisfiable(self, formula: BoolTerm) -> bool:
        """One-shot satisfiability check of ``formula`` alone."""
        solver = SmtSolver(max_conflicts=self._max_conflicts)
        solver.add(formula)
        return solver.check() is SmtResult.SAT

    def is_valid(self, formula: BoolTerm) -> bool:
        """One-shot validity check (negation unsatisfiable)."""
        from repro.smt.terms import bool_not

        solver = SmtSolver(max_conflicts=self._max_conflicts)
        solver.add(bool_not(formula))
        return solver.check() is SmtResult.UNSAT


def solve(formulas: Iterable[BoolTerm], max_conflicts: int | None = None) -> tuple[SmtResult, Model | None]:
    """Solve the conjunction of ``formulas`` in one shot.

    Returns the verdict and, when satisfiable, a :class:`Model`.
    """
    solver = SmtSolver(max_conflicts=max_conflicts)
    solver.add(*list(formulas))
    verdict = solver.check()
    model = solver.model() if verdict is SmtResult.SAT else None
    return verdict, model


def conjoin(formulas: Iterable[BoolTerm]) -> BoolTerm:
    """Conjunction helper used by encoding modules."""
    return bool_and(*list(formulas))
