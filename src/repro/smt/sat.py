"""A CDCL (conflict-driven clause learning) SAT solver.

The paper's deductive engines for the timing-analysis and program-synthesis
applications are SAT/SMT solvers.  No solver is available offline, so this
module implements the classic CDCL architecture from scratch:

* two-watched-literal unit propagation with *blocking literals* (each
  watch entry caches one other literal of its clause; when the cached
  literal is already true the clause is skipped without touching it,
  which avoids most pointer-chasing in the hot loop),
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style variable activities with exponential decay,
* phase saving,
* Luby-sequence restarts,
* glucose-style learned-clause management: every learned clause carries
  its LBD ("literals block distance" — the number of distinct decision
  levels among its literals); reduction deletes high-LBD clauses first
  and *glue* clauses (LBD ≤ 2) are kept unconditionally,
* level-0 database simplification (:meth:`CdclSolver.simplify_database`),
  used by the SMT layer to garbage-collect clause scopes that were
  permanently deactivated by popping,
* a one-pass reset to a variable watermark (:meth:`CdclSolver.reset_to`),
  used by the solver pool between jobs so a long-lived session replays a
  fresh solver's search over its retained clauses,
* solving under assumptions (used for incremental queries by the SMT layer).

Hot-loop design.  The solver is pure Python, so the inner loop is written
for the interpreter: truth values live in one literal-indexed table
(MiniSat's ``lit_value``: ``_lit_value[lit]`` is ``_TRUE``, ``_FALSE`` or
``_UNASSIGNED``, both polarities written on assignment and cleared together
on unassignment, a variable's value read as ``_lit_value[2 * v]``), and
:meth:`CdclSolver._propagate`, :meth:`~CdclSolver._backtrack` and conflict
analysis bind the tables they touch to locals and decode literals inline
(``lit >> 1``, ``lit & 1``, ``lit ^ 1`` per the encoding documented in
:mod:`repro.smt.cnf`).  Speed-ups here must keep the search itself
unchanged — the same decisions, conflicts, propagations, learned clauses
and restarts, the same literal order in every clause and watch list, the
same order-heap pushes — so results and certificates stay byte-identical.
``TestGoldenSearchCounts`` in ``tests/smt/test_sat.py`` pins the search
counters of a seeded instance set, and ``benchmarks/check_regression.py``
compares the perf suite's propagation and conflict counts exactly.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.exceptions import SolverError
from repro.smt.cnf import CnfFormula, literal_variable, make_literal, negate

#: Truth values stored in the literal-indexed value table.
_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1


class SatResult(enum.Enum):
    """Verdict of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatStatistics:
    """Counters describing the work done by the solver."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0
    #: Problem clauses accepted into the database via :meth:`CdclSolver.add_clause`
    #: (tautologies and clauses already satisfied at level 0 are not counted;
    #: learned clauses are tracked separately by ``learned_clauses``).
    clauses_added: int = 0
    #: Clauses removed by :meth:`CdclSolver.simplify_database` (level-0
    #: garbage collection of satisfied clauses, e.g. retired SMT scopes).
    gc_removed_clauses: int = 0
    #: Number of :meth:`CdclSolver.simplify_database` runs.
    gc_runs: int = 0

    def delta_since(self, baseline: "SatStatistics") -> "SatStatistics":
        """Counters accumulated since ``baseline`` was snapshotted.

        Used for per-job accounting on shared (pooled) solvers: every
        monotone counter is differenced; ``max_decision_level`` is not a
        monotone count, so the current value is reported as-is.
        """
        delta = SatStatistics()
        for name in vars(delta):  # analysis: allow[ND01] field-wise difference; every field is visited exactly once, order-independent
            if name == "max_decision_level":
                setattr(delta, name, getattr(self, name))
            else:
                setattr(delta, name, getattr(self, name) - getattr(baseline, name))
        return delta

    def merged_with(self, other: "SatStatistics") -> "SatStatistics":
        """Field-wise sum of two records (max for the level-depth field)."""
        merged = SatStatistics()
        for name in vars(merged):  # analysis: allow[ND01] field-wise sum; every field is visited exactly once, order-independent
            if name == "max_decision_level":
                value = max(getattr(self, name), getattr(other, name))
            else:
                value = getattr(self, name) + getattr(other, name)
            setattr(merged, name, value)
        return merged


def luby(index: int) -> int:
    """Return the ``index``-th element (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    (Luby, Sinclair & Zuckerman 1993), computed with the standard
    iterative scheme used by MiniSat.
    """
    position = index - 1  # zero-based position within the sequence
    size, exponent = 1, 0
    while size < position + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != position:
        size = (size - 1) >> 1
        exponent -= 1
        position %= size
    return 1 << exponent


class _Clause:
    """A clause in the solver's database.

    ``lbd`` is the literals-block-distance of learned clauses (number of
    distinct decision levels at learning time, kept as a running minimum);
    problem clauses carry the sentinel 0 and are never reduced.
    ``pristine`` remembers the literal order the clause was created with:
    propagation permanently swaps literals in place while relocating
    watches, and :meth:`CdclSolver.reset_to` restores the
    original order so a reused solver replays a fresh solver's search.
    """

    __slots__ = ("literals", "learned", "activity", "lbd", "pristine")

    def __init__(self, literals: list[int], learned: bool = False, lbd: int = 0):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0
        self.lbd = lbd
        self.pristine = tuple(literals)


class CdclSolver:
    """A CDCL SAT solver over the internal literal encoding of
    :mod:`repro.smt.cnf`.

    Typical use::

        solver = CdclSolver()
        x, y = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(x), make_literal(y, negative=True)])
        result = solver.solve()
        if result is SatResult.SAT:
            model = solver.model()      # model[v] -> bool

    The solver may be reused for multiple :meth:`solve` calls, optionally
    with different assumption literals each time; clauses persist between
    calls (incremental solving).
    """

    def __init__(
        self,
        variable_decay: float = 0.95,
        clause_decay: float = 0.999,
        restart_base: int = 100,
        max_learned_ratio: float = 0.5,
    ):
        self._num_vars = 0
        self._clauses: list[_Clause] = []
        # Watch lists indexed by literal; each entry is a (blocker, clause)
        # pair, where the blocker is some other literal of the clause that
        # lets the hot loop skip the clause when it is already satisfied.
        self._watches: list[list[tuple[int, _Clause]]] = [[], []]
        # Truth value of every literal, indexed by the literal itself; slots
        # 0 and 1 belong to the unused variable 0.
        self._lit_value: list[int] = [_UNASSIGNED, _UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        # Conflict-analysis marks indexed by variable; every entry is False
        # again by the time _analyze_conflict returns.
        self._seen: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._propagation_head = 0
        self._variable_increment = 1.0
        self._variable_decay = variable_decay
        self._clause_increment = 1.0
        self._clause_decay = clause_decay
        self._restart_base = restart_base
        self._max_learned_ratio = max_learned_ratio
        # Job-level limits (see :meth:`set_limits`): an absolute ceiling on
        # ``statistics.conflicts`` and a ``time.monotonic()`` deadline,
        # both answering UNKNOWN when exceeded.  Both span solve() calls,
        # which lets the SMT/engine layers enforce per-*job* budgets
        # across many checks.
        self._conflict_ceiling: int | None = None
        self._deadline: float | None = None
        self._unsat = False
        self._conflicts_at_last_reduction = 0
        # Decision levels occupied by assumption pseudo-decisions during the
        # current solve() call (one entry per assumption already enqueued).
        self._active_assumption_levels: list[int] = []
        # Lazy max-heap of (-activity, variable) entries used by the
        # branching heuristic; stale entries are skipped on pop.
        self._order_heap: list[tuple[float, int]] = []
        # Low-water mark for the heap-exhausted fallback of
        # _pick_branch_literal: every unassigned variable below this index
        # is guaranteed to have a heap entry (any variable skipped by the
        # fallback scan was assigned at the time, and unassignment happens
        # only in _backtrack, which re-pushes the variable), so the linear
        # scan never revisits a prefix it has already paid for.
        self._fallback_head = 1
        # Model of the most recent satisfiable solve() (the working
        # assignment is backtracked to level 0 before returning, so clauses
        # can be added incrementally afterwards).
        self._cached_model: list[bool] | None = None
        self.statistics = SatStatistics()

    # -- problem construction -------------------------------------------

    def new_variable(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._lit_value.append(_UNASSIGNED)
        self._lit_value.append(_UNASSIGNED)
        self._seen.append(False)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        heapq.heappush(self._order_heap, (0.0, self._num_vars))
        return self._num_vars

    def ensure_variables(self, count: int) -> None:
        """Grow the variable table so that indices ``1..count`` exist."""
        while self._num_vars < count:
            self.new_variable()

    @property
    def num_variables(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (internal literal encoding) to the database.

        Must be called at decision level 0 (i.e. outside :meth:`solve`).
        """
        if self._trail_limits:
            raise SolverError("clauses may only be added at decision level 0")
        seen: set[int] = set()
        clause: list[int] = []
        for literal in literals:
            variable = literal_variable(literal)
            if variable <= 0 or variable > self._num_vars:
                raise SolverError(f"unallocated variable in literal {literal}")
            if negate(literal) in seen:
                return  # tautology
            if literal in seen:
                continue
            # Drop literals already false at level 0; satisfied clauses are
            # dropped entirely.
            value = self._lit_value[literal]
            if value == _TRUE and self._level[variable] == 0:
                return
            if value == _FALSE and self._level[variable] == 0:
                continue
            seen.add(literal)
            clause.append(literal)
        if not clause:
            self._unsat = True
            return
        self.statistics.clauses_added += 1
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._unsat = True
            elif self._propagate() is not None:
                self._unsat = True
            return
        self._attach_clause(_Clause(clause))

    def add_formula(self, formula: CnfFormula) -> None:
        """Add every clause of a :class:`CnfFormula`."""
        self.ensure_variables(formula.num_variables)
        if formula.contains_empty_clause:
            self._unsat = True
        for clause in formula.clauses:
            self.add_clause(clause)

    # -- solving ---------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide satisfiability of the clause database under ``assumptions``.

        Args:
            assumptions: literals (internal encoding) assumed true for this
                call only.

        Returns:
            :data:`SatResult.SAT`, :data:`SatResult.UNSAT`, or
            :data:`SatResult.UNKNOWN` once a limit installed by
            :meth:`set_limits` is reached.

        The model cached by a previous satisfiable call is invalidated on
        entry: after a non-SAT answer, :meth:`model` raises
        :class:`SolverError` instead of returning stale values.

        Raises:
            SolverError: if an assumption names a variable that is not
                allocated (variable 0, or one above :attr:`num_variables`).
        """
        assumption_queue = list(assumptions)
        for literal in assumption_queue:
            variable = literal_variable(literal)
            if variable <= 0 or variable > self._num_vars:
                raise SolverError(f"unallocated variable in assumption {literal}")
        self._cached_model = None
        if self._unsat:
            return SatResult.UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return SatResult.UNSAT

        restart_count = 0
        conflicts_until_restart = self._restart_base * luby(restart_count + 1)
        conflicts_since_restart = 0

        # Assumptions are enqueued as pseudo-decisions, one level each.
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.statistics.conflicts += 1
                conflicts_since_restart += 1
                if self._limits_exhausted():
                    self._backtrack(0)
                    return SatResult.UNKNOWN
                if self._decision_level() == 0:
                    self._unsat = True
                    return SatResult.UNSAT
                if self._decision_level() <= len(self._active_assumption_levels):
                    # Conflict depends only on assumptions.
                    self._backtrack(0)
                    return SatResult.UNSAT
                learned, backjump_level, lbd = self._analyze_conflict(conflict)
                self._backtrack(max(backjump_level, len(self._active_assumption_levels)))
                self._learn_clause(learned, lbd)
                self._decay_activities()
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                restart_count += 1
                self.statistics.restarts += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self._restart_base * luby(restart_count + 1)
                self._backtrack(len(self._active_assumption_levels))
                continue

            self._reduce_learned_clauses_if_needed()

            # Re-establish pending assumptions (they may have been undone by
            # restarts / backjumps).
            next_assumption = self._next_unhandled_assumption(assumption_queue)
            if next_assumption is not None:
                value = self._lit_value[next_assumption]
                if value == _FALSE:
                    self._backtrack(0)
                    return SatResult.UNSAT
                if value == _TRUE:
                    # Already implied; record a no-op decision level so the
                    # bookkeeping of assumption levels stays consistent.
                    self._trail_limits.append(len(self._trail))
                    self._active_assumption_levels.append(self._decision_level())
                    continue
                self._trail_limits.append(len(self._trail))
                self._active_assumption_levels.append(self._decision_level())
                self._enqueue(next_assumption, None)
                continue

            if (
                self._deadline is not None
                and (self.statistics.decisions & 255) == 0
                and time.monotonic() >= self._deadline  # analysis: allow[WC01] sanctioned deadline probe; enforces the job budget, never feeds search order
            ):
                self._backtrack(0)
                return SatResult.UNKNOWN

            literal = self._pick_branch_literal()
            if literal is None:
                self._cached_model = [value == _TRUE for value in self._lit_value[::2]]
                self._backtrack(0)
                return SatResult.SAT
            self.statistics.decisions += 1
            self._trail_limits.append(len(self._trail))
            self.statistics.max_decision_level = max(
                self.statistics.max_decision_level, self._decision_level()
            )
            self._enqueue(literal, None)

    def model(self) -> list[bool]:
        """Return the satisfying assignment found by the last SAT answer.

        ``model()[v]`` is the value of variable ``v``; index 0 is unused.
        Unassigned variables (possible when they do not occur in any clause)
        default to False.

        Raises:
            SolverError: if the most recent :meth:`solve` call did not
                answer SAT (or :meth:`solve` has not been called yet).
        """
        if self._cached_model is None:
            raise SolverError("no model available (last solve() was not SAT)")
        return list(self._cached_model)

    def value(self, variable: int) -> bool:
        """Value of ``variable`` in the model of the last SAT answer.

        Raises:
            SolverError: if no model is available (see :meth:`model`), or
                if ``variable`` was allocated after the model was found.
        """
        if self._cached_model is None:
            raise SolverError("no model available (last solve() was not SAT)")
        if not 0 < variable < len(self._cached_model):
            raise SolverError(
                f"variable {variable} has no value in the current model "
                "(allocated after the last SAT answer?)"
            )
        return self._cached_model[variable]

    def cached_model(self) -> list[bool] | None:
        """The last SAT model *without copying*, or None when unavailable.

        The returned list is replaced (never mutated) by later
        :meth:`solve` calls, so holding a reference across solves is safe;
        callers must not mutate it.
        """
        return self._cached_model

    # -- job limits --------------------------------------------------------

    def set_limits(
        self,
        conflict_ceiling: int | None = None,
        deadline: float | None = None,
    ) -> None:
        """Install (or clear, with ``None``) job-level solving limits.

        Args:
            conflict_ceiling: absolute bound on ``statistics.conflicts``;
                once reached, :meth:`solve` answers UNKNOWN.  Because the
                bound is absolute it naturally spans multiple solve()
                calls — callers enforce a per-job budget by setting
                ``statistics.conflicts + budget``.
            deadline: ``time.monotonic()`` timestamp after which solve()
                answers UNKNOWN.  Polled at every conflict and every 256
                decisions, so preemption granularity is coarse but the hot
                propagation loop stays untouched.
        """
        self._conflict_ceiling = conflict_ceiling
        self._deadline = deadline

    def _limits_exhausted(self) -> bool:
        """Whether the conflict ceiling or the deadline is reached."""
        conflicts = self.statistics.conflicts
        if self._conflict_ceiling is not None and conflicts >= self._conflict_ceiling:
            return True
        if (
            self._deadline is not None
            and (conflicts & 31) == 0
            and time.monotonic() >= self._deadline  # analysis: allow[WC01] sanctioned deadline probe; enforces the job budget, never feeds search order
        ):
            return True
        return False

    # -- internal: assignment & propagation ------------------------------

    def _next_unhandled_assumption(self, assumptions: list[int]) -> int | None:
        handled = len(self._active_assumption_levels)
        if handled < len(assumptions):
            return assumptions[handled]
        return None

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: int, reason: _Clause | None) -> bool:
        lit_value = self._lit_value
        value = lit_value[literal]
        if value != _UNASSIGNED:
            return value == _TRUE
        lit_value[literal] = _TRUE
        lit_value[literal ^ 1] = _FALSE
        variable = literal >> 1
        self._level[variable] = len(self._trail_limits)
        self._reason[variable] = reason
        self._phase[variable] = not (literal & 1)
        self._trail.append(literal)
        return True

    def _propagate(self) -> _Clause | None:
        """Unit propagation; returns a conflicting clause or None.

        The solver's hot loop: every table it touches is bound to a local,
        the propagation head and count stay in locals until the call ends,
        and the unit enqueue is inlined (same effect as :meth:`_enqueue`).
        """
        trail = self._trail
        watches = self._watches
        lit_value = self._lit_value
        level = self._level
        reasons = self._reason
        phase = self._phase
        decision_level = len(self._trail_limits)
        start = head = self._propagation_head
        while head < len(trail):
            false_literal = trail[head] ^ 1
            head += 1
            watch_list = watches[false_literal]
            # Only the removal below changes this list's length while it is
            # scanned (a replacement watch never lands on a false literal).
            index = 0
            end = len(watch_list)
            while index < end:
                blocker, clause = watch_list[index]
                # Blocking literal: if the cached literal is already true
                # the clause is satisfied — skip it without touching its
                # literal list (the common case on long watch lists).
                if lit_value[blocker] == _TRUE:
                    index += 1
                    continue
                literals = clause.literals
                # Ensure the false literal is in position 1.
                if literals[0] == false_literal:
                    literals[0], literals[1] = literals[1], literals[0]
                first = literals[0]
                first_value = lit_value[first]
                if first != blocker and first_value == _TRUE:
                    # Refresh the blocker so the next visit can skip early.
                    watch_list[index] = (first, clause)
                    index += 1
                    continue
                # Look for a replacement watch.
                for position in range(2, len(literals)):
                    candidate = literals[position]
                    if lit_value[candidate] != _FALSE:
                        literals[1], literals[position] = literals[position], literals[1]
                        watch_list[index] = watch_list[-1]
                        watch_list.pop()
                        end -= 1
                        watches[candidate].append((first, clause))
                        break
                else:
                    # Clause is unit or conflicting (``first`` is not true:
                    # the two checks above skipped every satisfied case).
                    if first_value == _FALSE:
                        self.statistics.propagations += head - start
                        self._propagation_head = len(trail)
                        return clause
                    lit_value[first] = _TRUE
                    lit_value[first ^ 1] = _FALSE
                    variable = first >> 1
                    level[variable] = decision_level
                    reasons[variable] = clause
                    phase[variable] = not (first & 1)
                    trail.append(first)
                    index += 1
        self.statistics.propagations += head - start
        self._propagation_head = head
        return None

    def _attach_clause(self, clause: _Clause) -> None:
        # Watch lists are indexed by the watched literal itself: when a
        # literal L is falsified (i.e. ~L is asserted) we visit watches[L].
        # Each watcher carries the clause's *other* watched literal as its
        # initial blocking literal.
        self._clauses.append(clause)
        self._watches[clause.literals[0]].append((clause.literals[1], clause))
        self._watches[clause.literals[1]].append((clause.literals[0], clause))

    def _backtrack(self, target_level: int) -> None:
        trail_limits = self._trail_limits
        if len(trail_limits) <= target_level:
            return
        boundary = trail_limits[target_level]
        trail = self._trail
        lit_value = self._lit_value
        reasons = self._reason
        activity = self._activity
        order_heap = self._order_heap
        heappush = heapq.heappush
        for literal in reversed(trail[boundary:]):
            lit_value[literal] = _UNASSIGNED
            lit_value[literal ^ 1] = _UNASSIGNED
            variable = literal >> 1
            reasons[variable] = None
            heappush(order_heap, (-activity[variable], variable))
        del trail[boundary:]
        del trail_limits[target_level:]
        del self._active_assumption_levels[target_level:]
        self._propagation_head = min(self._propagation_head, len(trail))

    # -- internal: conflict analysis --------------------------------------

    def _analyze_conflict(self, conflict: _Clause) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (with the asserting literal first), the
        backjump level, and the clause's LBD (distinct decision levels).
        """
        learned: list[int] = [0]  # placeholder for the asserting literal
        # The shared mark buffer needs no clearing pass: every variable
        # marked below is unmarked again, current-level ones as they are
        # resolved away and the rest by _minimise_clause.
        seen = self._seen
        level = self._level
        reasons = self._reason
        trail = self._trail
        bump_variable = self._bump_variable
        counter = 0
        literal = -1
        reason: _Clause | None = conflict
        trail_index = len(trail) - 1
        current_level = len(self._trail_limits)

        while True:
            assert reason is not None
            self._bump_clause(reason)
            # On the first iteration ``reason`` is the conflict clause and
            # every literal participates; on later iterations it is the
            # reason of the literal being resolved away, which sits at
            # position 0 and is skipped.
            start = 0 if literal == -1 else 1
            for clause_literal in reason.literals[start:]:
                variable = clause_literal >> 1
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = True
                bump_variable(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next trail literal to resolve on.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            literal = trail[trail_index]
            variable = literal >> 1
            seen[variable] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = literal ^ 1
                break
            reason = reasons[variable]

        # Clause minimisation: drop literals implied by the rest (cheap,
        # reason-subsumption based check).
        learned = self._minimise_clause(learned, seen)

        # LBD ("glue"): number of distinct decision levels in the learned
        # clause, measured before backtracking invalidates the levels.
        lbd = len({level[lit >> 1] for lit in learned})

        if len(learned) == 1:
            backjump_level = 0
        else:
            # Move the literal with the highest level (other than the
            # asserting one) into position 1.
            best = 1
            best_level = level[learned[1] >> 1]
            for position in range(2, len(learned)):
                position_level = level[learned[position] >> 1]
                if position_level > best_level:
                    best, best_level = position, position_level
            learned[1], learned[best] = learned[best], learned[1]
            backjump_level = best_level
        return learned, backjump_level, lbd

    def _minimise_clause(self, learned: list[int], seen: list[bool]) -> list[int]:
        """Drop each literal whose reason's other literals are all marked
        (in the clause) or fixed at level 0.

        On entry ``seen`` marks exactly the variables of ``learned[1:]``
        (conflict analysis leaves them marked); on exit they are unmarked.
        """
        level = self._level
        reasons = self._reason
        result = [learned[0]]
        for literal in learned[1:]:
            variable = literal >> 1
            reason = reasons[variable]
            if reason is None:
                result.append(literal)
                continue
            for reason_literal in reason.literals:
                reason_variable = reason_literal >> 1
                if (
                    reason_variable != variable
                    and not seen[reason_variable]
                    and level[reason_variable] > 0
                ):
                    result.append(literal)  # not implied by the rest
                    break
        for literal in learned[1:]:
            seen[literal >> 1] = False
        return result

    def _learn_clause(self, learned: list[int], lbd: int) -> None:
        self.statistics.learned_clauses += 1
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        clause = _Clause(learned, learned=True, lbd=lbd)
        clause.activity = self._clause_increment
        self._attach_clause(clause)
        self._enqueue(learned[0], clause)

    # -- internal: heuristics ---------------------------------------------

    def _bump_variable(self, variable: int) -> None:
        activity = self._activity
        activity[variable] += self._variable_increment
        if activity[variable] > 1e100:
            for index in range(1, self._num_vars + 1):
                activity[index] *= 1e-100
            self._variable_increment *= 1e-100
        if self._lit_value[2 * variable] == _UNASSIGNED:
            heapq.heappush(self._order_heap, (-activity[variable], variable))

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._clause_increment
        if clause.activity > 1e20:
            for other in self._clauses:
                if other.learned:
                    other.activity *= 1e-20
            self._clause_increment *= 1e-20
        # Glucose-style dynamic LBD: a clause participating in a conflict
        # has all its literals assigned, so its current LBD is well defined;
        # keep the minimum ever observed (clauses can only become "gluier").
        level = self._level
        lbd = len({level[lit >> 1] for lit in clause.literals})
        if lbd < clause.lbd:
            clause.lbd = lbd

    def _decay_activities(self) -> None:
        self._variable_increment /= self._variable_decay
        self._clause_increment /= self._clause_decay

    def _pick_branch_literal(self) -> int | None:
        # Compact the lazy heap once stale entries dominate: every
        # unassigned variable's effective priority is its *current*
        # activity (bumps and backtracking always re-push at the current
        # value, and newer entries pop first), so rebuilding from the
        # activity table preserves the pop order exactly while bounding
        # heap operations — and the churn of deallocating hundreds of
        # thousands of stale tuples — to O(num_vars).
        if len(self._order_heap) > 4 * self._num_vars + 16:
            self._order_heap = [
                (-self._activity[variable], variable)
                for variable in range(1, self._num_vars + 1)
                if self._lit_value[2 * variable] == _UNASSIGNED
            ]
            heapq.heapify(self._order_heap)
        # Pop the lazy heap until an unassigned variable surfaces.  Stale
        # entries (assigned variables, or outdated activities) are simply
        # discarded; unassigned variables are guaranteed to be present
        # because they are re-pushed on backtracking and on activity bumps.
        while self._order_heap:
            _, variable = heapq.heappop(self._order_heap)
            if self._lit_value[2 * variable] == _UNASSIGNED:
                return make_literal(variable, negative=not self._phase[variable])
        # Heap exhausted: scan forward from the low-water mark (covers
        # variables never bumped nor backtracked over since their initial
        # entry was popped).  Skipped variables are assigned *now*; should
        # they ever become unassigned again, _backtrack re-pushes them into
        # the heap, so the mark only ever moves forward and the scan cost
        # over the variable range is paid once per solve, not per decision.
        variable = self._fallback_head
        num_vars = self._num_vars
        while variable <= num_vars:
            if self._lit_value[2 * variable] == _UNASSIGNED:
                self._fallback_head = variable + 1
                return make_literal(variable, negative=not self._phase[variable])
            variable += 1
        self._fallback_head = variable
        return None

    def _reduce_learned_clauses_if_needed(self) -> None:
        # Scanning the clause database is O(|clauses|); only bother after a
        # sizeable batch of new conflicts has accumulated.
        if self.statistics.conflicts - self._conflicts_at_last_reduction < 2000:
            return
        self._conflicts_at_last_reduction = self.statistics.conflicts
        learned = [clause for clause in self._clauses if clause.learned]
        if len(learned) <= self._max_learned_ratio * max(len(self._clauses), 1) + 1000:
            return
        locked = {
            id(self._reason[literal_variable(lit)])
            for lit in self._trail
            if self._reason[literal_variable(lit)] is not None
        }
        # Glucose-style reduction: glue clauses (LBD <= 2), binary clauses
        # and reason-locked clauses are untouchable; the rest are deleted
        # worst-first by (high LBD, low activity) until half the learned
        # clauses are gone.
        candidates = [
            clause
            for clause in learned
            if len(clause.literals) > 2 and clause.lbd > 2 and id(clause) not in locked
        ]
        candidates.sort(key=lambda clause: (-clause.lbd, clause.activity))
        to_delete = {id(clause) for clause in candidates[: len(learned) // 2]}
        if not to_delete:
            return
        self.statistics.deleted_clauses += len(to_delete)
        self._clauses = [c for c in self._clauses if id(c) not in to_delete]
        for literal in range(2, 2 * self._num_vars + 2):
            self._watches[literal] = [
                entry for entry in self._watches[literal] if id(entry[1]) not in to_delete
            ]

    def watermark(self) -> tuple[int, int]:
        """The (variables, level-0 facts) mark that :meth:`reset_to` resets to.

        Taken at decision level 0, where the whole trail is fixed facts.
        """
        return self._num_vars, len(self._trail)

    def reset_to(self, watermark: tuple[int, int] | None = None) -> int:
        """Reset the solver for its next job, in one pass (level 0 only).

        The pass drops every variable above the watermark and every clause
        using one, plus every learned clause that is not locked as the
        reason of a level-0 fact.  It restores every kept clause's
        creation-time literal order (propagation swaps literals in place),
        rebuilds the watch lists once in clause order and resets the
        branching heuristics (activities, phases, decay increments, order
        heap).  The next :meth:`solve` then runs exactly the search a
        fresh solver given the kept clauses would run.

        Dropping variables is sound when they form a *conservative
        extension* of the kept ones — Tseitin gate definitions are exactly
        that — and when the caller never references them again (the SMT
        layer evicts the matching bit-blaster cache entries).

        Without a watermark, or when the level-0 trail has grown since it
        was taken, a :meth:`simplify_database` pass follows: it mirrors the
        level-0 filtering :meth:`add_clause` would apply to the kept
        clauses now, so no restored watch sits on a falsified literal.

        Returns:
            The number of learned clauses over kept variables dropped.

        Raises:
            SolverError: if called above decision level 0.
        """
        if self._trail_limits:
            raise SolverError("reset_to requires decision level 0")
        num_vars = self._num_vars
        if watermark is not None and watermark[0] < num_vars:
            num_vars = watermark[0]
            limit = 2 * num_vars + 1  # literal > limit <=> its variable is dropped
            self._trail = [literal for literal in self._trail if literal <= limit]
            # Dropped clauses may be reasons of level-0 facts; conflict
            # analysis never dereferences level-0 reasons, so clear them
            # all (mirrors simplify_database).
            for literal in self._trail:
                self._reason[literal >> 1] = None
            self._propagation_head = len(self._trail)
            del self._lit_value[2 * num_vars + 2:]
            del self._seen[num_vars + 1:]
            del self._level[num_vars + 1:]
            del self._reason[num_vars + 1:]
            del self._watches[2 * num_vars + 2:]
            self._num_vars = num_vars
            self._cached_model = None
        limit = 2 * num_vars + 1
        locked = {
            id(self._reason[literal >> 1])
            for literal in self._trail
            if self._reason[literal >> 1] is not None
        }
        kept: list[_Clause] = []
        trimmed = 0
        for clause in self._clauses:
            if max(clause.pristine) > limit:
                if clause.learned:
                    self.statistics.deleted_clauses += 1
                continue
            if clause.learned:
                if id(clause) not in locked:
                    trimmed += 1
                    continue
                clause.activity = 0.0
            clause.literals = list(clause.pristine)
            kept.append(clause)
        self.statistics.deleted_clauses += trimmed
        self._clauses = kept
        for watch_list in self._watches:
            watch_list.clear()
        for clause in kept:
            self._watches[clause.literals[0]].append((clause.literals[1], clause))
            self._watches[clause.literals[1]].append((clause.literals[0], clause))
        self._activity = [0.0] * (num_vars + 1)
        self._phase = [False] * (num_vars + 1)
        self._variable_increment = 1.0
        self._clause_increment = 1.0
        if watermark is None or len(self._trail) != watermark[1]:
            self.simplify_database()
        # Ascending (0.0, var) pairs already satisfy the heap invariant —
        # the same content a fresh solver's heap holds after allocation.
        self._order_heap = [(0.0, index) for index in range(1, num_vars + 1)]
        self._fallback_head = 1
        self._conflicts_at_last_reduction = self.statistics.conflicts
        return trimmed

    # -- internal: level-0 database simplification -------------------------

    def simplify_database(self) -> int:
        """Garbage-collect the clause database at decision level 0.

        Removes every clause satisfied by the level-0 (fixed) assignment
        and strips fixed-false literals from the remaining clauses.  The
        SMT layer calls this from :meth:`repro.smt.solver.SmtSolver.pop`
        once enough scopes have been permanently deactivated: their
        activation literal is fixed false, so every clause of the scope is
        fixed-satisfied and can be dropped wholesale.

        Returns:
            The number of clauses removed.

        Raises:
            SolverError: if called above decision level 0 (i.e. from
                within a :meth:`solve` callback).
        """
        if self._trail_limits:
            raise SolverError("simplify_database requires decision level 0")
        if self._unsat:
            return 0
        if self._propagate() is not None:
            self._unsat = True
            return 0
        kept: list[_Clause] = []
        units: list[int] = []
        removed = 0
        for clause in self._clauses:
            literals = clause.literals
            if any(self._lit_value[lit] == _TRUE for lit in literals):
                removed += 1  # fixed-satisfied: drop wholesale
                continue
            # Strip fixed-false literals (every assignment is level 0 here).
            remaining = [lit for lit in literals if self._lit_value[lit] != _FALSE]
            if len(remaining) < len(literals):
                if not remaining:
                    # All literals fixed false without a prior conflict
                    # cannot happen after a clean propagation fixpoint.
                    self._unsat = True
                    return removed
                if len(remaining) == 1:
                    units.append(remaining[0])
                    removed += 1
                    continue
                clause.literals = remaining
                # The stripped literals must not reappear when the
                # pristine order is restored (a watch on a fixed-false
                # literal would never fire again).
                clause.pristine = tuple(remaining)
            kept.append(clause)
        if removed:
            self._clauses = kept
            for watch_list in self._watches:
                watch_list.clear()
            for clause in kept:
                self._watches[clause.literals[0]].append((clause.literals[1], clause))
                self._watches[clause.literals[1]].append((clause.literals[0], clause))
            # Level-0 reasons may reference dropped clauses; they are never
            # dereferenced (conflict analysis skips level-0 variables), but
            # clearing them lets the clauses be freed.
            for literal in self._trail:
                self._reason[literal_variable(literal)] = None
            for literal in units:
                if not self._enqueue(literal, None) or self._propagate() is not None:
                    self._unsat = True
                    break
            self.statistics.gc_removed_clauses += removed
        self.statistics.gc_runs += 1
        return removed


def solve_formula(
    formula: CnfFormula, assumptions: Sequence[int] = (), **solver_kwargs
) -> tuple[SatResult, list[bool] | None]:
    """One-shot convenience: solve a :class:`CnfFormula`.

    Returns the verdict and, when SAT, the model as a list indexed by
    variable (index 0 unused).
    """
    solver = CdclSolver(**solver_kwargs)
    solver.add_formula(formula)
    result = solver.solve(assumptions)
    if result is SatResult.SAT:
        return result, solver.model()
    return result, None
