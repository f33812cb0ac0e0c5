"""Tests for the CDCL SAT solver, including a brute-force differential check."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SolverError
from repro.smt import CdclSolver, CnfFormula, SatResult, luby, make_literal, solve_formula


def _brute_force_sat(num_vars, clauses):
    """Reference satisfiability decision by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = [False] + list(bits)
        if all(
            any(
                (not assignment[lit >> 1]) if (lit & 1) else assignment[lit >> 1]
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False


def _model_satisfies(model, clauses):
    return all(
        any((not model[lit >> 1]) if (lit & 1) else model[lit >> 1] for lit in clause)
        for clause in clauses
    )


def _random_clauses(rng, num_vars, num_clauses, max_len=3):
    return [
        [
            rng.randint(1, num_vars) * 2 + rng.randint(0, 1)
            for _ in range(rng.randint(1, max_len))
        ]
        for _ in range(num_clauses)
    ]


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestBasicSolving:
    def test_simple_sat(self):
        solver = CdclSolver()
        x, y = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(x)])
        solver.add_clause([make_literal(x, True), make_literal(y)])
        assert solver.solve() is SatResult.SAT
        assert solver.value(x) is True
        assert solver.value(y) is True

    def test_simple_unsat(self):
        solver = CdclSolver()
        x = solver.new_variable()
        solver.add_clause([make_literal(x)])
        solver.add_clause([make_literal(x, True)])
        assert solver.solve() is SatResult.UNSAT

    def test_empty_clause_unsat(self):
        solver = CdclSolver()
        solver.new_variable()
        solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT

    def test_no_clauses_is_sat(self):
        solver = CdclSolver()
        solver.new_variable()
        assert solver.solve() is SatResult.SAT

    def test_clause_with_unknown_variable_rejected(self):
        solver = CdclSolver()
        with pytest.raises(SolverError):
            solver.add_clause([make_literal(7)])

    def test_pigeonhole_3_into_2_unsat(self):
        # Three pigeons, two holes: classic small UNSAT instance exercising
        # conflict analysis beyond unit propagation.
        solver = CdclSolver()
        var = {}
        for pigeon in range(3):
            for hole in range(2):
                var[(pigeon, hole)] = solver.new_variable()
        for pigeon in range(3):
            solver.add_clause([make_literal(var[(pigeon, hole)]) for hole in range(2)])
        for hole in range(2):
            for first in range(3):
                for second in range(first + 1, 3):
                    solver.add_clause(
                        [
                            make_literal(var[(first, hole)], True),
                            make_literal(var[(second, hole)], True),
                        ]
                    )
        assert solver.solve() is SatResult.UNSAT

    def test_incremental_reuse(self):
        solver = CdclSolver()
        x, y = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(x), make_literal(y)])
        assert solver.solve() is SatResult.SAT
        solver.add_clause([make_literal(x, True)])
        solver.add_clause([make_literal(y, True)])
        assert solver.solve() is SatResult.UNSAT

    def test_assumptions(self):
        solver = CdclSolver()
        x, y = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(x), make_literal(y)])
        assert solver.solve([make_literal(x, True), make_literal(y, True)]) is SatResult.UNSAT
        # Without assumptions the instance is still satisfiable.
        assert solver.solve() is SatResult.SAT
        assert solver.solve([make_literal(x, True)]) is SatResult.SAT
        assert solver.value(y) is True

    def test_assumptions_on_unallocated_variables_rejected(self):
        solver = CdclSolver()
        x = solver.new_variable()
        solver.add_clause([make_literal(x)])
        # Above num_variables, variable 0 (either polarity), negative ints.
        for assumption in (make_literal(5), make_literal(x + 1, True), 0, 1, -2):
            with pytest.raises(SolverError, match="unallocated"):
                solver.solve([assumption])
        # A rejected call leaves the solver usable.
        assert solver.solve([make_literal(x)]) is SatResult.SAT
        assert solver.model() == [False, True]

    def test_conflict_budget_returns_unknown(self):
        rng = random.Random(7)
        solver = CdclSolver()
        solver.set_limits(conflict_ceiling=1)
        num_vars = 20
        solver.ensure_variables(num_vars)
        for clause in _random_clauses(rng, num_vars, 120):
            solver.add_clause(clause)
        result = solver.solve()
        assert result in {SatResult.SAT, SatResult.UNSAT, SatResult.UNKNOWN}


def _pigeonhole_clauses(solver, pigeons, holes, guard=None):
    """Add PHP(pigeons, holes) clauses, optionally guarded by ``~guard``."""
    prefix = [make_literal(guard, True)] if guard is not None else []
    var = {}
    for pigeon in range(pigeons):
        for hole in range(holes):
            var[(pigeon, hole)] = solver.new_variable()
    for pigeon in range(pigeons):
        solver.add_clause(
            prefix + [make_literal(var[(pigeon, hole)]) for hole in range(holes)]
        )
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause(
                    prefix
                    + [
                        make_literal(var[(first, hole)], True),
                        make_literal(var[(second, hole)], True),
                    ]
                )
    return var


class TestModelLifetime:
    def test_model_before_any_solve_raises(self):
        solver = CdclSolver()
        solver.new_variable()
        with pytest.raises(SolverError):
            solver.model()

    def test_model_after_unsat_raises(self):
        # Regression: model()/value() used to return the stale model of a
        # *previous* SAT answer after a later UNSAT solve().
        solver = CdclSolver()
        x = solver.new_variable()
        solver.add_clause([make_literal(x)])
        assert solver.solve() is SatResult.SAT
        assert solver.value(x) is True
        solver.add_clause([make_literal(x, True)])
        assert solver.solve() is SatResult.UNSAT
        with pytest.raises(SolverError):
            solver.model()
        with pytest.raises(SolverError):
            solver.value(x)

    def test_model_after_assumption_unsat_raises(self):
        solver = CdclSolver()
        x = solver.new_variable()
        solver.add_clause([make_literal(x)])
        assert solver.solve() is SatResult.SAT
        assert solver.solve([make_literal(x, True)]) is SatResult.UNSAT
        with pytest.raises(SolverError):
            solver.model()
        # A new SAT answer makes the model available again.
        assert solver.solve() is SatResult.SAT
        assert solver.value(x) is True

    def test_model_after_unknown_raises(self):
        # (a|b), (~a|b), (a|~b): satisfiable, but the first decision (~a,
        # saved phase False) forces a conflict, reaching a zero ceiling.
        solver = CdclSolver()
        solver.set_limits(conflict_ceiling=0)
        a, b = solver.new_variable(), solver.new_variable()
        assert solver.solve() is SatResult.SAT  # caches a model
        solver.add_clause([make_literal(a), make_literal(b)])
        solver.add_clause([make_literal(a, True), make_literal(b)])
        solver.add_clause([make_literal(a), make_literal(b, True)])
        assert solver.solve() is SatResult.UNKNOWN
        with pytest.raises(SolverError):
            solver.model()


class TestIncrementalSolving:
    def test_assumption_levels_initialised_in_init(self):
        solver = CdclSolver()
        assert "_active_assumption_levels" in vars(solver)
        assert solver._active_assumption_levels == []

    def test_alternating_assumption_sets(self):
        solver = CdclSolver()
        guard = solver.new_variable()
        _pigeonhole_clauses(solver, 3, 2, guard=guard)
        # The pigeonhole clauses are active only under the guard.
        assert solver.solve([make_literal(guard)]) is SatResult.UNSAT
        assert solver.solve([make_literal(guard, True)]) is SatResult.SAT
        assert solver.model()[guard] is False
        assert solver.solve([make_literal(guard)]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT

    def test_restarts_with_active_assumptions(self):
        # restart_base=1 restarts after (nearly) every conflict, so the
        # assumption bookkeeping must survive repeated backtracking below
        # and re-establishment above the assumption levels.
        rng = random.Random(23)
        for _ in range(25):
            num_vars = rng.randint(4, 8)
            clauses = _random_clauses(rng, num_vars, rng.randint(10, 30))
            assumption_var = num_vars + 1
            solver = CdclSolver(restart_base=1)
            solver.ensure_variables(assumption_var)
            for clause in clauses:
                solver.add_clause(clause)
            assumptions = [make_literal(assumption_var, rng.randint(0, 1) == 1)]
            result = solver.solve(assumptions)
            expected = _brute_force_sat(num_vars, clauses)
            assert (result is SatResult.SAT) == expected
            if expected:
                model = solver.model()
                assert _model_satisfies(model, clauses)
                # The assumption itself must hold in the model.
                literal = assumptions[0]
                value = model[literal >> 1]
                assert value is not bool(literal & 1)
            if solver.statistics.conflicts > 0:
                assert solver.statistics.restarts > 0

    def test_backjumps_while_assumptions_active(self):
        # PHP(4,3) guarded: deciding it under the guard assumption forces
        # many conflicts/backjumps above the assumption level before the
        # final UNSAT-under-assumptions verdict.
        solver = CdclSolver()
        guard = solver.new_variable()
        _pigeonhole_clauses(solver, 4, 3, guard=guard)
        assert solver.solve([make_literal(guard)]) is SatResult.UNSAT
        assert solver.statistics.conflicts > 0
        # The guard is not unit-implied: dropping the assumption leaves SAT.
        assert solver.solve() is SatResult.SAT

    def test_clause_addition_between_solves(self):
        solver = CdclSolver()
        x, y, z = (solver.new_variable() for _ in range(3))
        solver.add_clause([make_literal(x), make_literal(y)])
        assert solver.solve() is SatResult.SAT
        solver.add_clause([make_literal(z)])
        assert solver.solve() is SatResult.SAT
        assert solver.value(z) is True
        solver.add_clause([make_literal(x, True)])
        assert solver.solve() is SatResult.SAT
        assert solver.value(y) is True
        solver.add_clause([make_literal(y, True)])
        assert solver.solve() is SatResult.UNSAT

    def test_job_limits_span_solve_calls(self):
        # A conflict ceiling is absolute: on an instance that cannot be
        # decided without conflicts (pigeonhole 4-into-3), a ceiling of 0
        # forces UNKNOWN on every solve until the limits are cleared.
        pigeons, holes = 4, 3
        solver = CdclSolver()
        variables = {
            (pigeon, hole): solver.new_variable()
            for pigeon in range(pigeons)
            for hole in range(holes)
        }
        for pigeon in range(pigeons):
            solver.add_clause(
                [make_literal(variables[(pigeon, hole)]) for hole in range(holes)]
            )
        for hole in range(holes):
            for first in range(pigeons):
                for second in range(first + 1, pigeons):
                    solver.add_clause(
                        [
                            make_literal(variables[(first, hole)], negative=True),
                            make_literal(variables[(second, hole)], negative=True),
                        ]
                    )
        solver.set_limits(conflict_ceiling=0)
        assert solver.solve() is SatResult.UNKNOWN
        assert solver.solve() is SatResult.UNKNOWN  # ceiling spans calls
        solver.set_limits(None, None)
        assert solver.solve() is SatResult.UNSAT

    def test_clauses_added_counter(self):
        solver = CdclSolver()
        x, y = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(x), make_literal(y)])
        solver.add_clause([make_literal(x), make_literal(x, True)])  # tautology
        assert solver.statistics.clauses_added == 1
        solver.add_clause([make_literal(y, True)])
        assert solver.statistics.clauses_added == 2


def _dpll(clauses, num_vars):
    """Reference DPLL with unit propagation (no learning, no heuristics).

    Deliberately a different algorithm from the CDCL solver under test, so
    a shared bug is unlikely; used by the differential fuzz below to guard
    the blocking-literal / LBD / garbage-collection changes to the hot
    path.
    """

    def propagate(assignment, clauses):
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = []
                satisfied = False
                for literal in clause:
                    value = assignment[literal >> 1]
                    if value is None:
                        unassigned.append(literal)
                    elif value != bool(literal & 1):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return False  # conflict
                if len(unassigned) == 1:
                    literal = unassigned[0]
                    assignment[literal >> 1] = not (literal & 1)
                    changed = True
        return True

    def search(assignment):
        assignment = list(assignment)
        if not propagate(assignment, clauses):
            return False
        try:
            variable = assignment.index(None, 1)
        except ValueError:
            return True
        for value in (True, False):
            candidate = list(assignment)
            candidate[variable] = value
            if search(candidate):
                return True
        return False

    return search([None] * (num_vars + 1))


class TestCdclVersusDpll:
    def test_random_cnfs_agree_with_reference_dpll(self):
        # Differential fuzz on small random CNFs: the tuned CDCL solver
        # (blocking literals, glucose reduction, GC) must agree with the
        # naive reference DPLL on every instance, and SAT models must
        # satisfy the clauses.
        rng = random.Random(1234)
        for trial in range(200):
            num_vars = rng.randint(2, 10)
            clauses = _random_clauses(rng, num_vars, rng.randint(2, 40))
            expected = _dpll(clauses, num_vars)
            solver = CdclSolver(restart_base=rng.choice([1, 4, 100]))
            solver.ensure_variables(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            assert (result is SatResult.SAT) == expected, (trial, clauses)
            if expected:
                assert _model_satisfies(solver.model(), clauses)

    def test_incremental_with_gc_agrees_with_dpll(self):
        # Interleave solving under random assumptions, clause addition,
        # level-0 GC and heuristic resets: the verdict stream must match a
        # reference decision on the accumulated CNF plus the assumptions
        # as units, and every SAT model must satisfy both.
        rng = random.Random(4321)
        for _ in range(40):
            num_vars = rng.randint(3, 8)
            solver = CdclSolver(restart_base=rng.choice([1, 100]))
            solver.ensure_variables(num_vars)
            accumulated = []
            for _ in range(6):
                batch = _random_clauses(rng, num_vars, rng.randint(1, 6))
                accumulated.extend(batch)
                for clause in batch:
                    solver.add_clause(clause)
                assumptions = [
                    make_literal(variable, rng.random() < 0.5)
                    for variable in rng.sample(
                        range(1, num_vars + 1), rng.randint(0, min(3, num_vars))
                    )
                ]
                units = [[literal] for literal in assumptions]
                result = solver.solve(assumptions)
                expected = _dpll(accumulated + units, num_vars)
                assert (result is SatResult.SAT) == expected
                if expected:
                    assert _model_satisfies(solver.model(), accumulated + units)
                if not _dpll(accumulated, num_vars):
                    break
                if rng.random() < 0.5:
                    solver.reset_to()
                else:
                    solver.simplify_database()


class TestSimplifyDatabase:
    def test_removes_satisfied_clauses(self):
        solver = CdclSolver()
        x, y, z = (solver.new_variable() for _ in range(3))
        solver.add_clause([make_literal(x), make_literal(y)])
        solver.add_clause([make_literal(x, True), make_literal(z)])
        # Fix x true: the first clause becomes fixed-satisfied, the second
        # loses its ~x literal and becomes the unit z.
        solver.add_clause([make_literal(x)])
        removed = solver.simplify_database()
        assert removed == 2
        assert solver.statistics.gc_removed_clauses == 2
        assert solver.solve() is SatResult.SAT
        assert solver.value(x) is True
        assert solver.value(z) is True

    def test_gc_preserves_verdicts_under_activation_scopes(self):
        # MiniSat-style scope retirement: clauses guarded by an activation
        # literal are garbage once the guard is fixed false.
        solver = CdclSolver()
        guard = solver.new_variable()
        _pigeonhole_clauses(solver, 3, 2, guard=guard)
        assert solver.solve([make_literal(guard)]) is SatResult.UNSAT
        solver.add_clause([make_literal(guard, True)])  # retire the scope
        removed = solver.simplify_database()
        assert removed > 0
        assert solver.solve() is SatResult.SAT

    def test_gc_above_level_zero_rejected(self):
        solver = CdclSolver()
        solver.new_variable()
        solver._trail_limits.append(0)  # simulate an open decision level
        with pytest.raises(SolverError):
            solver.simplify_database()
        solver._trail_limits.pop()

    def test_gc_on_unsat_database_is_noop(self):
        solver = CdclSolver()
        x = solver.new_variable()
        solver.add_clause([make_literal(x)])
        solver.add_clause([make_literal(x, True)])
        assert solver.simplify_database() == 0
        assert solver.solve() is SatResult.UNSAT


class TestLearnedClauseQuality:
    def test_learned_clauses_carry_lbd(self):
        solver = CdclSolver()
        guard = solver.new_variable()
        _pigeonhole_clauses(solver, 4, 3, guard=guard)
        assert solver.solve([make_literal(guard)]) is SatResult.UNSAT
        learned = [clause for clause in solver._clauses if clause.learned]
        assert learned, "pigeonhole refutation must learn clauses"
        assert all(clause.lbd >= 1 for clause in learned)

    def test_fallback_branch_scan_covers_all_variables(self):
        # Drain the order heap manually: solving must still find every
        # unassigned variable through the forward-scan fallback.
        solver = CdclSolver()
        variables = [solver.new_variable() for _ in range(12)]
        for first, second in zip(variables, variables[1:]):
            solver.add_clause([make_literal(first), make_literal(second)])
        solver._order_heap.clear()
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        for first, second in zip(variables, variables[1:]):
            assert model[first] or model[second]
        # The low-water mark advanced past the scanned prefix.
        assert solver._fallback_head > 1


class TestDifferential:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(150):
            num_vars = rng.randint(1, 8)
            clauses = _random_clauses(rng, num_vars, rng.randint(1, 30))
            expected = _brute_force_sat(num_vars, clauses)
            solver = CdclSolver()
            solver.ensure_variables(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            result = solver.solve()
            assert (result is SatResult.SAT) == expected
            if expected:
                assert _model_satisfies(solver.model(), clauses)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_random_formulas(self, data):
        num_vars = data.draw(st.integers(min_value=1, max_value=6))
        clause_strategy = st.lists(
            st.lists(
                st.integers(min_value=2, max_value=num_vars * 2 + 1),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=15,
        )
        clauses = data.draw(clause_strategy)
        expected = _brute_force_sat(num_vars, clauses)
        formula = CnfFormula()
        formula.new_variables(num_vars)
        for clause in clauses:
            formula.add_clause(clause)
        result, model = solve_formula(formula)
        assert (result is SatResult.SAT) == expected
        if expected:
            assert model is not None
            assert _model_satisfies(model, clauses)


class TestSessionRetentionHooks:
    """watermark / reset_to (the pool's between-jobs reset pass)."""

    def _solver_with_learned_clauses(self):
        # Pigeonhole 5-into-4: UNSAT, guaranteed to learn clauses.
        pigeons, holes = 5, 4
        solver = CdclSolver()
        variables = {
            (pigeon, hole): solver.new_variable()
            for pigeon in range(pigeons)
            for hole in range(holes)
        }
        for pigeon in range(pigeons):
            solver.add_clause(
                [make_literal(variables[(pigeon, hole)]) for hole in range(holes)]
            )
        for hole in range(holes):
            for first in range(pigeons):
                for second in range(first + 1, pigeons):
                    solver.add_clause(
                        [
                            make_literal(variables[(first, hole)], negative=True),
                            make_literal(variables[(second, hole)], negative=True),
                        ]
                    )
        return solver

    def test_reset_to_drops_clauses_and_allows_regrowth(self):
        solver = CdclSolver()
        a, b = solver.new_variable(), solver.new_variable()
        solver.add_clause([make_literal(a), make_literal(b)])
        watermark = solver.watermark()
        c = solver.new_variable()
        solver.add_clause([make_literal(b, negative=True), make_literal(c)])
        solver.add_clause([make_literal(c)])  # fixes c at level 0
        assert solver.reset_to(watermark) == 0
        assert len(solver._clauses) == 1
        assert solver.num_variables == watermark[0]
        # The retained clause still solves; fresh variables reuse indices
        # and start unassigned in both polarities, whatever the dropped
        # variable at that index was fixed to.
        d = solver.new_variable()
        assert d == watermark[0] + 1
        assert solver._lit_value[make_literal(d)] == -1
        assert solver._lit_value[make_literal(d, negative=True)] == -1
        solver.add_clause([make_literal(d, negative=True)])
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        assert model[a] or model[b]
        assert model[d] is False

    def test_reset_to_requires_level_zero(self):
        solver = self._solver_with_learned_clauses()
        solver._trail_limits.append(0)  # simulate an open decision level
        with pytest.raises(SolverError, match="level 0"):
            solver.reset_to((1, 0))
        solver._trail_limits.pop()

    def _guarded_pigeonhole(self):
        """Pigeonhole 5-into-4, guarded by an activation literal.

        Solving under the activation assumption is UNSAT but does not
        latch the solver's permanent UNSAT flag, so the search can be
        re-run — which is what a pooled session does between jobs.
        """
        pigeons, holes = 5, 4
        solver = CdclSolver()
        guard = solver.new_variable()
        variables = {
            (pigeon, hole): solver.new_variable()
            for pigeon in range(pigeons)
            for hole in range(holes)
        }
        deactivate = make_literal(guard, negative=True)
        for pigeon in range(pigeons):
            solver.add_clause(
                [deactivate]
                + [make_literal(variables[(pigeon, hole)]) for hole in range(holes)]
            )
        for hole in range(holes):
            for first in range(pigeons):
                for second in range(first + 1, pigeons):
                    solver.add_clause(
                        [
                            deactivate,
                            make_literal(variables[(first, hole)], negative=True),
                            make_literal(variables[(second, hole)], negative=True),
                        ]
                    )
        return solver, [make_literal(guard)]

    def test_reset_to_replays_identical_search(self):
        first, assumptions = self._guarded_pigeonhole()
        baseline, base_assumptions = self._guarded_pigeonhole()
        assert first.solve(assumptions) is SatResult.UNSAT
        first_stats = (
            first.statistics.conflicts,
            first.statistics.decisions,
            first.statistics.propagations,
        )
        assert first.reset_to() > 0  # the proof's learned clauses go
        # The reset solver must retrace the fresh solver's search exactly.
        assert first.solve(assumptions) is SatResult.UNSAT
        assert baseline.solve(base_assumptions) is SatResult.UNSAT
        base_stats = (
            baseline.statistics.conflicts,
            baseline.statistics.decisions,
            baseline.statistics.propagations,
        )
        assert first_stats == base_stats
        assert (
            first.statistics.conflicts,
            first.statistics.decisions,
            first.statistics.propagations,
        ) == tuple(2 * value for value in base_stats)


    @staticmethod
    def _session_with_job(seed):
        """A base 3-SAT instance, a watermark, then one job's encoding.

        The job adds Tseitin AND gates over base variables, clauses over
        the gates guarded by an activation variable, and a level-0 fact
        on a base variable; it solves under the guard (learning clauses)
        and then retires the guard, as a popped SMT scope does.
        """
        rng = random.Random(seed)
        base_vars = 40
        base = []
        for _ in range(150):
            variables = rng.sample(range(1, base_vars + 1), 3)
            base.append([make_literal(v, rng.random() < 0.5) for v in variables])
        solver = CdclSolver(restart_base=10)
        solver.ensure_variables(base_vars)
        for clause in base:
            solver.add_clause(clause)
        mark = solver.watermark()
        guard = solver.new_variable()
        gates = []
        for _ in range(30):
            left, right = (
                make_literal(v, rng.random() < 0.5)
                for v in rng.sample(range(1, base_vars + 1), 2)
            )
            gate = make_literal(solver.new_variable())
            solver.add_clause([gate ^ 1, left])
            solver.add_clause([gate ^ 1, right])
            solver.add_clause([gate, left ^ 1, right ^ 1])
            gates.append(gate)
        for _ in range(40):
            solver.add_clause(
                [make_literal(guard, negative=True)]
                + [gate ^ (rng.random() < 0.5) for gate in rng.sample(gates, 3)]
            )
        fact = make_literal(rng.randint(1, base_vars), rng.random() < 0.5)
        solver.add_clause([fact])
        solver.solve([make_literal(guard)])
        solver.add_clause([make_literal(guard, negative=True)])
        assumptions = [
            make_literal(v, rng.random() < 0.5)
            for v in rng.sample(range(1, base_vars + 1), 3)
        ]
        return solver, mark, base + [[fact]], assumptions

    @pytest.mark.parametrize("seed", [1, 3])
    def test_reset_to_a_watermark_replays_a_fresh_search(self, seed):
        solver, mark, retained, assumptions = self._session_with_job(seed)
        gc_runs = solver.statistics.gc_runs
        assert solver.reset_to(mark) > 0  # learned clauses over base variables
        # The fact fixed after the mark forces the simplification pass.
        assert solver.statistics.gc_runs == gc_runs + 1
        assert solver.num_variables == mark[0]
        assert not [clause for clause in solver._clauses if clause.learned]
        before = _search_counts(solver)
        result = solver.solve(assumptions)
        counts = tuple(
            after - earlier for after, earlier in zip(_search_counts(solver), before)
        )

        fresh = CdclSolver(restart_base=10)
        fresh.ensure_variables(mark[0])
        for clause in [retained[-1]] + retained[:-1]:  # the fact first
            fresh.add_clause(clause)
        before = _search_counts(fresh)
        assert fresh.solve(assumptions) is result
        assert counts == tuple(
            after - earlier for after, earlier in zip(_search_counts(fresh), before)
        )
        assert counts[1] > 0  # a real search, with conflicts


def _golden_three_sat(seed, num_vars):
    """Seeded random 3-SAT at the 4.26 clause/variable threshold."""
    rng = random.Random(seed)
    solver = CdclSolver(restart_base=20)
    solver.ensure_variables(num_vars)
    for _ in range(round(4.26 * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        solver.add_clause([make_literal(v, rng.random() < 0.5) for v in variables])
    return solver, solver.solve()


def _search_counts(solver):
    statistics = solver.statistics
    return (
        statistics.decisions,
        statistics.conflicts,
        statistics.propagations,
        statistics.learned_clauses,
        statistics.restarts,
    )


class TestGoldenSearchCounts:
    """Pins the exact search of a seeded instance set.

    Any speed-up of the solver must leave these counters unchanged: a
    different count means a different search (another decision,
    propagation order or learned clause), which can change models and
    therefore results and certificates downstream.
    """

    # (seed, variables) -> (verdict, search counts)
    THREE_SAT = {
        (1, 60): ("sat", (116, 73, 1187, 73, 2)),
        (2, 60): ("unsat", (119, 96, 1483, 95, 3)),
        (4, 130): ("unsat", (2150, 1694, 47159, 1693, 33)),
        (5, 130): ("sat", (220, 134, 4279, 134, 5)),
        # Long enough for the in-search learned-clause reduction to fire.
        (6, 170): ("unsat", (5202, 4064, 135085, 4063, 69)),
    }

    # One (verdict, counts) entry per solve() of _incremental_counts.
    # Generated by the two-step reset the one-pass reset_to replaced
    # (drop every unlocked learned clause, then restore pristine order
    # and heuristics, simplifying under reset_to's condition), so they
    # also pin that reset_to runs the same search as that sequence.
    INCREMENTAL = [
        ("sat", (24, 2, 56, 2, 0)),
        ("sat", (44, 6, 125, 6, 0)),
        ("sat", (74, 10, 191, 10, 0)),
        ("unsat", (74, 10, 195, 10, 0)),
        ("sat", (84, 10, 235, 10, 0)),
        ("sat", (92, 11, 285, 11, 0)),
        ("sat", (101, 13, 333, 13, 0)),
        ("sat", (109, 14, 382, 14, 0)),
        ("sat", (122, 18, 474, 18, 0)),
        ("unsat", (126, 23, 544, 22, 0)),
        ("unsat", (147, 41, 796, 39, 1)),
        ("unsat", (158, 50, 881, 47, 1)),
    ]

    @staticmethod
    def _incremental_counts():
        """Solve under assumptions between clause batches, cycling through
        reset_to without a watermark, reset_to with one taken before the
        solve (no new level-0 facts, so no simplification pass) and
        simplify_database."""
        rng = random.Random(7)
        num_vars = 40
        solver = CdclSolver(restart_base=10)
        solver.ensure_variables(num_vars)

        def add_batch(count):
            for _ in range(count):
                variables = rng.sample(range(1, num_vars + 1), 3)
                solver.add_clause(
                    [make_literal(v, rng.random() < 0.5) for v in variables]
                )

        add_batch(100)
        observed = []
        for step in range(12):
            mark = solver.watermark()
            assumptions = [
                make_literal(v, rng.random() < 0.5)
                for v in rng.sample(range(1, num_vars + 1), 4)
            ]
            result = solver.solve(assumptions)
            observed.append((result.value, _search_counts(solver)))
            if step % 3 == 0:
                solver.reset_to()
            elif step % 3 == 1:
                solver.reset_to(mark)
            else:
                solver.simplify_database()
            add_batch(5)
        return observed

    def test_search_counts_are_pinned(self):
        for (seed, num_vars), expected in self.THREE_SAT.items():
            solver, result = _golden_three_sat(seed, num_vars)
            assert (result.value, _search_counts(solver)) == expected, seed
            if num_vars == 170:
                assert solver.statistics.deleted_clauses > 0
        assert self._incremental_counts() == self.INCREMENTAL
