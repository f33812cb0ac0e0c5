"""Tests for the SMT facade (repro.smt.solver)."""

import pytest

from repro.core import SolverError
from repro.smt import (
    SmtResult,
    SmtSolver,
    bool_or,
    bv_const,
    bv_var,
    solve,
)


class TestSmtSolver:
    def test_sat_with_model(self):
        solver = SmtSolver()
        x, y = bv_var("x", 8), bv_var("y", 8)
        solver.add((x + y).eq(bv_const(45, 8)), x.ult(y), x.ne(bv_const(0, 8)))
        assert solver.check() is SmtResult.SAT
        model = solver.model()
        assert (model["x"] + model["y"]) % 256 == 45
        assert model["x"] < model["y"]
        assert model["x"] != 0

    def test_unsat(self):
        solver = SmtSolver()
        x = bv_var("x", 8)
        solver.add(x.ult(bv_const(3, 8)), x.ugt(bv_const(5, 8)))
        assert solver.check() is SmtResult.UNSAT
        with pytest.raises(SolverError):
            solver.model()

    def test_push_pop(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        solver.push()
        solver.add(x.uge(bv_const(8, 4)))
        assert solver.check() is SmtResult.UNSAT
        solver.pop()
        assert solver.check() is SmtResult.SAT

    def test_job_limits_set_before_the_sat_core_exists_are_enforced(self):
        solver = SmtSolver()
        solver.set_job_limits(max_conflicts=0)  # no SAT core yet
        x = bv_var("x", 8)
        # Needs conflicts: x * x == 49 with x > 8 (x = 135 is a model).
        solver.add((x * x).eq(bv_const(49, 8)), x.ugt(bv_const(8, 8)))
        assert solver.check() is SmtResult.UNKNOWN
        assert solver.check() is SmtResult.UNKNOWN  # the budget stays spent
        solver.set_job_limits()
        assert solver.check() is SmtResult.SAT
        assert (solver.model()["x"] ** 2) % 256 == 49

    def test_pop_without_push_raises(self):
        with pytest.raises(SolverError):
            SmtSolver().pop()

    def test_only_bool_terms_assertable(self):
        with pytest.raises(SolverError):
            SmtSolver().add(bv_var("x", 4))

    def test_extra_assertions_in_check(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        assert solver.check(x.eq(bv_const(9, 4))) is SmtResult.UNSAT
        assert solver.check(x.eq(bv_const(5, 4))) is SmtResult.SAT

    def test_model_evaluate_completes_missing_variables(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.eq(bv_const(3, 4)))
        solver.check()
        model = solver.model()
        unrelated = bv_var("unrelated", 4)
        assert model.evaluate(unrelated.eq(bv_const(0, 4))) is True

    def test_is_valid_and_is_satisfiable(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        assert solver.is_valid(bool_or(x.ult(bv_const(8, 4)), x.uge(bv_const(8, 4))))
        assert not solver.is_valid(x.ult(bv_const(8, 4)))
        assert solver.is_satisfiable(x.eq(bv_const(7, 4)))

    def test_statistics_track_checks(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.eq(bv_const(1, 4)))
        solver.check()
        solver.check(x.eq(bv_const(2, 4)))
        assert solver.statistics.checks == 2
        assert solver.statistics.sat_answers == 1
        assert solver.statistics.unsat_answers == 1

    def test_statistics_count_clauses_and_variables(self):
        # Regression: clauses_generated was declared but never incremented.
        solver = SmtSolver()
        x, y = bv_var("x", 8), bv_var("y", 8)
        solver.add((x + y).eq(bv_const(45, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver.statistics.clauses_generated > 0
        assert solver.statistics.variables_generated > 0

    def test_repeated_check_reuses_encoding(self):
        # An unchanged assertion stack must not be re-bit-blasted: no new
        # SAT variables or clauses appear.
        solver = SmtSolver()
        x = bv_var("x", 8)
        solver.add((x * bv_const(3, 8)).eq(bv_const(33, 8)))
        assert solver.check() is SmtResult.SAT
        variables_first = solver.statistics.variables_generated
        clauses_first = solver.statistics.clauses_generated
        assert solver.check() is SmtResult.SAT
        assert solver.statistics.variables_generated == variables_first
        assert solver.statistics.clauses_generated == clauses_first

    def test_model_value_resolves_single_names(self):
        solver = SmtSolver()
        x, y = bv_var("x", 8), bv_var("y", 8)
        solver.add(x.eq(bv_const(3, 8)), y.eq(bv_const(9, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver.model_value("x") == 3
        assert solver.model_value("y") == 9
        assert solver.model_value("never_declared") is None
        assert solver.check(x.eq(bv_const(4, 8))) is SmtResult.UNSAT
        with pytest.raises(SolverError):
            solver.model_value("x")

    def test_one_shot_solve_helper(self):
        x = bv_var("x", 6)
        verdict, model = solve([x.ugt(bv_const(60, 6))])
        assert verdict is SmtResult.SAT
        assert model["x"] > 60


class TestScopesAndAssumptions:
    """Push/pop and check-time extras on the incremental solver."""

    def test_popped_scope_does_not_constrain_later_checks(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        solver.push()
        solver.add(x.eq(bv_const(3, 4)))
        assert solver.check() is SmtResult.SAT
        assert solver.model()["x"] == 3
        solver.pop()
        solver.push()
        solver.add(x.eq(bv_const(5, 4)))
        assert solver.check() is SmtResult.SAT
        assert solver.model()["x"] == 5
        solver.pop()

    def test_popped_unsat_scope_recovers(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        solver.push()
        solver.add(x.uge(bv_const(8, 4)))
        assert solver.check() is SmtResult.UNSAT
        solver.pop()
        assert solver.check() is SmtResult.SAT
        assert solver.model()["x"] < 8

    def test_nested_scopes(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        solver.push()
        solver.add(x.uge(bv_const(2, 4)))
        solver.push()
        solver.add(x.eq(bv_const(1, 4)))
        assert solver.check() is SmtResult.UNSAT
        solver.pop()
        assert solver.check() is SmtResult.SAT
        assert 2 <= solver.model()["x"] < 8
        solver.pop()
        assert solver.check(x.eq(bv_const(1, 4))) is SmtResult.SAT

    def test_extra_formulas_do_not_persist(self):
        solver = SmtSolver()
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        assert solver.check(x.eq(bv_const(9, 4))) is SmtResult.UNSAT
        assert solver.check() is SmtResult.SAT
        assert solver.check(x.eq(bv_const(5, 4))) is SmtResult.SAT
        assert solver.model()["x"] == 5
        # Several different extras in sequence each constrain only their
        # own check.
        for value in (0, 3, 7):
            assert solver.check(x.eq(bv_const(value, 4))) is SmtResult.SAT
            assert solver.model()["x"] == value

    def test_incremental_matches_fresh_solver_per_check(self):
        # Reference semantics: each check answers what a fresh solver
        # given the live assertions plus the extras would answer.
        x, y = bv_var("x", 8), bv_var("y", 8)
        script = [
            ("add", (x + y).eq(bv_const(10, 8))),
            ("check", None),
            ("push", None),
            ("add", x.ugt(y)),
            ("check", None),
            ("add", x.eq(y)),
            ("check", None),
            ("pop", None),
            ("check", x.eq(y)),
            ("check", None),
        ]
        solver = SmtSolver()
        incremental, fresh = [], []
        for action, payload in script:
            if action == "add":
                solver.add(payload)
            elif action == "push":
                solver.push()
            elif action == "pop":
                solver.pop()
            else:
                extras = (payload,) if payload is not None else ()
                incremental.append(solver.check(*extras))
                fresh.append(solve(list(solver.assertions) + list(extras))[0])
        assert incremental == fresh
        assert incremental == [
            SmtResult.SAT,
            SmtResult.SAT,
            SmtResult.UNSAT,
            SmtResult.SAT,
            SmtResult.SAT,
        ]

    def test_only_bool_terms_checkable(self):
        solver = SmtSolver()
        with pytest.raises(SolverError):
            solver.check(bv_var("x", 4))


    def test_reset_to_base_requires_the_base_on_top(self):
        solver = SmtSolver()
        x = bv_var("reset_base_x", 4)
        solver.push()
        solver.add(x.ult(bv_const(8, 4)))
        solver.seal_base()
        solver.push()
        solver.add(x.eq(bv_const(3, 4)))
        assert solver.check() is SmtResult.SAT
        with pytest.raises(SolverError, match="sealed base on top"):
            solver.reset_to_base()
        solver.pop()
        solver.reset_to_base()
        # The base constraint survives the reset; the job's does not.
        assert solver.check(x.eq(bv_const(9, 4))) is SmtResult.UNSAT
        assert solver.check(x.eq(bv_const(5, 4))) is SmtResult.SAT


class TestQueryShrinkingLayers:
    """The word-level / encoding-level / SAT-level ablation knobs."""

    @pytest.mark.parametrize(
        "options",
        [
            dict(simplify_terms=False),
            dict(polarity_aware=False),
            dict(simplify_terms=False, polarity_aware=False),
            dict(gc_dead_clauses=None),
            dict(gc_dead_clauses=1),
        ],
        ids=["no-simplify", "no-polarity", "neither", "no-gc", "eager-gc"],
    )
    def test_ablations_agree_on_scripted_run(self, options):
        x, y = bv_var("x", 8), bv_var("y", 8)
        reference = SmtSolver()
        ablated = SmtSolver(**options)
        script = [
            ("add", (x + y).eq(bv_const(10, 8))),
            ("check", None),
            ("push", None),
            ("add", x.ugt(y)),
            ("check", None),
            ("pop", None),
            ("push", None),
            ("add", x.eq(y)),
            ("check", None),
            ("pop", None),
            ("check", x.ult(bv_const(3, 8))),
            ("check", None),
        ]
        for action, payload in script:
            outcomes = []
            for solver in (reference, ablated):
                if action == "add":
                    solver.add(payload)
                elif action == "push":
                    solver.push()
                elif action == "pop":
                    solver.pop()
                else:
                    extras = (payload,) if payload is not None else ()
                    outcomes.append(solver.check(*extras))
            if outcomes:
                assert outcomes[0] == outcomes[1]
                if outcomes[0] is SmtResult.SAT:
                    for solver in (reference, ablated):
                        model = solver.model()
                        for formula in solver.assertions:
                            assert model.evaluate(formula) is True

    def test_simplified_tautology_never_reaches_sat_core(self):
        solver = SmtSolver()
        x = bv_var("x", 8)
        solver.add(x.uge(bv_const(0, 8)))  # trivially true
        assert solver.check() is SmtResult.SAT
        assert solver.statistics.terms_simplified == 1
        # Only the blaster's constant-true clause was ever generated (the
        # assertion itself folded to that same literal and was absorbed).
        assert solver.statistics.clauses_generated == 1
        assert solver.statistics.variables_generated == 1

    def test_polarity_aware_generates_fewer_clauses(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        formula = bool_or(x.eq(y), x.ult(bv_const(3, 8)))
        counts = {}
        for polarity_aware in (True, False):
            solver = SmtSolver(polarity_aware=polarity_aware)
            solver.add(formula)
            assert solver.check() is SmtResult.SAT
            counts[polarity_aware] = solver.statistics.clauses_generated
        assert counts[True] < counts[False]

    def test_scope_gc_reclaims_dead_clauses(self):
        solver = SmtSolver(gc_dead_clauses=1)  # collect on every pop
        x = bv_var("x", 8)
        solver.add(x.ult(bv_const(100, 8)))
        for value in range(6):
            solver.push()
            solver.add((x * bv_const(value + 2, 8)).eq(bv_const(value, 8)))
            solver.check()
            solver.pop()
        assert solver.statistics.clauses_collected > 0
        # Retired scopes must not constrain later checks.
        assert solver.check() is SmtResult.SAT
        assert solver.model()["x"] < 100

    def test_nested_pop_keeps_outer_scope_in_gc_accounting(self):
        # Regression: popping a small inner scope must not erase the
        # enclosing scope's clauses from the dead-clause accounting.
        solver = SmtSolver(gc_dead_clauses=100)
        x, y = bv_var("x", 8), bv_var("y", 8)
        solver.push()
        for value in range(8):
            solver.add((x * bv_const(value + 3, 8)).eq(y + bv_const(value, 8)))
        solver.check()
        solver.push()
        solver.add(x.ult(bv_const(5, 8)))
        solver.check()
        solver.pop()  # tiny inner scope
        solver.pop()  # big outer scope: its clauses must count as dead
        assert solver.statistics.clauses_collected > 0
        assert solver.check() is SmtResult.SAT

    def test_scope_gc_interleaved_with_nested_scopes(self):
        solver = SmtSolver(gc_dead_clauses=1)
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(8, 4)))
        solver.push()
        solver.add(x.uge(bv_const(2, 4)))
        solver.push()
        solver.add(x.eq(bv_const(1, 4)))
        assert solver.check() is SmtResult.UNSAT
        solver.pop()
        assert solver.check() is SmtResult.SAT
        assert 2 <= solver.model()["x"] < 8
        solver.pop()
        assert solver.check(x.eq(bv_const(1, 4))) is SmtResult.SAT


def _memo_solver() -> SmtSolver:
    from repro.api.memo import CheckMemoClient

    solver = SmtSolver()
    solver.set_memo_backend(CheckMemoClient())
    return solver


class TestCheckMemoization:
    def test_repeated_check_hits_the_memo(self):
        from repro.smt.terms import bv_const, bv_var

        solver = _memo_solver()
        x = bv_var("memo_x", 8)
        solver.add((x * bv_const(3, 8)).eq(bv_const(15, 8)))
        assert solver.check() is SmtResult.SAT
        witness = solver.model_value("memo_x")
        conflicts_after_first = solver.sat_statistics().conflicts
        assert solver.statistics.check_memo_hits == 0

        assert solver.check() is SmtResult.SAT
        assert solver.statistics.check_memo_hits == 1
        # A process-local hit is not a remote (shared) hit.
        assert solver.statistics.shared_memo_hits == 0
        # No SAT work was done and the recorded model is served.
        assert solver.sat_statistics().conflicts == conflicts_after_first
        assert solver.model_value("memo_x") == witness

    def test_new_assertion_misses_the_memo(self):
        from repro.smt.terms import bv_const, bv_var

        solver = _memo_solver()
        y = bv_var("memo_y", 8)
        solver.add(y.ult(bv_const(10, 8)))
        assert solver.check() is SmtResult.SAT
        solver.add(y.uge(bv_const(10, 8)))
        assert solver.check() is SmtResult.UNSAT
        assert solver.statistics.check_memo_hits == 0

    def test_extra_assumptions_key_the_memo(self):
        from repro.smt.terms import bv_const, bv_var

        solver = _memo_solver()
        z = bv_var("memo_z", 8)
        solver.add(z.ult(bv_const(4, 8)))
        assert solver.check(z.eq(bv_const(2, 8))) is SmtResult.SAT
        assert solver.check(z.eq(bv_const(9, 8))) is SmtResult.UNSAT
        assert solver.statistics.check_memo_hits == 0
        # Replaying the pair: the first query misses — its entry was
        # recorded before the second query's gates grew the variable
        # frontier, and the memo key is deliberately layout-exact — and
        # is re-recorded at the current frontier; the second query hits.
        assert solver.check(z.eq(bv_const(2, 8))) is SmtResult.SAT
        assert solver.check(z.eq(bv_const(9, 8))) is SmtResult.UNSAT
        assert solver.statistics.check_memo_hits == 1
        # From here the layout is stable, so the whole pair replays from
        # the memo — the steady state a pooled session reaches.
        assert solver.check(z.eq(bv_const(2, 8))) is SmtResult.SAT
        assert solver.check(z.eq(bv_const(9, 8))) is SmtResult.UNSAT
        assert solver.statistics.check_memo_hits == 3

    def test_scope_pop_invalidates_by_content(self):
        from repro.smt.terms import bv_const, bv_var

        solver = _memo_solver()
        w = bv_var("memo_w", 8)
        solver.push()
        solver.add(w.eq(bv_const(1, 8)))
        assert solver.check() is SmtResult.SAT
        solver.pop()
        # Different assertion content => different key, no false hit.
        solver.push()
        solver.add(w.eq(bv_const(2, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver.model_value("memo_w") == 2
        solver.pop()

    def test_without_a_backend_every_check_searches(self):
        from repro.smt.terms import bv_const, bv_var

        solver = SmtSolver()
        v = bv_var("memo_v", 8)
        solver.add(v.eq(bv_const(5, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver.check() is SmtResult.SAT
        assert solver.statistics.check_memo_hits == 0

    def test_equal_frontier_with_another_layout_never_hits(self):
        """Two solvers on one memo reach the same (assertions, extras,
        frontier) with their variables declared in opposite orders: the
        layout signature in the key keeps the second from replaying model
        bits recorded under the first's layout."""
        from repro.api.memo import CheckMemoClient
        from repro.smt.terms import bool_and, bv_const, bv_var

        memo = CheckMemoClient()
        x = bv_var("layout_x", 8)
        y = bv_var("layout_y", 8)
        both = bool_and(x.eq(bv_const(1, 8)), y.eq(bv_const(2, 8)))
        solvers = []
        for first, second in ((x, y), (y, x)):
            solver = SmtSolver()
            solver.set_memo_backend(memo)
            assert solver.check(first.eq(bv_const(1, 8))) is SmtResult.SAT
            assert solver.check(second.eq(bv_const(1, 8))) is SmtResult.SAT
            assert solver.check(both) is SmtResult.SAT
            solvers.append(solver)
        keys = [
            solver._memo_key((both,), solver._sat_solver.num_variables, solver._blaster)
            for solver in solvers
        ]
        # Same assertions, extras and frontier — only the layout differs.
        assert keys[0].split(":", 1)[1] == keys[1].split(":", 1)[1]
        assert keys[0] != keys[1]
        backward = solvers[1]
        assert backward.statistics.check_memo_hits == 0
        assert backward.model_value("layout_x") == 1
        assert backward.model_value("layout_y") == 2
