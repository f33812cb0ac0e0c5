"""Tests for the QF_BV term language and its reference evaluator."""

import pytest
from hypothesis import given, strategies as st

from repro.core import SolverError
from repro.smt import (
    Assignment,
    FALSE,
    TRUE,
    bool_and,
    bool_const,
    bool_iff,
    bool_implies,
    bool_ite,
    bool_not,
    bool_or,
    bool_var,
    bool_xor,
    bv_ashr,
    bv_concat,
    bv_const,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_shl,
    bv_sign_extend,
    bv_var,
    bv_zero_extend,
    evaluate,
    free_variables,
)


def _assign(**values):
    return Assignment(bv_values=values)


class TestConstruction:
    def test_constant_masking(self):
        assert bv_const(0x1FF, 8).value == 0xFF

    def test_width_mismatch_rejected(self):
        with pytest.raises(SolverError):
            bv_var("a", 8).eq(bv_var("b", 16))

    def test_zero_width_rejected(self):
        with pytest.raises(SolverError):
            bv_const(0, 0)

    def test_int_coercion_in_operators(self):
        x = bv_var("x", 8)
        term = x + 3
        assert evaluate(term, _assign(x=4)) == 7

    def test_bool_constant_folding(self):
        assert bool_not(TRUE) is FALSE or evaluate(bool_not(TRUE), Assignment()) is False
        assert evaluate(bool_and(), Assignment()) is True
        assert evaluate(bool_or(), Assignment()) is False

    def test_extract_bounds_checked(self):
        with pytest.raises(SolverError):
            bv_extract(bv_var("x", 8), 9, 0)


class TestEvaluation:
    def test_arithmetic_wraps(self):
        x = bv_var("x", 8)
        assert evaluate(x + 200, _assign(x=100)) == (300 % 256)
        assert evaluate(x - 200, _assign(x=100)) == (100 - 200) % 256
        assert evaluate(x * 3, _assign(x=100)) == (300 % 256)

    def test_bitwise_ops(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        env = _assign(x=0b1100, y=0b1010)
        assert evaluate(x & y, env) == 0b1000
        assert evaluate(x | y, env) == 0b1110
        assert evaluate(x ^ y, env) == 0b0110
        assert evaluate(~x, env) == 0b11110011

    def test_shifts_saturate_at_width(self):
        x = bv_var("x", 8)
        assert evaluate(bv_shl(x, 9), _assign(x=0xFF)) == 0
        assert evaluate(bv_lshr(x, 9), _assign(x=0xFF)) == 0
        assert evaluate(bv_ashr(x, 9), _assign(x=0x80)) == 0xFF
        assert evaluate(bv_ashr(x, 2), _assign(x=0x84)) == 0xE1

    def test_comparisons(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        env = _assign(x=0xF0, y=0x10)
        assert evaluate(x.ult(y), env) is False
        assert evaluate(x.slt(y), env) is True  # 0xF0 is negative signed
        assert evaluate(x.uge(y), env) is True
        assert evaluate(x.sle(y), env) is True
        assert evaluate(x.eq(y), env) is False
        assert evaluate(x.ne(y), env) is True

    def test_ite(self):
        x = bv_var("x", 8)
        term = bv_ite(x.ult(bv_const(5, 8)), bv_const(1, 8), bv_const(2, 8))
        assert evaluate(term, _assign(x=3)) == 1
        assert evaluate(term, _assign(x=9)) == 2
        formula = bool_ite(x.eq(bv_const(0, 8)), bool_const(True), bool_const(False))
        assert evaluate(formula, _assign(x=0)) is True

    def test_extract_concat_extend(self):
        x = bv_var("x", 8)
        env = _assign(x=0xAB)
        assert evaluate(bv_extract(x, 7, 4), env) == 0xA
        assert evaluate(bv_concat(x, bv_const(0xC, 4)), env) == 0xABC
        assert evaluate(bv_zero_extend(x, 16), env) == 0xAB
        assert evaluate(bv_sign_extend(x, 16), env) == 0xFFAB

    def test_boolean_connectives(self):
        a, b = bool_var("a"), bool_var("b")
        env = Assignment(bool_values={"a": True, "b": False})
        assert evaluate(bool_and(a, b), env) is False
        assert evaluate(bool_or(a, b), env) is True
        assert evaluate(bool_xor(a, b), env) is True
        assert evaluate(bool_implies(a, b), env) is False
        assert evaluate(bool_iff(a, a), env) is True

    def test_missing_variable_raises(self):
        with pytest.raises(SolverError):
            evaluate(bv_var("missing", 8), Assignment())

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_add_commutes(self, a, b):
        x, y = bv_var("x", 8), bv_var("y", 8)
        env = _assign(x=a, y=b)
        assert evaluate(x + y, env) == evaluate(y + x, env) == (a + b) % 256

    @given(st.integers(min_value=0, max_value=255))
    def test_neg_is_sub_from_zero(self, a):
        x = bv_var("x", 8)
        env = _assign(x=a)
        assert evaluate(-x, env) == evaluate(bv_const(0, 8) - x, env)


class TestHashConsing:
    def test_structurally_equal_terms_are_identical(self):
        # Same construction from *different call sites* must yield the
        # same object, so downstream identity caches (evaluator,
        # bit-blaster) hit.
        def build():
            x, y = bv_var("x", 8), bv_var("y", 8)
            return (x + y).eq(bv_const(45, 8)) & x.ult(y)

        assert build() is build()

    def test_interning_distinguishes_widths_and_names(self):
        assert bv_var("x", 8) is not bv_var("x", 4)
        assert bv_var("x", 8) is not bv_var("y", 8)
        assert bv_const(3, 8) is not bv_const(3, 4)

    def test_constants_intern_modulo_width(self):
        assert bv_const(0x1FF, 8) is bv_const(0xFF, 8)

    def test_operand_order_distinguishes(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert (x - y) is not (y - x)
        assert (x - y) is (x - y)

    def test_ite_extract_extend_interned(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        p = bool_var("p")
        assert bv_ite(p, x, y) is bv_ite(p, x, y)
        assert bv_extract(x, 5, 2) is bv_extract(x, 5, 2)
        assert bv_zero_extend(x, 16) is bv_zero_extend(x, 16)
        assert bool_ite(p, p, bool_var("q")) is bool_ite(p, p, bool_var("q"))


class TestFreeVariables:
    def test_collects_names_and_widths(self):
        x, y = bv_var("x", 8), bv_var("y", 4)
        flag = bool_var("flag")
        term = bool_and(x.eq(bv_zero_extend(y, 8)), flag)
        bools, bvs = free_variables(term)
        assert set(bools) == {"flag"}
        assert bvs == {"x": 8, "y": 4}

    def test_width_conflict_detected(self):
        term = bool_and(
            bv_var("x", 8).eq(bv_const(0, 8)), bv_var("x", 4).eq(bv_const(0, 4))
        )
        with pytest.raises(SolverError):
            free_variables(term)


class TestInternTableReset:
    def test_reset_empties_the_table_and_starts_a_new_generation(self):
        from repro.smt.terms import clear_intern_table, intern_table_size

        x = bv_var("intern_reset_x", 8)
        y = x + bv_const(1, 8)
        assert intern_table_size() >= 3  # the variable, the constant, the add
        dropped = clear_intern_table()
        assert dropped >= 3
        assert intern_table_size() == 0
        # The old terms stay alive and usable; only sharing with terms
        # built after the reset is lost.
        assert evaluate(y, Assignment(bv_values={"intern_reset_x": 5})) == 6
        rebuilt = bv_var("intern_reset_x", 8) + bv_const(1, 8)
        assert rebuilt is not y
        # The new generation hash-conses as before.
        assert (bv_var("intern_reset_x", 8) + bv_const(1, 8)) is rebuilt
        assert intern_table_size() == 3

    def test_entries_kept_until_a_reset(self):
        from repro.smt.terms import intern_table_size

        kept = bv_var("intern_reset_kept", 8) + bv_const(2, 8)
        grown = intern_table_size()
        for offset in range(3, 8):
            bv_var("intern_reset_other", 8) + bv_const(offset, 8)
        assert intern_table_size() > grown
        assert (bv_var("intern_reset_kept", 8) + bv_const(2, 8)) is kept


class TestSimplifyTableReset:
    """The simplify table follows the intern table: a reset clears both,
    so no cached result outlives its intern entry."""

    def test_reset_empties_the_simplify_table(self):
        from repro.smt.simplify import simplify_bool
        from repro.smt.terms import _simplified, clear_intern_table

        x = bv_var("simplify_table_evict", 8)
        simplify_bool((x + bv_const(0, 8)).ult(bv_const(9, 8)))
        assert len(_simplified) > 0
        assert clear_intern_table() > 0
        assert len(_simplified) == 0

    def test_simplify_table_kept_without_a_reset(self):
        from repro.smt.simplify import simplify_bool
        from repro.smt.terms import _simplified

        formula = (bv_var("simplify_table_keep", 8) + bv_const(0, 8)).ult(
            bv_const(9, 8)
        )
        result = simplify_bool(formula)
        size = len(_simplified)
        # Building (and simplifying) other terms keeps the entry.
        simplify_bool(bv_var("simplify_table_other", 8).ult(bv_const(3, 8)))
        assert len(_simplified) == size + 1
        assert simplify_bool(formula) is result

    def test_rebuilt_term_blasts_like_a_cold_solver(self):
        from repro.smt.simplify import simplify_bool
        from repro.smt.solver import SmtResult, SmtSolver
        from repro.smt.terms import clear_intern_table

        x = bv_var("simplify_table_rebuild_x", 8)
        y = bv_var("simplify_table_rebuild_y", 8)
        # The input outlives the reset (it is held here) ...
        formula = (x + bv_const(0, 8)).ult(y)
        # ... while its simplified form belongs to the old generation.
        stale = simplify_bool(formula)
        assert clear_intern_table() > 0
        rebuilt = x.ult(y)
        assert rebuilt is not stale
        # The old result is not served again: the recomputed one is the
        # rebuilt interned term, so blasting the input next to it adds no
        # duplicate variables.
        assert simplify_bool(formula) is rebuilt
        warm = SmtSolver()
        warm.add(formula, rebuilt)
        cold = SmtSolver()
        cold.add(rebuilt)
        assert warm.check() is cold.check() is SmtResult.SAT
        assert (
            warm.statistics.variables_generated
            == cold.statistics.variables_generated
        )
