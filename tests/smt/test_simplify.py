"""Tests for the word-level simplifier (repro.smt.simplify).

The core guarantee — simplification never changes the value of a term
under any assignment — is checked by randomized differential fuzzing: for
hundreds of random term DAGs, the original and simplified forms are
evaluated under ~100 random assignments each and must agree exactly.
"""

import random

import repro.smt.terms as terms
from repro.smt.simplify import simplify, simplify_bool
from repro.smt.terms import (
    Assignment,
    BoolConst,
    FALSE,
    TRUE,
    bool_and,
    bool_ite,
    bool_not,
    bool_or,
    bool_var,
    bool_xor,
    bv_comparison,
    bv_concat,
    bv_const,
    bv_extract,
    bv_ite,
    bv_sign_extend,
    bv_var,
    bv_zero_extend,
    evaluate,
)

WIDTH = 6
DOMAIN = 1 << WIDTH
VARIABLES = ["a", "b", "c"]

_BV_BINARY = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr"]
_COMPARISONS = ["eq", "ult", "ule", "slt", "sle"]


def _random_bv(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return bv_const(rng.randrange(DOMAIN), WIDTH)
        return bv_var(rng.choice(VARIABLES), WIDTH)
    choice = rng.randrange(14)
    if choice < 9:
        operator = getattr(terms, f"bv_{_BV_BINARY[choice]}")
        return operator(_random_bv(rng, depth - 1), _random_bv(rng, depth - 1))
    if choice == 9:
        return terms.bv_not(_random_bv(rng, depth - 1))
    if choice == 10:
        return terms.bv_neg(_random_bv(rng, depth - 1))
    if choice == 11:
        return bv_ite(
            _random_bool(rng, depth - 1),
            _random_bv(rng, depth - 1),
            _random_bv(rng, depth - 1),
        )
    if choice == 12:
        high = rng.randrange(WIDTH)
        low = rng.randrange(high + 1)
        wide = bv_zero_extend(_random_bv(rng, depth - 1), WIDTH + high)
        return bv_zero_extend(bv_extract(wide, high, low), WIDTH)
    narrow = bv_extract(_random_bv(rng, depth - 1), WIDTH - 2, 0)
    extend = bv_sign_extend if rng.random() < 0.5 else bv_zero_extend
    return extend(narrow, WIDTH)


def _random_bool(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(_COMPARISONS)
        return bv_comparison(kind, _random_bv(rng, 1), _random_bv(rng, 1))
    choice = rng.randrange(5)
    if choice == 0:
        return bool_not(_random_bool(rng, depth - 1))
    if choice == 1:
        return bool_ite(
            _random_bool(rng, depth - 1),
            _random_bool(rng, depth - 1),
            _random_bool(rng, depth - 1),
        )
    operator = (bool_and, bool_or, bool_xor)[choice - 2]
    return operator(_random_bool(rng, depth - 1), _random_bool(rng, depth - 1))


def _dag_size(term):
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for attribute in ("args", "operands"):
            stack.extend(getattr(node, attribute, ()))
        for attribute in ("condition", "then_branch", "else_branch", "operand", "left", "right"):
            child = getattr(node, attribute, None)
            if child is not None:
                stack.append(child)
    return len(seen)


class TestDifferentialFuzz:
    def test_simplified_terms_evaluate_identically(self):
        # ~300 random DAGs x ~100 random assignments each: the original
        # and simplified forms must agree under every assignment.
        rng = random.Random(2024)
        for trial in range(300):
            term = (
                _random_bool(rng, 4) if trial % 2 else _random_bv(rng, 4)
            )
            simplified = simplify(term)
            for _ in range(100):
                assignment = Assignment(
                    bv_values={
                        name: rng.randrange(DOMAIN) for name in VARIABLES
                    }
                )
                assert evaluate(term, assignment) == evaluate(
                    simplified, assignment
                ), f"trial {trial}: {term!r} vs {simplified!r}"

    def test_simplification_never_grows_the_dag(self):
        rng = random.Random(7)
        for trial in range(150):
            term = _random_bool(rng, 4) if trial % 2 else _random_bv(rng, 4)
            assert _dag_size(simplify(term)) <= _dag_size(term)

    def test_idempotent(self):
        rng = random.Random(99)
        for trial in range(100):
            term = _random_bool(rng, 4) if trial % 2 else _random_bv(rng, 4)
            once = simplify(term)
            assert simplify(once) is once


class TestConstantFolding:
    def test_arithmetic_folds(self):
        three, five = bv_const(3, 8), bv_const(5, 8)
        assert simplify(three + five) is bv_const(8, 8)
        assert simplify(three * five) is bv_const(15, 8)
        assert simplify(terms.bv_shl(three, bv_const(2, 8))) is bv_const(12, 8)

    def test_comparison_folds(self):
        assert simplify(bv_const(3, 8).ult(bv_const(5, 8))) is TRUE
        assert simplify(bv_const(0x80, 8).slt(bv_const(0, 8))) is TRUE
        assert simplify(bv_const(5, 8).eq(bv_const(6, 8))) is FALSE

    def test_structural_folds(self):
        assert simplify(bv_concat(bv_const(0xA, 4), bv_const(0xB, 4))) is bv_const(
            0xAB, 8
        )
        assert simplify(bv_extract(bv_const(0xAB, 8), 7, 4)) is bv_const(0xA, 4)
        assert simplify(bv_sign_extend(bv_const(0x8, 4), 8)) is bv_const(0xF8, 8)


class TestNeutralAndAbsorbing:
    def test_bv_neutral_elements(self):
        x = bv_var("x", 8)
        zero, one = bv_const(0, 8), bv_const(1, 8)
        assert simplify(x + zero) is x
        assert simplify(x - zero) is x
        assert simplify(x * one) is x
        assert simplify(x | zero) is x
        assert simplify(x ^ zero) is x
        assert simplify(terms.bv_shl(x, zero)) is x
        assert simplify(x & bv_const(0xFF, 8)) is x

    def test_bv_absorbing_elements(self):
        x = bv_var("x", 8)
        zero = bv_const(0, 8)
        assert simplify(x * zero) is zero
        assert simplify(x & zero) is zero
        assert simplify(x | bv_const(0xFF, 8)) is bv_const(0xFF, 8)
        assert simplify(terms.bv_shl(x, bv_const(9, 8))) is zero

    def test_bv_idempotence_and_cancellation(self):
        x = bv_var("x", 8)
        assert simplify(x & x) is x
        assert simplify(x | x) is x
        assert simplify(x ^ x) is bv_const(0, 8)
        assert simplify(x - x) is bv_const(0, 8)
        assert simplify(~~x) is x
        assert simplify(-(-x)) is x

    def test_bool_neutral_and_absorbing(self):
        p = bool_var("p")
        assert simplify(bool_and(p, TRUE)) is p
        assert simplify(bool_and(p, FALSE)) is FALSE
        assert simplify(bool_or(p, FALSE)) is p
        assert simplify(bool_or(p, TRUE)) is TRUE
        assert simplify(bool_xor(p, FALSE)) is p
        assert simplify(bool_and(p, p)) is p
        assert simplify(bool_and(p, bool_not(p))) is FALSE
        assert simplify(bool_or(p, bool_not(p))) is TRUE
        assert simplify(bool_xor(p, p)) is FALSE


class TestIteCollapsing:
    def test_constant_condition(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert simplify(bv_ite(TRUE, x, y)) is x
        assert simplify(bv_ite(FALSE, x, y)) is y

    def test_equal_branches(self):
        x = bv_var("x", 8)
        p = bool_var("p")
        assert simplify(bv_ite(p, x, x)) is x

    def test_negated_condition_swaps(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        p = bool_var("p")
        assert simplify(bv_ite(bool_not(p), x, y)) is simplify(bv_ite(p, y, x))

    def test_boolean_ite_with_constant_branches(self):
        p = bool_var("p")
        assert simplify(bool_ite(p, TRUE, FALSE)) is p
        assert simplify(bool_ite(p, FALSE, TRUE)) is bool_not(p)


class TestTrivialComparisons:
    def test_reflexive(self):
        x = bv_var("x", 8)
        assert simplify(x.eq(x)) is TRUE
        assert simplify(x.ult(x)) is FALSE
        assert simplify(x.ule(x)) is TRUE

    def test_domain_bounds(self):
        x = bv_var("x", 8)
        assert simplify(x.ult(bv_const(0, 8))) is FALSE
        assert simplify(x.uge(bv_const(0, 8))) is TRUE  # 0 <= x
        assert simplify(x.ule(bv_const(0xFF, 8))) is TRUE

    def test_truthiness_roundtrip_unwrapped(self):
        # The CFG encoder emits `ite(c, 1, 0) != 0` word round-trips; the
        # simplifier must strip them back to the bare condition.
        x, y = bv_var("x", 8), bv_var("y", 8)
        condition = x.ult(y)
        word = bv_ite(condition, bv_const(1, 8), bv_const(0, 8))
        assert simplify(word.ne(bv_const(0, 8))) is condition
        assert simplify(word.eq(bv_const(0, 8))) is bool_not(condition)
        assert simplify(word.eq(bv_const(7, 8))) is FALSE

    def test_simplify_bool_keeps_sort(self):
        x = bv_var("x", 8)
        result = simplify_bool(x.ult(x))
        assert isinstance(result, BoolConst)


class TestSimplifyTable:
    def test_repeat_calls_share_one_result_across_resets(self):
        # simplify_bool computes a term's result once; an intern-table
        # reset drops the table, and the recomputed result still
        # evaluates exactly like the input.
        rng = random.Random(4242)
        for trial in range(150):
            term = _random_bool(rng, 4)
            first = simplify_bool(term)
            assert simplify_bool(term) is first, f"trial {trial}"
            if trial % 3 == 0:
                terms.clear_intern_table()
                assert not terms._simplified
            again = simplify_bool(term)
            assert simplify_bool(term) is again
            for _ in range(50):
                assignment = Assignment(
                    bv_values={
                        name: rng.randrange(DOMAIN) for name in VARIABLES
                    }
                )
                assert evaluate(term, assignment) == evaluate(
                    again, assignment
                ), f"trial {trial}: {term!r} vs {again!r}"
