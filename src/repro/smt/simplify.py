"""Word-level simplification of QF_BV terms before bit-blasting.

This is the first layer of the query-shrinking pipeline (UCLID5-style
tools report that word-level rewriting ahead of bit-blasting is where the
biggest constant factors live): every formula handed to
:meth:`repro.smt.solver.SmtSolver.add` / ``check`` is rewritten here
before any CNF is produced, so the bit-blaster and the CDCL core never see
work the rewriter can discharge.

The pass is a single memoised bottom-up walk over the term DAG applying
four families of rules, each of which strictly preserves the SMT-LIB
semantics implemented by :func:`repro.smt.terms.evaluate`:

* **constant folding** — any operator whose operands are all constants is
  replaced by its value, computed *by the reference evaluator itself* so
  the two can never disagree;
* **neutral / absorbing elements** — ``x + 0``, ``x * 1``, ``x & 1…1``,
  ``x | 0``, ``x ^ 0``, ``x << 0`` … collapse to ``x``; ``x * 0``,
  ``x & 0``, ``and(…, false)``, ``or(…, true)`` … collapse to the
  absorbing constant; idempotence (``x & x``), complement
  (``x ^ x = 0``, ``and(x, ¬x) = false``) and double negation are folded
  along the way;
* **ITE collapsing** — constant or negated conditions select / swap a
  branch, identical branches drop the condition, and Boolean ITEs with
  constant branches reduce to the condition or its negation;
* **trivial comparisons** — ``x = x``, ``x <u x``, ``x ≤u 1…1``,
  ``0 ≤u x``, ``x <u 0`` and constant-vs-constant atoms become Boolean
  constants.

Rewriting returns interned terms (see :mod:`repro.smt.terms`), so a
simplified term that happens to equal an already-blasted one is
re-encoded for free.  The pass never *duplicates* sub-terms, so the DAG
size can only shrink.

Because terms are hash-consed, a formula asserted again (the same path
constraint in the next job, the same assumption in the next check) is
the same object, and :func:`simplify_bool` returns its recorded root
result instead of walking it again.  The table lives in
:mod:`repro.smt.terms` and is cleared with the intern table by
:func:`~repro.smt.terms.clear_intern_table`, so a cached result is
always the object a fresh walk would build.  The per-call walk cache of :func:`simplify` is separate
and dies with the call.
"""

from __future__ import annotations

from typing import Union

from repro.smt.terms import (
    Assignment,
    BitVecTerm,
    BoolConst,
    BoolIte,
    BoolOp,
    BoolTerm,
    BoolVar,
    BvComparison,
    BvConcat,
    BvConst,
    BvExtract,
    BvIte,
    BvOp,
    BvSignExtend,
    BvVar,
    BvZeroExtend,
    Term,
    _mask,
    bool_and,
    bool_const,
    bool_ite,
    bool_not,
    bool_or,
    bool_xor,
    bv_comparison,
    bv_concat,
    bv_const,
    bv_extract,
    bv_ite,
    bv_sign_extend,
    bv_zero_extend,
    _bv_op,
    _simplified,
    evaluate,
)

_EMPTY = Assignment()


def _fold(term: Term) -> Term:
    """Evaluate a term whose children are all constants.

    Delegates to the reference evaluator so folding and evaluation share
    one semantics by construction.
    """
    value = evaluate(term, _EMPTY)
    if isinstance(term, BoolTerm):
        return bool_const(bool(value))
    return bv_const(int(value), term.width)


def _is_const(term: Term) -> bool:
    return isinstance(term, (BoolConst, BvConst))


def simplify(term: Term) -> Term:
    """Return a semantically equal, never larger, rewrite of ``term``.

    The result evaluates identically under every assignment of the free
    variables (guaranteed by the randomized differential tests in
    ``tests/smt/test_simplify.py``).
    """
    cache: dict[Term, Term] = {}

    def walk(node: Term) -> Term:
        done = cache.get(node)
        if done is None:
            done = _simplify_node(node, walk)
            cache[node] = done
        return done

    return walk(term)


def simplify_bool(term: BoolTerm) -> BoolTerm:
    """:func:`simplify` restricted to Boolean terms, computed once per term.

    A repeated call with the same term returns the identical result
    object from the simplify table (see the module docstring).
    """
    result = _simplified.get(term)
    if result is None:
        result = simplify(term)
        _simplified[term] = result
    assert isinstance(result, BoolTerm)
    return result


def _simplify_node(node: Term, walk) -> Term:
    if isinstance(node, (BoolConst, BoolVar, BvConst, BvVar)):
        return node
    if isinstance(node, BoolOp):
        return _simplify_bool_op(node, walk)
    if isinstance(node, BoolIte):
        return _simplify_bool_ite(node, walk)
    if isinstance(node, BvComparison):
        return _simplify_comparison(node, walk)
    if isinstance(node, BvOp):
        return _simplify_bv_op(node, walk)
    if isinstance(node, BvIte):
        return _simplify_bv_ite(node, walk)
    if isinstance(node, BvExtract):
        operand = walk(node.operand)
        if node.low == 0 and node.high == operand.width - 1:
            return operand
        result = bv_extract(operand, node.high, node.low)
        return _fold(result) if _is_const(operand) else result
    if isinstance(node, BvConcat):
        operands = [walk(op) for op in node.operands]
        if len(operands) == 1:
            return operands[0]
        result = bv_concat(*operands)
        return _fold(result) if all(map(_is_const, operands)) else result
    if isinstance(node, BvZeroExtend):
        operand = walk(node.operand)
        result = bv_zero_extend(operand, node.width)
        return _fold(result) if _is_const(operand) else result
    if isinstance(node, BvSignExtend):
        operand = walk(node.operand)
        result = bv_sign_extend(operand, node.width)
        return _fold(result) if _is_const(operand) else result
    # Unknown / future node kinds pass through untouched.
    return node


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def _simplify_bool_op(node: BoolOp, walk) -> BoolTerm:
    if node.kind == "not":
        return bool_not(walk(node.args[0]))  # bool_not folds ¬¬x and ¬const
    args = [walk(arg) for arg in node.args]
    if node.kind == "xor":
        parity = False
        kept: list[BoolTerm] = []
        for arg in args:
            if isinstance(arg, BoolConst):
                parity ^= arg.value
            elif kept and kept[-1] is arg:
                kept.pop()  # x ^ x = false (adjacent after interning)
            else:
                kept.append(arg)
        if not kept:
            return bool_const(parity)
        result = bool_xor(*kept)
        return bool_not(result) if parity else result
    # and / or: neutral and absorbing constants, idempotence, complements.
    absorbing = node.kind == "or"  # `true` absorbs or, `false` absorbs and
    kept = []
    seen: set[Term] = set()
    for arg in args:
        if isinstance(arg, BoolConst):
            if arg.value == absorbing:
                return bool_const(absorbing)
            continue  # neutral element
        if arg in seen:
            continue  # idempotence
        seen.add(arg)
        kept.append(arg)
    for arg in kept:
        complement = bool_not(arg)
        if complement in seen:
            return bool_const(absorbing)  # x ∧ ¬x / x ∨ ¬x
    build = bool_or if node.kind == "or" else bool_and
    return build(*kept)


def _simplify_bool_ite(node: BoolIte, walk) -> BoolTerm:
    condition = walk(node.condition)
    then_branch = walk(node.then_branch)
    else_branch = walk(node.else_branch)
    if isinstance(condition, BoolConst):
        return then_branch if condition.value else else_branch
    if then_branch is else_branch:
        return then_branch
    if isinstance(condition, BoolOp) and condition.kind == "not":
        condition, then_branch, else_branch = (
            condition.args[0],
            else_branch,
            then_branch,
        )
    if isinstance(then_branch, BoolConst) and isinstance(else_branch, BoolConst):
        # Branches differ (identical-branch case handled above).
        return condition if then_branch.value else bool_not(condition)
    return bool_ite(condition, then_branch, else_branch)


def _simplify_comparison(node: BvComparison, walk) -> BoolTerm:
    left = walk(node.left)
    right = walk(node.right)
    if _is_const(left) and _is_const(right):
        return _fold(bv_comparison(node.kind, left, right))
    if left is right:
        # Reflexive atoms: = / ≤ hold, strict < does not.
        return bool_const(node.kind in {"eq", "ule", "sle"})
    # Comparison of a constant-branch ITE against a constant distributes
    # into the branches and folds away — this unwraps the ``ite(c, 1, 0)
    # != 0`` word round-trips produced by truthiness encodings.
    for ite_side, const_side, swapped in ((left, right, False), (right, left, True)):
        if (
            isinstance(ite_side, BvIte)
            and _is_const(const_side)
            and _is_const(ite_side.then_branch)
            and _is_const(ite_side.else_branch)
        ):
            def fold_branch(branch):
                operands = (const_side, branch) if swapped else (branch, const_side)
                return _fold(bv_comparison(node.kind, *operands))

            then_value = fold_branch(ite_side.then_branch).value
            else_value = fold_branch(ite_side.else_branch).value
            if then_value == else_value:
                return bool_const(then_value)
            condition = ite_side.condition
            return condition if then_value else bool_not(condition)
    width = left.width
    if node.kind == "ult":
        if isinstance(right, BvConst) and right.value == 0:
            return bool_const(False)  # nothing is below zero
    elif node.kind == "ule":
        if isinstance(left, BvConst) and left.value == 0:
            return bool_const(True)  # zero is below everything
        if isinstance(right, BvConst) and right.value == _mask(width):
            return bool_const(True)  # everything is below all-ones
    return bv_comparison(node.kind, left, right)


# ---------------------------------------------------------------------------
# Bit-vector operators
# ---------------------------------------------------------------------------


def _simplify_bv_op(node: BvOp, walk) -> BitVecTerm:
    args = [walk(arg) for arg in node.args]
    if all(map(_is_const, args)):
        return _fold(_bv_op(node.kind, args))
    kind = node.kind
    width = node.width
    if kind in {"not", "neg"}:
        (operand,) = args
        if isinstance(operand, BvOp) and operand.kind == kind:
            return operand.args[0]  # ~~x = x, -(-x) = x
        return _bv_op(kind, args)
    left, right = args
    zero = bv_const(0, width)
    ones = bv_const(_mask(width), width)
    if kind == "add":
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
    elif kind == "sub":
        if _is_zero(right):
            return left
        if left is right:
            return zero
    elif kind == "mul":
        if _is_zero(left) or _is_zero(right):
            return zero
        if _is_one(left):
            return right
        if _is_one(right):
            return left
    elif kind == "and":
        if _is_zero(left) or _is_zero(right):
            return zero
        if left is ones:
            return right
        if right is ones:
            return left
        if left is right:
            return left
    elif kind == "or":
        if left is ones or right is ones:
            return ones
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        if left is right:
            return left
    elif kind == "xor":
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        if left is right:
            return zero
    elif kind in {"shl", "lshr", "ashr"}:
        if _is_zero(right):
            return left
        if _is_zero(left):
            return zero  # zero shifted anywhere stays zero (its sign bit is 0)
        if isinstance(right, BvConst) and right.value >= width and kind != "ashr":
            return zero  # over-shifts saturate to zero (ashr saturates to sign)
    return _bv_op(kind, args)


def _is_zero(term: Term) -> bool:
    return isinstance(term, BvConst) and term.value == 0


def _is_one(term: Term) -> bool:
    return isinstance(term, BvConst) and term.value == 1


def _simplify_bv_ite(node: BvIte, walk) -> BitVecTerm:
    condition = walk(node.condition)
    then_branch = walk(node.then_branch)
    else_branch = walk(node.else_branch)
    if isinstance(condition, BoolConst):
        return then_branch if condition.value else else_branch
    if then_branch is else_branch:
        return then_branch
    if isinstance(condition, BoolOp) and condition.kind == "not":
        condition, then_branch, else_branch = (
            condition.args[0],
            else_branch,
            then_branch,
        )
    return bv_ite(condition, then_branch, else_branch)
