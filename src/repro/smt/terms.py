"""Term language for quantifier-free bit-vector / Boolean formulas (QF_BV).

The deductive engines of Sections 3 and 4 of the paper are SMT solvers over
bit-vector arithmetic.  This module defines the term AST consumed by the
bit-blaster (:mod:`repro.smt.bitblast`) and the SMT facade
(:mod:`repro.smt.solver`).

Terms are immutable and are built through the constructor helpers at the
bottom of the module (``bv_const``, ``bv_var``, ``bv_add`` ...) or through
operator overloading on :class:`BitVecTerm` / :class:`BoolTerm`, e.g.::

    x = bv_var("x", 8)
    y = bv_var("y", 8)
    formula = (x + y).eq(bv_const(45, 8)) & x.ult(y)

Semantics follow SMT-LIB: bit-vectors are unsigned fixed-width integers
with modular arithmetic; signed comparisons interpret the MSB as sign bit.

Terms are **hash-consed**: the constructor helpers intern structurally
equal terms, so building ``x + y`` twice — even from different call sites —
yields the *same* object.  Identity-based ``__hash__``/``__eq__`` therefore
double as structural hashing for interned terms, which keeps the
bit-blaster's and evaluator's caches O(1) while letting shared sub-terms
built independently hit the same cache entries (and thus be bit-blasted
once).  Interning is keyed on the immortal per-term ``_id`` counter of the
children, never on ``id()``, so keys cannot collide after garbage
collection.  Direct class instantiation bypasses the intern table; it stays
legal but forfeits sharing.

The intern table and the simplify table are unsynchronized module
globals: terms are built by one thread per process.  The engine runs each
job start to finish on the thread that called it, worker processes each
have their own tables, and in the HTTP service the handler threads touch
only the job queue while a single runner thread owns the engine (see
:mod:`repro.service.queue`).  A component that builds terms from a second
thread must first make :func:`_interned`, :func:`clear_intern_table` and
the simplify table thread-safe.

A long-lived process bounds the tables with :func:`clear_intern_table`,
which starts a new term *generation*: every later build interns afresh,
while terms of the old generation stay alive and correct for as long as
something holds them (a :class:`~repro.api.pool.SolverPool` resets at
``EngineConfig.intern_table_limit`` and drops the sessions that cache
old-generation terms with it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.core.exceptions import SolverError

_term_counter = itertools.count()

#: Intern table for hash-consing.  Keys are structural descriptions
#: (operator kind plus the ``_id``s of the children); values are the unique
#: representative terms.  Entries keep their children alive through the
#: interned term itself, so ``_id``-based keys never dangle.
_intern_table: dict[tuple, "Term"] = {}

#: Root results of :func:`repro.smt.simplify.simplify_bool`, keyed by the
#: input term.  :func:`clear_intern_table` clears it with the intern table,
#: so a term rebuilt in a new generation is simplified into that
#: generation's sub-terms.
_simplified: dict["Term", "Term"] = {}


def _interned(key: tuple, build) -> "Term":
    term = _intern_table.get(key)
    if term is None:
        term = build()
        _intern_table[key] = term
    return term


def intern_table_size() -> int:
    """Number of distinct terms currently interned (diagnostic)."""
    return len(_intern_table)


def clear_intern_table() -> int:
    """Empty the intern table and the simplify table; return the number of
    intern entries dropped.

    Existing terms stay alive and structurally correct; only *future*
    construction stops sharing with them, so a structurally equal term
    built afterwards is a new object.  Nothing result-visible depends on
    that identity: the bit-blaster maps variables by name and check-memo
    keys are structural digests.
    """
    dropped = len(_intern_table)
    _intern_table.clear()
    _simplified.clear()
    return dropped


def _mask(width: int) -> int:
    return (1 << width) - 1


class Term:
    """Base class for all terms; provides identity-based hashing."""

    __slots__ = ("_id",)

    def __init__(self) -> None:
        self._id = next(_term_counter)

    def __hash__(self) -> int:  # identity hashing keeps caches O(1)
        return self._id

    def __eq__(self, other: object) -> bool:
        return self is other


# ---------------------------------------------------------------------------
# Boolean terms
# ---------------------------------------------------------------------------


class BoolTerm(Term):
    """A term of Boolean sort."""

    __slots__ = ()

    # Overloads build new terms, mirroring SMT-LIB connectives.
    def __and__(self, other: "BoolTerm") -> "BoolTerm":
        return bool_and(self, other)

    def __or__(self, other: "BoolTerm") -> "BoolTerm":
        return bool_or(self, other)

    def __xor__(self, other: "BoolTerm") -> "BoolTerm":
        return bool_xor(self, other)

    def __invert__(self) -> "BoolTerm":
        return bool_not(self)

    def implies(self, other: "BoolTerm") -> "BoolTerm":
        """Logical implication ``self -> other``."""
        return bool_or(bool_not(self), other)

    def iff(self, other: "BoolTerm") -> "BoolTerm":
        """Logical equivalence ``self <-> other``."""
        return bool_not(bool_xor(self, other))


class BoolConst(BoolTerm):
    """A Boolean constant (``true`` / ``false``)."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        super().__init__()
        self.value = bool(value)

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class BoolVar(BoolTerm):
    """A free Boolean variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __repr__(self) -> str:
        return self.name


class BoolOp(BoolTerm):
    """An n-ary Boolean connective.

    ``kind`` is one of ``"and"``, ``"or"``, ``"xor"``, ``"not"``.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: Sequence[BoolTerm]):
        super().__init__()
        if kind not in {"and", "or", "xor", "not"}:
            raise SolverError(f"unknown Boolean connective {kind!r}")
        if kind == "not" and len(args) != 1:
            raise SolverError("'not' takes exactly one argument")
        self.kind = kind
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"({self.kind} {' '.join(map(repr, self.args))})"


class BoolIte(BoolTerm):
    """Boolean if-then-else."""

    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: BoolTerm, then_branch: BoolTerm, else_branch: BoolTerm):
        super().__init__()
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch

    def __repr__(self) -> str:
        return f"(ite {self.condition!r} {self.then_branch!r} {self.else_branch!r})"


class BvComparison(BoolTerm):
    """A relational atom over two bit-vector terms.

    ``kind`` is one of ``"eq"``, ``"ult"``, ``"ule"``, ``"slt"``, ``"sle"``.
    """

    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: str, left: "BitVecTerm", right: "BitVecTerm"):
        super().__init__()
        if kind not in {"eq", "ult", "ule", "slt", "sle"}:
            raise SolverError(f"unknown comparison {kind!r}")
        if left.width != right.width:
            raise SolverError(
                f"comparison width mismatch: {left.width} vs {right.width}"
            )
        self.kind = kind
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.kind} {self.left!r} {self.right!r})"


# ---------------------------------------------------------------------------
# Bit-vector terms
# ---------------------------------------------------------------------------


class BitVecTerm(Term):
    """A term of bit-vector sort with a fixed ``width``."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        super().__init__()
        if width <= 0:
            raise SolverError(f"bit-vector width must be positive, got {width}")
        self.width = width

    # Arithmetic / bitwise overloads ------------------------------------

    def __add__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_add(self, other)

    def __sub__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_sub(self, other)

    def __mul__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_mul(self, other)

    def __and__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_and(self, other)

    def __or__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_or(self, other)

    def __xor__(self, other: "BitVecTerm") -> "BitVecTerm":
        return bv_xor(self, other)

    def __invert__(self) -> "BitVecTerm":
        return bv_not(self)

    def __neg__(self) -> "BitVecTerm":
        return bv_neg(self)

    def __lshift__(self, other: Union["BitVecTerm", int]) -> "BitVecTerm":
        return bv_shl(self, other)

    def __rshift__(self, other: Union["BitVecTerm", int]) -> "BitVecTerm":
        return bv_lshr(self, other)

    # Relational helpers --------------------------------------------------

    def eq(self, other: "BitVecTerm") -> BoolTerm:
        """Bit-vector equality."""
        return bv_comparison("eq", self, _coerce(other, self.width))

    def ne(self, other: "BitVecTerm") -> BoolTerm:
        """Bit-vector disequality."""
        return bool_not(self.eq(other))

    def ult(self, other: "BitVecTerm") -> BoolTerm:
        """Unsigned less-than."""
        return bv_comparison("ult", self, _coerce(other, self.width))

    def ule(self, other: "BitVecTerm") -> BoolTerm:
        """Unsigned less-or-equal."""
        return bv_comparison("ule", self, _coerce(other, self.width))

    def ugt(self, other: "BitVecTerm") -> BoolTerm:
        """Unsigned greater-than."""
        return bv_comparison("ult", _coerce(other, self.width), self)

    def uge(self, other: "BitVecTerm") -> BoolTerm:
        """Unsigned greater-or-equal."""
        return bv_comparison("ule", _coerce(other, self.width), self)

    def slt(self, other: "BitVecTerm") -> BoolTerm:
        """Signed (two's complement) less-than."""
        return bv_comparison("slt", self, _coerce(other, self.width))

    def sle(self, other: "BitVecTerm") -> BoolTerm:
        """Signed (two's complement) less-or-equal."""
        return bv_comparison("sle", self, _coerce(other, self.width))


class BvConst(BitVecTerm):
    """A bit-vector constant (value reduced modulo ``2**width``)."""

    __slots__ = ("value",)

    def __init__(self, value: int, width: int):
        super().__init__(width)
        self.value = value & _mask(width)

    def __repr__(self) -> str:
        return f"#x{self.value:0{(self.width + 3) // 4}x}[{self.width}]"


class BvVar(BitVecTerm):
    """A free bit-vector variable."""

    __slots__ = ("name",)

    def __init__(self, name: str, width: int):
        super().__init__(width)
        self.name = name

    def __repr__(self) -> str:
        return f"{self.name}[{self.width}]"


class BvOp(BitVecTerm):
    """An n-ary bit-vector operation.

    ``kind`` is one of ``"add"``, ``"sub"``, ``"mul"``, ``"and"``, ``"or"``,
    ``"xor"``, ``"not"``, ``"neg"``, ``"shl"``, ``"lshr"``, ``"ashr"``.
    Shift amounts are bit-vector operands of the same width.
    """

    KINDS = {"add", "sub", "mul", "and", "or", "xor", "not", "neg", "shl", "lshr", "ashr"}

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: Sequence[BitVecTerm]):
        if kind not in self.KINDS:
            raise SolverError(f"unknown bit-vector operation {kind!r}")
        widths = {arg.width for arg in args}
        if len(widths) != 1:
            raise SolverError(f"width mismatch in {kind}: {sorted(widths)}")
        super().__init__(args[0].width)
        if kind in {"not", "neg"} and len(args) != 1:
            raise SolverError(f"'{kind}' takes exactly one argument")
        self.kind = kind
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"(bv{self.kind} {' '.join(map(repr, self.args))})"


class BvIte(BitVecTerm):
    """Bit-vector if-then-else."""

    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: BoolTerm, then_branch: BitVecTerm, else_branch: BitVecTerm):
        if then_branch.width != else_branch.width:
            raise SolverError("ite branch width mismatch")
        super().__init__(then_branch.width)
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch

    def __repr__(self) -> str:
        return f"(ite {self.condition!r} {self.then_branch!r} {self.else_branch!r})"


class BvExtract(BitVecTerm):
    """Bit extraction ``term[high:low]`` (both indices inclusive, LSB = 0)."""

    __slots__ = ("operand", "high", "low")

    def __init__(self, operand: BitVecTerm, high: int, low: int):
        if not (0 <= low <= high < operand.width):
            raise SolverError(
                f"invalid extract [{high}:{low}] from width {operand.width}"
            )
        super().__init__(high - low + 1)
        self.operand = operand
        self.high = high
        self.low = low

    def __repr__(self) -> str:
        return f"(extract {self.high} {self.low} {self.operand!r})"


class BvConcat(BitVecTerm):
    """Concatenation; the first operand provides the most-significant bits."""

    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[BitVecTerm]):
        if not operands:
            raise SolverError("concat needs at least one operand")
        super().__init__(sum(op.width for op in operands))
        self.operands = tuple(operands)

    def __repr__(self) -> str:
        return f"(concat {' '.join(map(repr, self.operands))})"


class BvZeroExtend(BitVecTerm):
    """Zero extension to a larger width."""

    __slots__ = ("operand",)

    def __init__(self, operand: BitVecTerm, width: int):
        if width < operand.width:
            raise SolverError("zero-extend target narrower than operand")
        super().__init__(width)
        self.operand = operand

    def __repr__(self) -> str:
        return f"(zext {self.width} {self.operand!r})"


class BvSignExtend(BitVecTerm):
    """Sign extension to a larger width."""

    __slots__ = ("operand",)

    def __init__(self, operand: BitVecTerm, width: int):
        if width < operand.width:
            raise SolverError("sign-extend target narrower than operand")
        super().__init__(width)
        self.operand = operand

    def __repr__(self) -> str:
        return f"(sext {self.width} {self.operand!r})"


# ---------------------------------------------------------------------------
# Constructor helpers
# ---------------------------------------------------------------------------

TRUE = BoolConst(True)
FALSE = BoolConst(False)


def bool_const(value: bool) -> BoolConst:
    """Return the Boolean constant for ``value``."""
    return TRUE if value else FALSE


def bool_var(name: str) -> BoolVar:
    """Create a free Boolean variable."""
    return _interned(("boolvar", name), lambda: BoolVar(name))


def bv_comparison(kind: str, left: "BitVecTerm", right: "BitVecTerm") -> BoolTerm:
    """Interned relational atom (``eq``/``ult``/``ule``/``slt``/``sle``)."""
    return _interned(
        ("cmp", kind, left._id, right._id), lambda: BvComparison(kind, left, right)
    )


def _flatten(kind: str, args: Iterable[BoolTerm]) -> list[BoolTerm]:
    flat: list[BoolTerm] = []
    for arg in args:
        if isinstance(arg, BoolOp) and arg.kind == kind and kind in {"and", "or"}:
            flat.extend(arg.args)
        else:
            flat.append(arg)
    return flat


def _bool_op(kind: str, args: list[BoolTerm]) -> BoolTerm:
    key = (kind, tuple(arg._id for arg in args))
    return _interned(key, lambda: BoolOp(kind, args))


def bool_and(*args: BoolTerm) -> BoolTerm:
    """N-ary conjunction (empty conjunction is ``true``)."""
    flat = _flatten("and", args)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _bool_op("and", flat)


def bool_or(*args: BoolTerm) -> BoolTerm:
    """N-ary disjunction (empty disjunction is ``false``)."""
    flat = _flatten("or", args)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _bool_op("or", flat)


def bool_xor(*args: BoolTerm) -> BoolTerm:
    """N-ary exclusive or."""
    args_list = list(args)
    if not args_list:
        return FALSE
    if len(args_list) == 1:
        return args_list[0]
    return _bool_op("xor", args_list)


def bool_not(arg: BoolTerm) -> BoolTerm:
    """Negation, with double-negation elimination."""
    if isinstance(arg, BoolOp) and arg.kind == "not":
        return arg.args[0]
    if isinstance(arg, BoolConst):
        return bool_const(not arg.value)
    return _bool_op("not", [arg])


def bool_implies(antecedent: BoolTerm, consequent: BoolTerm) -> BoolTerm:
    """Implication ``antecedent -> consequent``."""
    return bool_or(bool_not(antecedent), consequent)


def bool_iff(left: BoolTerm, right: BoolTerm) -> BoolTerm:
    """Equivalence ``left <-> right``."""
    return bool_not(bool_xor(left, right))


def bool_ite(condition: BoolTerm, then_branch: BoolTerm, else_branch: BoolTerm) -> BoolTerm:
    """Boolean if-then-else."""
    return _interned(
        ("bite", condition._id, then_branch._id, else_branch._id),
        lambda: BoolIte(condition, then_branch, else_branch),
    )


def bv_const(value: int, width: int) -> BvConst:
    """Create a bit-vector constant."""
    return _interned(
        ("bvconst", value & _mask(width), width), lambda: BvConst(value, width)
    )


def bv_var(name: str, width: int) -> BvVar:
    """Create a free bit-vector variable."""
    return _interned(("bvvar", name, width), lambda: BvVar(name, width))


def _coerce(value: Union[BitVecTerm, int], width: int) -> BitVecTerm:
    if isinstance(value, int):
        return bv_const(value, width)
    return value


def _bv_op(kind: str, args: list[BitVecTerm]) -> BitVecTerm:
    key = ("bv" + kind, tuple(arg._id for arg in args))
    return _interned(key, lambda: BvOp(kind, args))


def bv_add(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Modular addition."""
    return _bv_op("add", [left, _coerce(right, left.width)])


def bv_sub(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Modular subtraction."""
    return _bv_op("sub", [left, _coerce(right, left.width)])


def bv_mul(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Modular multiplication."""
    return _bv_op("mul", [left, _coerce(right, left.width)])


def bv_and(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Bitwise and."""
    return _bv_op("and", [left, _coerce(right, left.width)])


def bv_or(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Bitwise or."""
    return _bv_op("or", [left, _coerce(right, left.width)])


def bv_xor(left: BitVecTerm, right: Union[BitVecTerm, int]) -> BitVecTerm:
    """Bitwise exclusive or."""
    return _bv_op("xor", [left, _coerce(right, left.width)])


def bv_not(operand: BitVecTerm) -> BitVecTerm:
    """Bitwise complement."""
    return _bv_op("not", [operand])


def bv_neg(operand: BitVecTerm) -> BitVecTerm:
    """Two's complement negation."""
    return _bv_op("neg", [operand])


def bv_shl(operand: BitVecTerm, amount: Union[BitVecTerm, int]) -> BitVecTerm:
    """Logical shift left; shifts >= width yield zero."""
    return _bv_op("shl", [operand, _coerce(amount, operand.width)])


def bv_lshr(operand: BitVecTerm, amount: Union[BitVecTerm, int]) -> BitVecTerm:
    """Logical shift right; shifts >= width yield zero."""
    return _bv_op("lshr", [operand, _coerce(amount, operand.width)])


def bv_ashr(operand: BitVecTerm, amount: Union[BitVecTerm, int]) -> BitVecTerm:
    """Arithmetic shift right (sign-preserving)."""
    return _bv_op("ashr", [operand, _coerce(amount, operand.width)])


def bv_ite(condition: BoolTerm, then_branch: BitVecTerm, else_branch: BitVecTerm) -> BitVecTerm:
    """Bit-vector if-then-else."""
    return _interned(
        ("bvite", condition._id, then_branch._id, else_branch._id),
        lambda: BvIte(condition, then_branch, else_branch),
    )


def bv_extract(operand: BitVecTerm, high: int, low: int) -> BitVecTerm:
    """Extract bits ``high..low`` (inclusive)."""
    return _interned(
        ("extract", operand._id, high, low), lambda: BvExtract(operand, high, low)
    )


def bv_concat(*operands: BitVecTerm) -> BitVecTerm:
    """Concatenate bit-vectors (first operand is most significant)."""
    return _interned(
        ("concat", tuple(op._id for op in operands)), lambda: BvConcat(operands)
    )


def bv_zero_extend(operand: BitVecTerm, width: int) -> BitVecTerm:
    """Zero-extend ``operand`` to ``width`` bits."""
    if width == operand.width:
        return operand
    return _interned(
        ("zext", operand._id, width), lambda: BvZeroExtend(operand, width)
    )


def bv_sign_extend(operand: BitVecTerm, width: int) -> BitVecTerm:
    """Sign-extend ``operand`` to ``width`` bits."""
    if width == operand.width:
        return operand
    return _interned(
        ("sext", operand._id, width), lambda: BvSignExtend(operand, width)
    )


def bv_equal_any(term: BitVecTerm, values: Iterable[int]) -> BoolTerm:
    """Return the disjunction ``term == v`` over the given constants."""
    return bool_or(*(term.eq(bv_const(v, term.width)) for v in values))


# ---------------------------------------------------------------------------
# Reference evaluation (big-integer semantics)
# ---------------------------------------------------------------------------


@dataclass
class Assignment:
    """A concrete assignment for free variables, used by the evaluator and
    returned (as part of a :class:`~repro.smt.solver.Model`) by the solver.

    Attributes:
        bool_values: mapping from Boolean variable name to value.
        bv_values: mapping from bit-vector variable name to unsigned value.
    """

    bool_values: dict[str, bool] = field(default_factory=dict)
    bv_values: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "Assignment":
        """Return an independent copy of the assignment."""
        return Assignment(dict(self.bool_values), dict(self.bv_values))


def _to_signed(value: int, width: int) -> int:
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def evaluate(term: Term, assignment: Assignment) -> Union[bool, int]:
    """Evaluate ``term`` under ``assignment`` with exact integer semantics.

    This is the reference semantics the bit-blaster is tested against
    (property-based tests compare SAT models and direct evaluation).

    Raises:
        SolverError: if a free variable is missing from the assignment.
    """
    cache: dict[Term, Union[bool, int]] = {}

    def walk(node: Term) -> Union[bool, int]:
        if node in cache:
            return cache[node]
        result = _evaluate_node(node, assignment, walk)
        cache[node] = result
        return result

    return walk(term)


def _evaluate_node(node: Term, assignment: Assignment, walk) -> Union[bool, int]:
    if isinstance(node, BoolConst):
        return node.value
    if isinstance(node, BoolVar):
        if node.name not in assignment.bool_values:
            raise SolverError(f"no value for Boolean variable {node.name!r}")
        return assignment.bool_values[node.name]
    if isinstance(node, BoolOp):
        values = [walk(arg) for arg in node.args]
        if node.kind == "and":
            return all(values)
        if node.kind == "or":
            return any(values)
        if node.kind == "xor":
            result = False
            for value in values:
                result ^= bool(value)
            return result
        return not values[0]  # not
    if isinstance(node, BoolIte):
        return walk(node.then_branch) if walk(node.condition) else walk(node.else_branch)
    if isinstance(node, BvComparison):
        left = walk(node.left)
        right = walk(node.right)
        width = node.left.width
        if node.kind == "eq":
            return left == right
        if node.kind == "ult":
            return left < right
        if node.kind == "ule":
            return left <= right
        if node.kind == "slt":
            return _to_signed(left, width) < _to_signed(right, width)
        return _to_signed(left, width) <= _to_signed(right, width)  # sle
    if isinstance(node, BvConst):
        return node.value
    if isinstance(node, BvVar):
        if node.name not in assignment.bv_values:
            raise SolverError(f"no value for bit-vector variable {node.name!r}")
        return assignment.bv_values[node.name] & _mask(node.width)
    if isinstance(node, BvOp):
        width = node.width
        mask = _mask(width)
        values = [walk(arg) for arg in node.args]
        if node.kind == "add":
            return (values[0] + values[1]) & mask
        if node.kind == "sub":
            return (values[0] - values[1]) & mask
        if node.kind == "mul":
            return (values[0] * values[1]) & mask
        if node.kind == "and":
            return values[0] & values[1]
        if node.kind == "or":
            return values[0] | values[1]
        if node.kind == "xor":
            return values[0] ^ values[1]
        if node.kind == "not":
            return (~values[0]) & mask
        if node.kind == "neg":
            return (-values[0]) & mask
        if node.kind == "shl":
            shift = values[1]
            return 0 if shift >= width else (values[0] << shift) & mask
        if node.kind == "lshr":
            shift = values[1]
            return 0 if shift >= width else values[0] >> shift
        # ashr
        shift = values[1]
        signed = _to_signed(values[0], width)
        if shift >= width:
            return mask if signed < 0 else 0
        return (signed >> shift) & mask
    if isinstance(node, BvIte):
        return walk(node.then_branch) if walk(node.condition) else walk(node.else_branch)
    if isinstance(node, BvExtract):
        value = walk(node.operand)
        return (value >> node.low) & _mask(node.high - node.low + 1)
    if isinstance(node, BvConcat):
        result = 0
        for operand in node.operands:
            result = (result << operand.width) | walk(operand)
        return result
    if isinstance(node, BvZeroExtend):
        return walk(node.operand)
    if isinstance(node, BvSignExtend):
        value = walk(node.operand)
        return _to_signed(value, node.operand.width) & _mask(node.width)
    raise SolverError(f"cannot evaluate term of type {type(node).__name__}")


def free_variables(term: Term) -> tuple[dict[str, None], dict[str, int]]:
    """Return the free Boolean and bit-vector variables of ``term``.

    Returns:
        A pair ``(bool_names, bv_widths)`` where ``bool_names`` maps each
        Boolean variable name to ``None`` (an ordered set) and ``bv_widths``
        maps each bit-vector variable name to its width.
    """
    bool_names: dict[str, None] = {}
    bv_widths: dict[str, int] = {}
    seen: set[Term] = set()
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, BoolVar):
            bool_names[node.name] = None
        elif isinstance(node, BvVar):
            if node.name in bv_widths and bv_widths[node.name] != node.width:
                raise SolverError(
                    f"variable {node.name!r} used with widths "
                    f"{bv_widths[node.name]} and {node.width}"
                )
            bv_widths[node.name] = node.width
        elif isinstance(node, BoolOp):
            stack.extend(node.args)
        elif isinstance(node, (BoolIte, BvIte)):
            stack.extend([node.condition, node.then_branch, node.else_branch])
        elif isinstance(node, BvComparison):
            stack.extend([node.left, node.right])
        elif isinstance(node, BvOp):
            stack.extend(node.args)
        elif isinstance(node, BvExtract):
            stack.append(node.operand)
        elif isinstance(node, BvConcat):
            stack.extend(node.operands)
        elif isinstance(node, (BvZeroExtend, BvSignExtend)):
            stack.append(node.operand)
    return bool_names, bv_widths
