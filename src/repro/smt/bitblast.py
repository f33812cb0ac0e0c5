"""Bit-blasting of QF_BV terms to CNF via the Tseitin transformation.

Every Boolean term is mapped to one propositional literal and every
bit-vector term to a list of literals (least-significant bit first).
Structural caching guarantees that shared sub-terms are encoded once, so
the encoding size is linear in the DAG size of the formula (quadratic for
multiplication, which uses a shift-and-add array).

The blaster writes clauses into any *sink* object exposing
``new_variable()`` and ``add_clause(literals)`` — both
:class:`repro.smt.cnf.CnfFormula` and :class:`repro.smt.sat.CdclSolver`
qualify, enabling incremental use by the SMT facade.

A blaster instance may be kept alive across many solver queries: the
structural caches (``_bool_cache`` / ``_bv_cache`` / ``_gate_cache``) are
append-only, so a term blasted for one check is encoded exactly once for
the lifetime of the blaster.  The incremental :class:`repro.smt.solver.SmtSolver`
relies on this to avoid re-bit-blasting shared sub-terms between checks.

**Polarity-aware encoding (Plaisted–Greenbaum).**  ``blast_bool`` accepts
the polarity under which the term is being used: :data:`POSITIVE` for
formulas asserted (or assumed) true, :data:`NEGATIVE` for formulas under
an odd number of negations, :data:`BOTH` (the default, and the classic
Tseitin behaviour) when either may matter.  A gate used under a single
polarity emits only the implication clauses of that direction — an
``n``-ary AND asserted positively costs ``n`` binary clauses but skips
the long ``(out ∨ ¬a₁ ∨ … ∨ ¬aₙ)`` clause; asserted negatively it costs
*only* the long clause.  The blaster records the directions each gate has
already emitted and lazily *upgrades* a gate to the full biconditional
the first time the other polarity is requested, so sharing cached gates
across incremental checks with different polarities stays sound.  Inputs
of XOR/IFF gates and ITE conditions are inherently mixed-polarity and are
always blasted with :data:`BOTH`, as is the entire bit-vector layer
(adders, shifters, …), whose bits feed comparison circuits in both
phases; consequently the model values of declared variables remain
extractable exactly as before.  Under P–G the SAT model restricted to the
declared variables still satisfies every formula asserted positively —
the half-encoded gates only ever drop the clause direction that is never
needed to justify those assertions.
"""

from __future__ import annotations

import zlib

from typing import Protocol, Sequence

from repro.core.exceptions import SolverError
from repro.smt.cnf import make_literal, negate
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
)


class ClauseSink(Protocol):
    """Anything that can allocate variables and accept clauses."""

    def new_variable(self) -> int:  # pragma: no cover - protocol
        ...

    def add_clause(self, literals) -> None:  # pragma: no cover - protocol
        ...


#: Polarity masks for :meth:`BitBlaster.blast_bool` (bitwise-combinable).
POSITIVE = 1
NEGATIVE = 2
BOTH = POSITIVE | NEGATIVE


def _swap_polarity(polarity: int) -> int:
    """Polarity seen through a negation (swaps the two direction bits)."""
    return ((polarity & POSITIVE) << 1) | ((polarity & NEGATIVE) >> 1)


class BitBlaster:
    """Tseitin bit-blaster writing clauses into a :class:`ClauseSink`.

    Typical use (through the SMT facade, but usable standalone)::

        solver = CdclSolver()
        blaster = BitBlaster(solver)
        blaster.assert_formula(x.eq(y + bv_const(1, 8)))
        if solver.solve() is SatResult.SAT:
            assignment = blaster.extract_assignment(solver.model())
    """

    def __init__(self, sink: ClauseSink):
        self._sink = sink
        # A dedicated variable constrained to be true gives us constant
        # literals, which keeps every "bit" a plain literal.
        true_var = sink.new_variable()
        self._true = make_literal(true_var)
        self._false = negate(self._true)
        self._sink.add_clause([self._true])
        self._bool_cache: dict[Term, int] = {}
        self._bv_cache: dict[Term, list[int]] = {}
        self._bool_vars: dict[str, int] = {}
        self._bv_vars: dict[str, list[int]] = {}
        self._gate_cache: dict[tuple, int] = {}
        # Polarity directions already emitted, per Boolean term / per gate.
        self._bool_polarity: dict[Term, int] = {}
        self._gate_emitted: dict[tuple, int] = {}
        # Hash chain over named-variable declarations, in order:
        # (highest SAT variable of the declaration, chain value).  The
        # chain value is a process-independent witness of the name→bits
        # layout — exactly what model extraction depends on — used by the
        # shared check memo to guarantee that replayed model bits decode
        # against the layout they were recorded under (a bare variable
        # *count* can collide between differently-polluted sessions).
        self._declarations: list[tuple[int, int]] = []

    # -- public API -------------------------------------------------------

    @property
    def false_literal(self) -> int:
        """The literal constrained to be false."""
        return self._false

    def assert_formula(self, formula: BoolTerm, polarity: int = BOTH) -> None:
        """Assert that ``formula`` holds (add its literal as a unit clause).

        Pass ``polarity=POSITIVE`` to use the Plaisted–Greenbaum encoding
        (sound because the formula is only ever used as a true assertion).
        """
        self._sink.add_clause([self.blast_bool(formula, polarity)])

    def blast_bool(self, term: BoolTerm, polarity: int = BOTH) -> int:
        """Return the literal representing the Boolean term.

        ``polarity`` declares the directions in which the caller relies on
        the Tseitin definitions (:data:`POSITIVE` / :data:`NEGATIVE` /
        :data:`BOTH`).  A cached term is re-walked only when it is missing
        a direction the caller now needs.
        """
        cached = self._bool_cache.get(term)
        missing = polarity & ~self._bool_polarity.get(term, 0)
        if cached is not None and not missing:
            return cached
        self._bool_polarity[term] = self._bool_polarity.get(term, 0) | polarity
        literal = self._blast_bool(term, polarity if cached is None else missing)
        if cached is not None:
            return cached  # upgrade walk: literal is identical by caching
        self._bool_cache[term] = literal
        return literal

    def blast_bv(self, term: BitVecTerm) -> list[int]:
        """Return the literals (LSB first) representing the bit-vector term."""
        cached = self._bv_cache.get(term)
        if cached is not None:
            return cached
        bits = self._blast_bv(term)
        if len(bits) != term.width:
            raise SolverError(
                f"internal error: blasted {len(bits)} bits for width {term.width}"
            )
        self._bv_cache[term] = bits
        return bits

    def _record_declaration(self, name: str, literals: Sequence[int]) -> None:
        previous = self._declarations[-1][1] if self._declarations else 0
        top = max(literal >> 1 for literal in literals)
        token = f"{previous}|{name}|{len(literals)}|{literals[0]}"
        self._declarations.append(
            (top, zlib.crc32(token.encode("utf-8")))
        )

    def layout_signature(self) -> int:
        """Process-independent digest of the name→bits declaration layout.

        Two blasters with equal signatures assign every declared variable
        name the same SAT literals (declarations are recorded in order
        with their positions), so a SAT model recorded under one decodes
        identically under the other — the guarantee the shared check
        memo's keys need.  Maintained incrementally and rolled back by
        :meth:`rollback_variables`.
        """
        return self._declarations[-1][1] if self._declarations else 0

    def extract_assignment(self, sat_model: Sequence[bool]) -> Assignment:
        """Reconstruct variable values from a SAT model.

        Variables declared *after* the model was produced (possible when
        the blaster outlives the solve call that found it) are skipped:
        their literals index beyond the model.

        Args:
            sat_model: list indexed by SAT variable (index 0 unused).
        """
        assignment = Assignment()
        known = len(sat_model)
        for name, literal in self._bool_vars.items():
            if (literal >> 1) < known:
                assignment.bool_values[name] = self._literal_value(literal, sat_model)
        for name, bits in self._bv_vars.items():
            if any((literal >> 1) >= known for literal in bits):
                continue
            value = 0
            for position, literal in enumerate(bits):
                if self._literal_value(literal, sat_model):
                    value |= 1 << position
            assignment.bv_values[name] = value
        return assignment

    def extract_value(
        self, name: str, sat_model: Sequence[bool]
    ) -> int | bool | None:
        """Value of one declared variable under a SAT model.

        Cheaper than :meth:`extract_assignment` when only a few variables
        are needed.  Returns None for names never declared or declared
        after the model was produced.
        """
        known = len(sat_model)
        literal = self._bool_vars.get(name)
        if literal is not None:
            if (literal >> 1) >= known:
                return None
            return self._literal_value(literal, sat_model)
        bits = self._bv_vars.get(name)
        if bits is None or any((literal >> 1) >= known for literal in bits):
            return None
        value = 0
        for position, literal in enumerate(bits):
            if self._literal_value(literal, sat_model):
                value |= 1 << position
        return value

    def rollback_variables(self, max_var: int) -> None:
        """Evict every cache entry referencing a SAT variable above ``max_var``.

        Companion of :meth:`repro.smt.sat.CdclSolver.reset_to`:
        after the solver drops the variables above a watermark, the
        blaster must forget the terms/gates whose encoding used them, so
        a later occurrence of the same term re-blasts into fresh
        variables instead of resolving to a dangling cache hit.  Entries
        at or below the watermark are untouched — by allocation order,
        everything they transitively reference (gate inputs, internal
        carries) was allocated before them and therefore also survives.
        """

        def keep(literal: int) -> bool:
            return (literal >> 1) <= max_var

        self._bool_cache = {
            term: literal
            for term, literal in self._bool_cache.items()
            if keep(literal)
        }
        self._bool_polarity = {
            term: mask
            for term, mask in self._bool_polarity.items()
            if term in self._bool_cache
        }
        self._bv_cache = {
            term: literals
            for term, literals in self._bv_cache.items()
            if all(keep(literal) for literal in literals)
        }
        # The name→bits maps hold *literals* (like every other cache here),
        # not variable indices.
        self._bool_vars = {
            name: literal
            for name, literal in self._bool_vars.items()
            if keep(literal)
        }
        self._bv_vars = {
            name: literals
            for name, literals in self._bv_vars.items()
            if all(keep(literal) for literal in literals)
        }
        # Gate keys only reference literals allocated before the gate's
        # output, so filtering on the output covers the key as well.
        self._gate_cache = {
            key: output
            for key, output in self._gate_cache.items()
            if keep(output)
        }
        self._gate_emitted = {
            key: mask
            for key, mask in self._gate_emitted.items()
            if key in self._gate_cache
        }
        # Rewind the declaration chain to the watermark: a deterministic
        # replay from here reproduces the same chain values, so the
        # layout signature stays a faithful witness across rollbacks.
        while self._declarations and self._declarations[-1][0] > max_var:
            self._declarations.pop()

    @staticmethod
    def _literal_value(literal: int, sat_model: Sequence[bool]) -> bool:
        value = sat_model[literal >> 1]
        return (not value) if (literal & 1) else value

    # -- fresh variables & primitive gates ---------------------------------

    def _fresh(self) -> int:
        return make_literal(self._sink.new_variable())

    def _constant(self, value: bool) -> int:
        return self._true if value else self._false

    def _gate_need(self, key: tuple, polarity: int) -> tuple[int, int]:
        """Cached output literal and the not-yet-emitted directions.

        Allocates the output variable on first sight.  The caller is
        responsible for emitting the clauses of the returned ``need`` mask
        (the mask is recorded as emitted here, before the clauses land, so
        recursive upgrades cannot duplicate them).
        """
        output = self._gate_cache.get(key)
        if output is None:
            output = self._fresh()
            self._gate_cache[key] = output
            self._gate_emitted[key] = 0
        need = polarity & ~self._gate_emitted[key]
        self._gate_emitted[key] |= need
        return output, need

    def _gate_and(self, operands: list[int], polarity: int = BOTH) -> int:
        operands = [lit for lit in operands if lit != self._true]
        if any(lit == self._false for lit in operands):
            return self._false
        if not operands:
            return self._true
        if len(operands) == 1:
            return operands[0]
        key = ("and", tuple(sorted(operands)))
        output, need = self._gate_need(key, polarity)
        if need & POSITIVE:  # output → every operand
            for literal in key[1]:
                self._sink.add_clause([negate(output), literal])
        if need & NEGATIVE:  # all operands → output
            self._sink.add_clause([output] + [negate(literal) for literal in key[1]])
        return output

    def _gate_or(self, operands: list[int], polarity: int = BOTH) -> int:
        # De Morgan: the inner AND gate is used *negated*, so the
        # directions it must support are the caller's, swapped.
        return negate(
            self._gate_and(
                [negate(literal) for literal in operands], _swap_polarity(polarity)
            )
        )

    def _gate_xor(self, left: int, right: int, polarity: int = BOTH) -> int:
        if left == self._false:
            return right
        if right == self._false:
            return left
        if left == self._true:
            return negate(right)
        if right == self._true:
            return negate(left)
        if left == right:
            return self._false
        if left == negate(right):
            return self._true
        key = ("xor", tuple(sorted((left, right))))
        output, need = self._gate_need(key, polarity)
        if need & POSITIVE:  # output → left ⊕ right
            self._sink.add_clause([negate(output), left, right])
            self._sink.add_clause([negate(output), negate(left), negate(right)])
        if need & NEGATIVE:  # left ⊕ right → output
            self._sink.add_clause([output, negate(left), right])
            self._sink.add_clause([output, left, negate(right)])
        return output

    def _gate_ite(
        self, condition: int, then_literal: int, else_literal: int, polarity: int = BOTH
    ) -> int:
        if condition == self._true:
            return then_literal
        if condition == self._false:
            return else_literal
        if then_literal == else_literal:
            return then_literal
        key = ("ite", condition, then_literal, else_literal)
        output, need = self._gate_need(key, polarity)
        if need & POSITIVE:  # output → (condition ? then : else)
            self._sink.add_clause([negate(condition), then_literal, negate(output)])
            self._sink.add_clause([condition, else_literal, negate(output)])
            # Redundant but propagation-friendly clause.
            self._sink.add_clause([then_literal, else_literal, negate(output)])
        if need & NEGATIVE:  # (condition ? then : else) → output
            self._sink.add_clause([negate(condition), negate(then_literal), output])
            self._sink.add_clause([condition, negate(else_literal), output])
            self._sink.add_clause([negate(then_literal), negate(else_literal), output])
        return output

    def _gate_iff(self, left: int, right: int, polarity: int = BOTH) -> int:
        return negate(self._gate_xor(left, right, _swap_polarity(polarity)))

    def _gate_majority(self, a: int, b: int, c: int) -> int:
        """Majority-of-three (full-adder carry); bit-vector layer, full encoding."""
        return self._gate_or(
            [self._gate_and([a, b]), self._gate_and([a, c]), self._gate_and([b, c])]
        )

    # -- Boolean terms ------------------------------------------------------

    def _blast_bool(self, term: BoolTerm, polarity: int) -> int:
        if isinstance(term, BoolConst):
            return self._constant(term.value)
        if isinstance(term, BoolVar):
            if term.name not in self._bool_vars:
                literal = self._fresh()
                self._bool_vars[term.name] = literal
                self._record_declaration(term.name, (literal,))
            return self._bool_vars[term.name]
        if isinstance(term, BoolOp):
            if term.kind == "not":
                # Negation flips the polarity of the operand's occurrences.
                return negate(self.blast_bool(term.args[0], _swap_polarity(polarity)))
            if term.kind == "xor":
                # XOR inputs occur in both phases of the gate clauses, so
                # sub-terms (and intermediate chain gates) need BOTH; only
                # the final output gate is polarity-split.
                operands = [self.blast_bool(arg, BOTH) for arg in term.args]
                if len(operands) == 1:
                    return operands[0]
                result = operands[0]
                for literal in operands[1:-1]:
                    result = self._gate_xor(result, literal, BOTH)
                return self._gate_xor(result, operands[-1], polarity)
            # and / or preserve the polarity of their operands.
            operands = [self.blast_bool(arg, polarity) for arg in term.args]
            if term.kind == "and":
                return self._gate_and(operands, polarity)
            return self._gate_or(operands, polarity)
        if isinstance(term, BoolIte):
            return self._gate_ite(
                # The condition guards both directions: it is mixed-polarity.
                self.blast_bool(term.condition, BOTH),
                self.blast_bool(term.then_branch, polarity),
                self.blast_bool(term.else_branch, polarity),
                polarity,
            )
        if isinstance(term, BvComparison):
            return self._blast_comparison(term, polarity)
        raise SolverError(f"cannot bit-blast Boolean term {type(term).__name__}")

    def _blast_comparison(self, term: BvComparison, polarity: int = BOTH) -> int:
        # The bit-vector layer below is always fully (biconditionally)
        # encoded; the polarity split applies to the comparison skeleton
        # gates built on top of the operand bits.
        left = self.blast_bv(term.left)
        right = self.blast_bv(term.right)
        if term.kind == "eq":
            return self._gate_and(
                [self._gate_iff(a, b, polarity) for a, b in zip(left, right)],
                polarity,
            )
        if term.kind in {"slt", "sle"}:
            # Signed comparison = unsigned comparison with sign bits flipped.
            left = left[:-1] + [negate(left[-1])]
            right = right[:-1] + [negate(right[-1])]
        strict = term.kind in {"ult", "slt"}
        return self._unsigned_less(left, right, not strict, polarity)

    def _unsigned_less(
        self,
        left: list[int],
        right: list[int],
        allow_equal: bool,
        polarity: int = BOTH,
    ) -> int:
        """Encode ``left < right`` (or ``<=``) for LSB-first literal lists."""
        result = self._constant(allow_equal)
        for a, b in zip(left, right):  # LSB to MSB
            strictly_less = self._gate_and([negate(a), b], polarity)
            equal = self._gate_iff(a, b, polarity)
            result = self._gate_or(
                [strictly_less, self._gate_and([equal, result], polarity)], polarity
            )
        return result

    # -- bit-vector terms ----------------------------------------------------

    def _blast_bv(self, term: BitVecTerm) -> list[int]:
        if isinstance(term, BvConst):
            return [
                self._constant(bool((term.value >> position) & 1))
                for position in range(term.width)
            ]
        if isinstance(term, BvVar):
            if term.name not in self._bv_vars:
                bits = [self._fresh() for _ in range(term.width)]
                self._bv_vars[term.name] = bits
                self._record_declaration(term.name, bits)
            bits = self._bv_vars[term.name]
            if len(bits) != term.width:
                raise SolverError(
                    f"variable {term.name!r} redeclared with width {term.width}"
                )
            return list(bits)
        if isinstance(term, BvOp):
            return self._blast_bv_op(term)
        if isinstance(term, BvIte):
            condition = self.blast_bool(term.condition)
            then_bits = self.blast_bv(term.then_branch)
            else_bits = self.blast_bv(term.else_branch)
            return [
                self._gate_ite(condition, t, e) for t, e in zip(then_bits, else_bits)
            ]
        if isinstance(term, BvExtract):
            bits = self.blast_bv(term.operand)
            return bits[term.low : term.high + 1]
        if isinstance(term, BvConcat):
            result: list[int] = []
            for operand in reversed(term.operands):  # LSB-first assembly
                result.extend(self.blast_bv(operand))
            return result
        if isinstance(term, BvZeroExtend):
            bits = self.blast_bv(term.operand)
            return bits + [self._false] * (term.width - term.operand.width)
        if isinstance(term, BvSignExtend):
            bits = self.blast_bv(term.operand)
            return bits + [bits[-1]] * (term.width - term.operand.width)
        raise SolverError(f"cannot bit-blast bit-vector term {type(term).__name__}")

    def _blast_bv_op(self, term: BvOp) -> list[int]:
        kind = term.kind
        if kind in {"and", "or", "xor"}:
            left = self.blast_bv(term.args[0])
            right = self.blast_bv(term.args[1])
            if kind == "and":
                return [self._gate_and([a, b]) for a, b in zip(left, right)]
            if kind == "or":
                return [self._gate_or([a, b]) for a, b in zip(left, right)]
            return [self._gate_xor(a, b) for a, b in zip(left, right)]
        if kind == "not":
            return [negate(bit) for bit in self.blast_bv(term.args[0])]
        if kind == "neg":
            bits = [negate(bit) for bit in self.blast_bv(term.args[0])]
            return self._ripple_add(bits, [self._false] * len(bits), carry_in=self._true)
        if kind == "add":
            return self._ripple_add(
                self.blast_bv(term.args[0]), self.blast_bv(term.args[1]), self._false
            )
        if kind == "sub":
            left = self.blast_bv(term.args[0])
            right = [negate(bit) for bit in self.blast_bv(term.args[1])]
            return self._ripple_add(left, right, carry_in=self._true)
        if kind == "mul":
            return self._multiply(
                self.blast_bv(term.args[0]), self.blast_bv(term.args[1])
            )
        if kind in {"shl", "lshr", "ashr"}:
            return self._shift(
                kind, self.blast_bv(term.args[0]), term.args[1]
            )
        raise SolverError(f"unhandled bit-vector op {kind!r}")

    def _ripple_add(self, left: list[int], right: list[int], carry_in: int) -> list[int]:
        carry = carry_in
        result: list[int] = []
        for a, b in zip(left, right):
            partial = self._gate_xor(a, b)
            result.append(self._gate_xor(partial, carry))
            carry = self._gate_majority(a, b, carry)
        return result

    def _multiply(self, left: list[int], right: list[int]) -> list[int]:
        width = len(left)
        accumulator = [self._false] * width
        for position, control in enumerate(right):
            if control == self._false:
                continue
            partial = (
                [self._false] * position
                + [self._gate_and([control, bit]) for bit in left[: width - position]]
            )
            accumulator = self._ripple_add(accumulator, partial, self._false)
        return accumulator

    def _shift(self, kind: str, operand: list[int], amount_term: BitVecTerm) -> list[int]:
        width = len(operand)
        fill = operand[-1] if kind == "ashr" else self._false
        # Constant shift amounts are rewired directly.
        if isinstance(amount_term, BvConst):
            amount = amount_term.value
            return self._shift_by_constant(kind, operand, amount, fill)
        amount_bits = self.blast_bv(amount_term)
        # Barrel shifter over the log2(width) least significant amount bits.
        stages = max(1, (width - 1).bit_length())
        result = list(operand)
        for stage in range(stages):
            shift = 1 << stage
            shifted = self._shift_by_constant(kind, result, shift, fill)
            control = amount_bits[stage] if stage < len(amount_bits) else self._false
            result = [
                self._gate_ite(control, s, r) for s, r in zip(shifted, result)
            ]
        # Any higher amount bit set (or amount >= width) forces the
        # overflow fill value.
        overflow_controls = list(amount_bits[stages:])
        if (1 << stages) > width - 1:
            # Amounts in [width, 2**stages) also overflow; detect them via a
            # comparison against the constant width.
            pass
        overflow = (
            self._gate_or(overflow_controls) if overflow_controls else self._false
        )
        # Additionally handle amounts between width and 2**stages - 1.
        if (1 << stages) - 1 >= width:
            width_const = [
                self._constant(bool((width >> position) & 1))
                for position in range(len(amount_bits))
            ]
            too_large = negate(
                self._unsigned_less(amount_bits, width_const, allow_equal=False)
            )
            overflow = self._gate_or([overflow, too_large])
        return [self._gate_ite(overflow, fill, bit) for bit in result]

    def _shift_by_constant(
        self, kind: str, operand: list[int], amount: int, fill: int
    ) -> list[int]:
        width = len(operand)
        if amount == 0:
            return list(operand)
        if amount >= width:
            return [fill] * width
        if kind == "shl":
            return [self._false] * amount + operand[: width - amount]
        # lshr / ashr
        return operand[amount:] + [fill] * amount
