"""A self-contained SAT + QF_BV SMT solving substrate.

The paper's deductive engines for timing analysis (Section 3) and program
synthesis (Section 4) are SMT solvers; this subpackage provides one built
from scratch: a term language (:mod:`repro.smt.terms`), a word-level
simplifier (:mod:`repro.smt.simplify`), a Tseitin bit-blaster
(:mod:`repro.smt.bitblast`), a CDCL SAT solver (:mod:`repro.smt.sat`) and
an SMT facade (:mod:`repro.smt.solver`).

How a query flows through the stack
===================================

1. **Term construction** (:mod:`repro.smt.terms`).  Application code —
   the OGIS synthesis encoder, the GameTime path-constraint builder, the
   hybrid benchmarks — builds immutable term DAGs through the constructor
   helpers.  The helpers *hash-cons*: structurally equal terms built
   anywhere in the process are the same object, so every cache downstream
   keys on cheap object identity and shared sub-terms are paid for once.

2. **Word-level simplification** (:mod:`repro.smt.simplify`).  When a
   formula is asserted (``SmtSolver.add``) or checked
   (``SmtSolver.check``), it is first rewritten: constants fold, neutral
   and absorbing elements vanish, ITEs collapse, trivial comparisons
   become Boolean constants.  Whatever the rewriter discharges, the SAT
   core never sees.

3. **Bit-blasting** (:mod:`repro.smt.bitblast`).  The surviving formula
   is translated to CNF through a structurally cached, *polarity-aware*
   Tseitin transformation (Plaisted–Greenbaum): asserted formulas only
   need the positive direction of each gate definition, and the missing
   direction is emitted lazily if some later query uses the gate under
   the other polarity.  The blaster lives as long as its ``SmtSolver``,
   so terms blasted for one check are free in every later check.

4. **CDCL search** (:mod:`repro.smt.sat`).  Clauses land in a persistent
   incremental solver: scopes are activation literals, ``check`` extras
   are assumptions, restarts follow the Luby sequence, learned clauses
   carry LBD and are reduced glucose-style, watch lists carry blocking
   literals, and scopes retired by ``pop`` are garbage-collected at
   level 0 once enough dead volume accumulates.

5. **Model extraction** (:mod:`repro.smt.solver`).  A SAT answer yields a
   :class:`~repro.smt.solver.Model` lazily; declared variables keep their
   full bit encodings, so model values are exact regardless of the
   polarity-aware gate definitions around them.

``benchmarks/bench_perf_suite.py`` measures each layer's contribution
(ablation flags ``simplify_terms`` / ``polarity_aware`` /
``gc_dead_clauses``) and records the trajectory in ``BENCH_perf.json``.
"""

from repro.smt.cnf import (
    CnfFormula,
    lit_from_dimacs,
    lit_to_dimacs,
    literal_is_negative,
    literal_variable,
    make_literal,
    negate,
)
from repro.smt.dimacs import dump_dimacs, dumps_dimacs, load_dimacs, loads_dimacs
from repro.smt.bitblast import BitBlaster
from repro.smt.simplify import simplify, simplify_bool
from repro.smt.sat import CdclSolver, SatResult, SatStatistics, luby, solve_formula
from repro.smt.solver import (
    Model,
    SmtDeductiveEngine,
    SmtResult,
    SmtSolver,
    SmtStatistics,
    conjoin,
    solve,
)
from repro.smt.terms import (
    Assignment,
    BitVecTerm,
    BoolConst,
    BoolTerm,
    BoolVar,
    BvConst,
    BvVar,
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
    bv_add,
    bv_and,
    bv_ashr,
    bv_comparison,
    bv_concat,
    bv_const,
    bv_equal_any,
    bv_extract,
    bv_ite,
    bv_lshr,
    bv_mul,
    bv_neg,
    bv_not,
    bv_or,
    bv_shl,
    bv_sign_extend,
    bv_sub,
    bv_var,
    bv_xor,
    bv_zero_extend,
    evaluate,
    free_variables,
)

__all__ = [
    "Assignment",
    "BitBlaster",
    "BitVecTerm",
    "BoolConst",
    "BoolTerm",
    "BoolVar",
    "BvConst",
    "BvVar",
    "CdclSolver",
    "CnfFormula",
    "FALSE",
    "Model",
    "SatResult",
    "SatStatistics",
    "SmtDeductiveEngine",
    "SmtResult",
    "SmtSolver",
    "SmtStatistics",
    "TRUE",
    "bool_and",
    "bool_const",
    "bool_iff",
    "bool_implies",
    "bool_ite",
    "bool_not",
    "bool_or",
    "bool_var",
    "bool_xor",
    "bv_add",
    "bv_and",
    "bv_ashr",
    "bv_comparison",
    "bv_concat",
    "bv_const",
    "bv_equal_any",
    "bv_extract",
    "bv_ite",
    "bv_lshr",
    "bv_mul",
    "bv_neg",
    "bv_not",
    "bv_or",
    "bv_shl",
    "bv_sign_extend",
    "bv_sub",
    "bv_var",
    "bv_xor",
    "bv_zero_extend",
    "conjoin",
    "dump_dimacs",
    "dumps_dimacs",
    "evaluate",
    "free_variables",
    "lit_from_dimacs",
    "lit_to_dimacs",
    "literal_is_negative",
    "literal_variable",
    "load_dimacs",
    "loads_dimacs",
    "luby",
    "make_literal",
    "negate",
    "simplify",
    "simplify_bool",
    "solve",
    "solve_formula",
]
