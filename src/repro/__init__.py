"""repro — a reproduction of "Sciduction: Combining Induction, Deduction, and
Structure for Verification and Synthesis" (Sanjit A. Seshia, DAC 2012).

**Start at** :mod:`repro.api`: the unified front door.  One
:class:`~repro.api.engine.SciductionEngine` runs all three of the
paper's applications from declarative, JSON-serializable problem specs,
over a pool of persistent incremental SMT solver sessions::

    from repro.api import (
        DeobfuscationProblem, EngineConfig, SciductionEngine,
        SwitchingLogicProblem, TimingAnalysisProblem,
    )

    engine = SciductionEngine(EngineConfig())
    results = engine.run_batch([
        TimingAnalysisProblem(program="modular_exponentiation",
                              program_args={"exponent_bits": 4,
                                            "word_width": 16},
                              bound=500),
        DeobfuscationProblem(task="multiply45", width=8),
        SwitchingLogicProblem(system="transmission", omega_step=0.1),
    ])

The package is organised as a small family of libraries underneath:

``repro.api``
    The engine facade: :class:`~repro.api.config.EngineConfig` (one
    config surface), the problem-type registry, the
    :class:`~repro.api.pool.SolverPool`, and the job lifecycle
    (``submit`` / ``run_batch`` with budgets, timeouts, cancellation and
    JSON-serializable results).

``repro.core``
    The sciduction framework itself: structure hypotheses, inductive
    inference engines, deductive engines, oracle interfaces, and the
    conditional-soundness bookkeeping described in Section 2 of the paper.

``repro.smt``
    A self-contained SAT + quantifier-free bit-vector (QF_BV) SMT solver
    used as the deductive engine by the GameTime and program-synthesis
    applications (the paper used an off-the-shelf SMT solver; none is
    available offline, so one is implemented here from scratch).

``repro.cfg``
    A structured imperative *task language*, control-flow graphs, loop
    unrolling, path vectors and basis-path extraction (Section 3).

``repro.platform``
    A deterministic cycle-level embedded-platform simulator (RISC-style
    ISA, compiler, in-order pipeline, instruction/data caches) standing in
    for the SimIt-ARM / StrongARM-1100 testbed used by the paper.

``repro.gametime``
    Application 1 — GameTime-style timing analysis (Section 3).

``repro.ogis``
    Application 2 — oracle-guided component-based program synthesis /
    deobfuscation (Section 4).

``repro.hybrid``
    Application 3 — switching-logic synthesis for multi-modal dynamical
    systems (Section 5).

**Front doors.**  The per-application entry points — constructing
:class:`~repro.ogis.synthesizer.OgisSynthesizer`,
:class:`~repro.gametime.analysis.GameTime` or
:class:`~repro.hybrid.synthesis.SwitchingLogicSynthesizer` directly —
still work, but they bypass the engine's solver pooling, budgets and
structured results.  Solver flags reach them only through one
:class:`~repro.api.config.EngineConfig` (``config=``); prefer submitting
a problem spec, and use ``ProblemSpec.build()`` for in-process
exploration of the rich per-application objects.
"""

from repro.core import (
    DeductiveEngine,
    InductiveEngine,
    Oracle,
    SciductionProcedure,
    SciductionResult,
    StructureHypothesis,
)

__version__ = "2.0.0"

__all__ = [
    "DeductiveEngine",
    "InductiveEngine",
    "Oracle",
    "SciductionProcedure",
    "SciductionResult",
    "StructureHypothesis",
    "__version__",
]
