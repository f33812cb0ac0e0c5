"""repro.api — the unified front door to the sciduction reproduction.

The paper presents timing analysis (Section 3), deobfuscation
(Section 4) and switching-logic synthesis (Section 5) as three instances
of one sciduction triple ⟨H, I, D⟩.  This package gives them one API to
match:

* :class:`EngineConfig` — every solver / engine knob in one frozen,
  JSON-serializable dataclass (replacing the kwargs formerly threaded
  through each application constructor);
* :class:`DeobfuscationProblem`, :class:`TimingAnalysisProblem`,
  :class:`SwitchingLogicProblem` — declarative, JSON-round-trippable
  problem specs, extensible through :func:`register_problem_type`;
* :class:`SolverPool` — persistent incremental SMT sessions leased per
  job, so base-scope encodings and bit-blast caches amortize across a
  batch;
* :class:`SciductionEngine` — ``submit`` / ``run`` / ``run_batch`` with
  per-job conflict budgets, wall-clock timeouts and cancellation, and
  results serializable with :func:`result_to_dict`.

Quickstart::

    from repro.api import (
        DeobfuscationProblem, EngineConfig, SciductionEngine,
        TimingAnalysisProblem,
    )

    engine = SciductionEngine(EngineConfig())
    engine.submit(DeobfuscationProblem(task="multiply45", width=8))
    engine.submit(TimingAnalysisProblem(
        program="modular_exponentiation",
        program_args={"exponent_bits": 4, "word_width": 16},
        bound=500,
    ))
    for result in engine.run_batch():
        print(result.success, result.verdict, result.certificate.statement())
"""

from repro.api.config import EngineConfig
from repro.api.engine import Job, JobState, SciductionEngine
from repro.api.pool import PoolStatistics, SolverLease, SolverPool
from repro.api.problems import (
    DeobfuscationProblem,
    JobContext,
    ProblemSpec,
    SwitchingLogicProblem,
    TimingAnalysisProblem,
    deobfuscation_task_names,
    problem_from_dict,
    problem_types,
    register_problem_type,
    timing_program_names,
)
from repro.api.results import (
    result_from_dict,
    result_to_dict,
    result_to_json,
    result_wire_canonical,
)

__all__ = [
    "DeobfuscationProblem",
    "EngineConfig",
    "Job",
    "JobContext",
    "JobState",
    "PoolStatistics",
    "ProblemSpec",
    "SciductionEngine",
    "SolverLease",
    "SolverPool",
    "SwitchingLogicProblem",
    "TimingAnalysisProblem",
    "deobfuscation_task_names",
    "problem_from_dict",
    "problem_types",
    "register_problem_type",
    "result_from_dict",
    "result_to_dict",
    "result_to_json",
    "result_wire_canonical",
    "timing_program_names",
]
