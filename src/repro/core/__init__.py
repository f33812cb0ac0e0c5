"""The sciduction framework core (paper Section 2).

Exports what the three applications share: the structure-hypothesis
interface (the *H* of a sciduction instance ⟨H, I, D⟩) with the grid
and validity-evidence records, the query-counting oracle interfaces, the
interval learner behind Section 5's hyperbox learning, the exception
hierarchy, and the procedure driver with its conditional-soundness
bookkeeping.  Each application brings its own inductive and deductive
engines and names them in ``describe()``.
"""

from repro.core.exceptions import (
    BudgetExceededError,
    CompilationError,
    InductionError,
    ReproError,
    SimulationError,
    SolverError,
    StructureHypothesisError,
    UnrealizableError,
)
from repro.core.hypothesis import (
    GridSpec,
    HypothesisValidityEvidence,
    PredicateHypothesis,
    StructureHypothesis,
)
from repro.core.inductive import BinarySearchIntervalLearner, Interval
from repro.core.oracle import (
    FunctionLabelingOracle,
    IOOracle,
    LabelingOracle,
    Oracle,
)
from repro.core.procedure import (
    SciductionProcedure,
    SciductionResult,
    SoundnessCertificate,
)

__all__ = [
    "BinarySearchIntervalLearner",
    "BudgetExceededError",
    "CompilationError",
    "FunctionLabelingOracle",
    "GridSpec",
    "HypothesisValidityEvidence",
    "IOOracle",
    "InductionError",
    "Interval",
    "LabelingOracle",
    "Oracle",
    "PredicateHypothesis",
    "ReproError",
    "SciductionProcedure",
    "SciductionResult",
    "SimulationError",
    "SolverError",
    "SoundnessCertificate",
    "StructureHypothesis",
    "StructureHypothesisError",
    "UnrealizableError",
]
