"""Exception hierarchy shared by the whole ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can distinguish library failures from programming errors.  The sciduction
framework additionally distinguishes the two outcomes highlighted in the
paper's Figure 7: an *unrealizable* problem (no artifact in the hypothesis
class is consistent with the evidence) versus a plain failure of the
procedure itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class StructureHypothesisError(ReproError):
    """Raised when a structure hypothesis is malformed or violated."""


class UnrealizableError(ReproError):
    """Raised when no artifact in the hypothesis class is consistent with
    the accumulated evidence.

    This corresponds to the "infeasibility reported" outcome of the paper's
    Figure 7: the inductive engine has proved (through its deductive engine)
    that the structure hypothesis admits no artifact satisfying the examples
    gathered so far, so either the specification is unrealizable or the
    structure hypothesis is invalid.
    """


class InductionError(ReproError):
    """Raised when an inductive engine cannot generalise from its examples."""


class BudgetExceededError(ReproError):
    """Raised when an iteration/time/query budget is exhausted.

    Sciductive procedures are iterative; each application bounds the number
    of oracle queries or refinement rounds and raises this error instead of
    looping forever when the bound is hit.

    Attributes:
        partial: optional JSON-ready payload describing reusable partial
            progress — e.g. the example set an interrupted OGIS run had
            already learned.  The engine layer surfaces it in the job's
            result details (``details["partial"]``) so the job can be
            resubmitted with that progress instead of restarting from zero.
    """

    def __init__(self, *args: object, partial: dict | None = None):
        super().__init__(*args)
        self.partial = partial


class SolverError(ReproError):
    """Raised by the SMT/SAT substrate on malformed input or internal error."""


class SimulationError(ReproError):
    """Raised by the platform or ODE simulators on invalid configurations."""


class CompilationError(ReproError):
    """Raised when a task-language program cannot be compiled or unrolled."""
