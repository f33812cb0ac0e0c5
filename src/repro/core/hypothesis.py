"""Structure hypotheses (the *H* of a sciduction instance).

Section 2.2.1 of the paper defines a structure hypothesis as a (possibly
infinite) set of artifacts that encodes the designer's insight about the
*form* of the artifact to be synthesized — a hyperbox guard, a loop-free
composition of library components, a weight-perturbation timing model, and
so on.  The hypothesis defines a subclass ``C_H`` of the full artifact class
``C_S``; Section 2.3.1 defines validity of the hypothesis (Eq. 1) as

    (exists c in C_S . c |= Psi)  ==>  (exists c in C_H . c |= Psi)

i.e. if any artifact satisfying the cumulative specification exists at all,
then one exists inside the hypothesis class.

This module provides the abstract interface, a predicate-defined
hypothesis, the discrete grid of Section 5, and the record of evidence
about a hypothesis's validity.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterator, TypeVar

from repro.core.exceptions import StructureHypothesisError

ArtifactT = TypeVar("ArtifactT")


class StructureHypothesis(ABC, Generic[ArtifactT]):
    """Abstract base class for structure hypotheses.

    A structure hypothesis is, mathematically, a set of candidate artifacts.
    Concrete subclasses must be able to say whether a given artifact belongs
    to the class (:meth:`contains`) and should provide a human-readable
    :meth:`describe` used in soundness certificates.
    """

    #: Short name used in reports and soundness certificates.
    name: str = "structure-hypothesis"

    @abstractmethod
    def contains(self, artifact: ArtifactT) -> bool:
        """Return ``True`` iff ``artifact`` is a member of the class ``C_H``."""

    def describe(self) -> str:
        """Return a one-line human readable description of the hypothesis."""
        return self.name

    def is_strict_restriction(self) -> bool | None:
        """Whether ``C_H`` is a *strict* subset of the unconstrained class.

        The paper argues (Section 2.2.4) that a strict restriction is
        desirable because it provides the inductive bias needed for
        generalisation.  Returns ``None`` when unknown.
        """
        return None


class PredicateHypothesis(StructureHypothesis[ArtifactT]):
    """A structure hypothesis given intensionally by a membership predicate.

    The predicate captures the *syntactic form* restriction; e.g. "the guard
    is a conjunction of interval constraints" or "the program uses only
    components from library L".
    """

    def __init__(
        self,
        predicate: Callable[[ArtifactT], bool],
        name: str = "predicate-hypothesis",
        strict: bool | None = None,
        description: str | None = None,
    ):
        self._predicate = predicate
        self.name = name
        self._strict = strict
        self._description = description or name

    def contains(self, artifact: ArtifactT) -> bool:
        return bool(self._predicate(artifact))

    def is_strict_restriction(self) -> bool | None:
        return self._strict

    def describe(self) -> str:
        return self._description


@dataclass(frozen=True)
class GridSpec:
    """A uniform discrete grid on a closed real interval.

    Section 5's structure hypothesis requires hyperbox vertices to lie on a
    known discrete grid (finite-precision recording of continuous values).
    ``GridSpec`` captures one axis of such a grid.

    Attributes:
        low: lower bound of the interval.
        high: upper bound of the interval.
        step: grid spacing; must evenly divide ``high - low`` up to
            floating-point tolerance.
    """

    low: float
    high: float
    step: float

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise StructureHypothesisError("grid step must be positive")
        if self.high < self.low:
            raise StructureHypothesisError("grid upper bound below lower bound")

    @property
    def num_points(self) -> int:
        """Number of grid points on the axis (inclusive of both ends)."""
        return int(round((self.high - self.low) / self.step)) + 1

    def snap(self, value: float) -> float:
        """Snap ``value`` to the nearest grid point, clamped to the range."""
        clamped = min(max(value, self.low), self.high)
        index = round((clamped - self.low) / self.step)
        return min(self.low + index * self.step, self.high)

    def points(self) -> Iterator[float]:
        """Yield the grid points in increasing order."""
        for index in range(self.num_points):
            yield min(self.low + index * self.step, self.high)

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        """Return True iff ``value`` lies (within ``tol``) on the grid."""
        if value < self.low - tol or value > self.high + tol:
            return False
        offset = (value - self.low) / self.step
        return abs(offset - round(offset)) <= tol / self.step


@dataclass
class HypothesisValidityEvidence:
    """Evidence gathered about the validity of a structure hypothesis.

    The paper (Section 6, "Structure Hypothesis Testing/Verification") notes
    that sciduction currently lacks a general validity check and calls for
    recording whatever evidence is available.  This record collects the
    checks each application can perform:

    * ``proved`` — the hypothesis was proved valid (e.g. CEGAR, where
      ``C_H = C_S``, or the monotone-dynamics argument of Section 5).
    * ``checked_instances`` — number of instances on which a posteriori
      verification succeeded (e.g. equivalence checks of synthesized
      programs).
    * ``counterexample`` — an artifact demonstrating invalidity, if found.
    """

    hypothesis_name: str
    proved: bool = False
    argument: str = ""
    checked_instances: int = 0
    counterexample: Any | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def refuted(self) -> bool:
        """True iff a counterexample to validity has been recorded."""
        return self.counterexample is not None

    def add_note(self, note: str) -> None:
        """Append a free-form note to the evidence record."""
        self.notes.append(note)

    def summary(self) -> str:
        """Return a one-line summary of the evidence."""
        if self.refuted:
            status = "REFUTED"
        elif self.proved:
            status = "PROVED"
        elif self.checked_instances:
            status = f"CHECKED on {self.checked_instances} instance(s)"
        else:
            status = "ASSUMED"
        detail = f" — {self.argument}" if self.argument else ""
        return f"valid({self.hypothesis_name}): {status}{detail}"
