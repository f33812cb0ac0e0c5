"""The sciduction procedure: ⟨H, I, D⟩ plus conditional soundness.

Section 2.2 defines an instance of sciduction as a triple of a structure
hypothesis H, an inductive inference engine I, and a (lightweight) deductive
engine D.  Section 2.3 then requires *conditional soundness*:

    valid(H)  ==>  sound(P)                                   (paper Eq. 2)

This module provides:

* :class:`SciductionProcedure` — the abstract driver of one instance;
  each application (GameTime, OGIS, switching logic synthesis) subclasses
  it, runs its own inductive and deductive engines in :meth:`_run`, and
  names them in :meth:`describe`.
* :class:`SciductionResult` — the structured outcome of a run, including the
  synthesized artifact, the verdict, query counts, and the soundness
  certificate.
* :class:`SoundnessCertificate` — a record of the conditional-soundness
  statement together with whatever evidence about ``valid(H)`` was gathered.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

from repro.core.hypothesis import HypothesisValidityEvidence, StructureHypothesis

ArtifactT = TypeVar("ArtifactT")


@dataclass
class SoundnessCertificate:
    """The conditional soundness statement of a sciductive procedure.

    The certificate does not *prove* soundness by itself; it records the
    statement ``valid(H) ==> sound(P)``, the soundness argument provided by
    the procedure's author, and the evidence about ``valid(H)`` gathered at
    run time (Section 2.3 / Section 6 of the paper).
    """

    procedure_name: str
    hypothesis_evidence: HypothesisValidityEvidence
    soundness_argument: str = ""
    probabilistic: bool = False
    confidence: float | None = None

    def statement(self) -> str:
        """Return the textual conditional-soundness statement (Eq. 2)."""
        kind = "probabilistically sound" if self.probabilistic else "sound"
        conf = (
            f" with probability >= {self.confidence}"
            if self.probabilistic and self.confidence is not None
            else ""
        )
        return (
            f"valid({self.hypothesis_evidence.hypothesis_name}) ==> "
            f"{self.procedure_name} is {kind}{conf}"
        )

    def summary(self) -> str:
        """Multi-line human-readable summary of the certificate."""
        lines = [self.statement(), self.hypothesis_evidence.summary()]
        if self.soundness_argument:
            lines.append(f"argument: {self.soundness_argument}")
        return "\n".join(lines)


@dataclass
class SciductionResult(Generic[ArtifactT]):
    """Outcome of running a sciductive verification/synthesis procedure.

    Attributes:
        success: whether an artifact was synthesized / a verdict reached.
        artifact: the synthesized artifact (program, guards, timing model,
            ...), when ``success`` is True.
        verdict: for verification-style problems, the YES/NO answer.
        iterations: number of inductive-deductive iterations performed.
        oracle_queries: total number of oracle queries charged: the
            queries asked, not the simulator or oracle runs behind them
            (a memoized measurement still counts).
        deductive_queries: total number of deductive-engine queries.
        elapsed: wall-clock seconds for the whole run.
        certificate: the conditional-soundness certificate.
        details: free-form per-application data (e.g. per-path predictions).
    """

    success: bool
    artifact: ArtifactT | None = None
    verdict: bool | None = None
    iterations: int = 0
    oracle_queries: int = 0
    deductive_queries: int = 0
    elapsed: float = 0.0
    certificate: SoundnessCertificate | None = None
    details: dict[str, Any] = field(default_factory=dict)


class SciductionProcedure(ABC, Generic[ArtifactT]):
    """Abstract driver for a sciductive procedure ⟨H, I, D⟩.

    Concrete procedures implement :meth:`_run`, which performs the actual
    inductive/deductive interplay and returns a :class:`SciductionResult`,
    and :meth:`describe`, which names their H, I and D.  The base class
    wraps the run with timing and attaches the soundness certificate, so
    every application reports results in the same shape (this is what the
    Table 1 benchmark harness consumes).
    """

    name: str = "sciduction-procedure"

    def __init__(self, hypothesis: StructureHypothesis[Any]):
        self.hypothesis = hypothesis

    # -- soundness -------------------------------------------------------

    def hypothesis_evidence(self) -> HypothesisValidityEvidence:
        """Return the evidence about ``valid(H)`` this procedure can offer.

        The default is "ASSUMED"; applications override to record proofs
        (e.g. CEGAR's ``C_H = C_S``) or a posteriori checks.
        """
        return HypothesisValidityEvidence(
            hypothesis_name=self.hypothesis.name,
            proved=False,
            argument="validity assumed; no general check available (paper Sec. 6)",
        )

    def soundness_argument(self) -> str:
        """Textual argument for ``valid(H) ==> sound(P)``; override per app."""
        return ""

    def is_probabilistically_sound(self) -> bool:
        """Whether the guarantee is probabilistic (GameTime) or exact."""
        return False

    def confidence(self) -> float | None:
        """The probability bound for probabilistic soundness, if any."""
        return None

    def certificate(self) -> SoundnessCertificate:
        """Build the conditional-soundness certificate for this procedure."""
        return SoundnessCertificate(
            procedure_name=self.name,
            hypothesis_evidence=self.hypothesis_evidence(),
            soundness_argument=self.soundness_argument(),
            probabilistic=self.is_probabilistically_sound(),
            confidence=self.confidence(),
        )

    # -- execution -------------------------------------------------------

    @abstractmethod
    def _run(self, **kwargs: Any) -> SciductionResult[ArtifactT]:
        """Perform the procedure; implemented by applications."""

    def run(self, **kwargs: Any) -> SciductionResult[ArtifactT]:
        """Run the procedure, attach timing and the soundness certificate."""
        start = time.perf_counter()  # analysis: allow[WC01] elapsed-time accounting for the result record; not a decision input
        result = self._run(**kwargs)
        result.elapsed = time.perf_counter() - start  # analysis: allow[WC01] elapsed-time accounting for the result record; not a decision input
        if result.certificate is None:
            result.certificate = self.certificate()
        return result

    # -- reporting -------------------------------------------------------

    @abstractmethod
    def describe(self) -> dict[str, str]:
        """Return the ⟨H, I, D⟩ description of this procedure (Table 1 row).

        Keys: ``procedure``, ``H``, ``I`` and ``D``.
        """
