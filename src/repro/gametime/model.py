"""The weight–perturbation platform model (GameTime's structure hypothesis).

Paper Section 3.2: the platform is modelled as an adversarial process that,
on every run, selects a pair ``(w, pi)`` of vectors in ``R^m`` (one entry
per CFG edge).  ``w`` — the *weight* — is path independent; ``pi`` — the
*perturbation* — may depend on the path but has mean bounded by ``mu_max``
along any path, and (for worst-case analysis) the worst-case path is the
unique longest path by a margin ``rho``.  The execution time of a run
along path ``x`` is ``x . (w + pi)``.

This module provides:

* :class:`WeightPerturbationModel` — a learned ``w`` held exactly (plus the
  hypothesis parameters), able to predict the time of any path and to
  find the predicted worst-case path;
* :class:`WeightPerturbationHypothesis` — the corresponding
  :class:`~repro.core.hypothesis.StructureHypothesis`, used in the
  procedure's soundness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core.hypothesis import StructureHypothesis
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.paths import Path


@dataclass
class WeightPerturbationModel:
    """A learned program-specific timing model of the platform.

    Attributes:
        weights: numerators of the estimated path-independent weight
            vector ``w`` (one entry per CFG edge); edge ``e`` weighs
            ``weights[e] / denominator`` cycles.
        denominator: the positive common denominator of ``weights``.
        mu_max: assumed bound on the mean perturbation along any path.
        rho: assumed margin by which the worst-case path is the unique
            longest path (worst-case analysis only).
    """

    weights: tuple[int, ...]
    denominator: int = 1
    mu_max: float = 0.0
    rho: float = 0.0

    @property
    def num_edges(self) -> int:
        """Number of CFG edges the model covers."""
        return len(self.weights)

    def predict_path_time(self, path: Path) -> Fraction:
        """Predicted execution time of ``path`` (cycles), exactly."""
        return Fraction(sum(self.weights[e] for e in path.edges), self.denominator)

    def longest_path(self, cfg: ControlFlowGraph) -> tuple[Fraction, list[int]]:
        """Predicted worst-case path of ``cfg`` under the learned weights.

        Returns:
            ``(predicted_time, edge_indices)``.
        """
        total, edges = cfg.extremal_path(self.weights, longest=True)
        return Fraction(total, self.denominator), edges


class WeightPerturbationHypothesis(StructureHypothesis[WeightPerturbationModel]):
    """Structure hypothesis H of the GameTime procedure.

    The class ``C_H`` consists of environment models in which execution
    time decomposes as ``x . (w + pi)`` with path-independent ``w``, mean
    perturbation bounded by ``mu_max`` on every path, and (for worst-case
    analysis) a unique longest path by margin ``rho``.  Membership of a
    concrete learned model is a bound check on its recorded parameters;
    validity of the hypothesis for a given *platform* cannot be decided in
    general (paper Section 6) and is recorded as an assumption in the
    soundness certificate.
    """

    name = "weight-perturbation-model"

    def __init__(self, num_edges: int, mu_max: float, rho: float = 0.0):
        self.num_edges = num_edges
        self.mu_max = mu_max
        self.rho = rho

    def contains(self, artifact: WeightPerturbationModel) -> bool:
        return (
            artifact.num_edges == self.num_edges
            and artifact.mu_max <= self.mu_max + 1e-9
            and artifact.rho >= self.rho - 1e-9
        )

    def is_strict_restriction(self) -> bool | None:
        # The unconstrained environment class allows arbitrary path-dependent
        # timing; requiring a path-independent w plus bounded-mean
        # perturbation is a strict restriction.
        return True

    def describe(self) -> str:
        return (
            f"(w, pi) model over {self.num_edges} edges, "
            f"mean perturbation <= {self.mu_max}, margin rho = {self.rho}"
        )
