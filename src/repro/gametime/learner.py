"""Game-theoretic online learning of the (w, pi) timing model.

The inductive engine of GameTime (paper Table 1: "game-theoretic online
learning"): basis paths are executed in a randomised order over a number
of trials; per-basis-path averages smooth out the adversarial perturbation
pi; and the path-independent weight vector ``w`` is recovered from the
averaged basis measurements as the least-norm solution of the
(under-determined) linear system ``B w = t``, where ``B`` stacks the basis
path vectors.  Any path's predicted time is then ``x . w`` — equivalently,
the combination of basis-path times given by the path's expansion in the
basis, which is the form used in the paper's exposition.  The fit is
exact, so each basis path's prediction equals its average.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from repro.core.exceptions import InductionError
from repro.core.oracle import LabelingOracle
from repro.cfg.ssa import FeasiblePath
from repro.gametime.model import WeightPerturbationHypothesis, WeightPerturbationModel


@dataclass
class BasisMeasurements:
    """Raw measurements gathered for each basis path.

    Attributes:
        samples: ``samples[i]`` is the list of cycle counts observed for
            basis path ``i``.
    """

    samples: list[list[int]] = field(default_factory=list)

    def averages(self) -> list[Fraction]:
        """Per-basis-path mean execution time, exactly."""
        result = []
        for index, values in enumerate(self.samples):
            if not values:
                raise InductionError(f"basis path {index} was never measured")
            result.append(Fraction(sum(values), len(values)))
        return result


class GameTimeLearner:
    """Learns a :class:`WeightPerturbationModel` from end-to-end measurements.

    Args:
        hypothesis: the weight-perturbation structure hypothesis.
        basis: feasible basis paths with their test cases (from
            :func:`repro.cfg.basis.extract_basis_paths`).
        num_edges: number of CFG edges (dimension of ``w``).
        timing_oracle: labels a test case with its measured cycle count.
        trials: total number of measurements; basis paths are chosen
            uniformly at random per trial (each path is additionally
            guaranteed at least one measurement).
        seed: RNG seed for the randomised measurement schedule.
    """

    def __init__(
        self,
        hypothesis: WeightPerturbationHypothesis,
        basis: Sequence[FeasiblePath],
        num_edges: int,
        timing_oracle: LabelingOracle[dict[str, int], int],
        trials: int | None = None,
        seed: int = 0,
    ):
        self.hypothesis = hypothesis
        if not basis:
            raise InductionError("at least one basis path is required")
        self.basis = list(basis)
        self.num_edges = num_edges
        self.timing_oracle = timing_oracle
        self.trials = trials if trials is not None else 3 * len(basis)
        if self.trials < len(basis):
            raise InductionError(
                "the number of trials must be at least the number of basis paths"
            )
        self._rng = random.Random(seed)
        self.measurements = BasisMeasurements(samples=[[] for _ in basis])

    # -- measurement schedule ----------------------------------------------

    def collect_measurements(self) -> BasisMeasurements:
        """Run the randomised measurement schedule against the oracle.

        Every basis path is measured at least once; remaining trials pick
        basis paths uniformly at random (the online game of the paper).
        """
        order = list(range(len(self.basis)))
        self._rng.shuffle(order)
        schedule = order + [
            self._rng.randrange(len(self.basis))
            for _ in range(self.trials - len(self.basis))
        ]
        for index in schedule:
            cycles = self.timing_oracle.label(self.basis[index].test_case)
            self.measurements.samples[index].append(cycles)
        return self.measurements

    # -- inference ------------------------------------------------------------

    def infer(self) -> WeightPerturbationModel:
        """Fit the weight vector ``w`` from the collected measurements.

        ``w`` is the Moore–Penrose (least-norm) solution of ``B w = t``
        (``B``: basis vectors stacked row-wise, ``t``: averaged basis
        times), which also fixes the predictions of paths outside the
        span of an incomplete basis.
        """
        if not any(self.measurements.samples):
            self.collect_measurements()
        weights, denominator = least_norm_weights(
            [item.path.edges for item in self.basis],
            self.measurements.averages(),
            self.num_edges,
        )
        return WeightPerturbationModel(
            weights=weights,
            denominator=denominator,
            mu_max=self.hypothesis.mu_max,
            rho=self.hypothesis.rho,
        )


def least_norm_weights(
    paths: Sequence[Sequence[int]], times: Sequence[Fraction], num_edges: int
) -> tuple[tuple[int, ...], int]:
    """Exact ``w = B^T (B B^T)^-1 t``, as ``(numerators, denominator)``.

    ``paths[i]`` lists the edges of path ``i``.  ``B B^T`` is the integer
    Gram matrix ``|edges_i & edges_j|``, positive definite for independent
    paths, so fraction-free (Bareiss) elimination needs no pivoting and
    its last pivot is the determinant.  With ``t`` scaled by the lcm of
    its denominators, ``det * y`` is integral (Cramer's rule) and every
    division is exact.  Raises :class:`InductionError` on dependent paths.
    """
    scale = math.lcm(*(time.denominator for time in times))
    edge_sets = [frozenset(edges) for edges in paths]
    size = len(edge_sets)
    rows = [
        [len(edges & other) for other in edge_sets] + [int(time * scale)]
        for edges, time in zip(edge_sets, times)
    ]
    previous = 1
    for k in range(size):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise InductionError("the basis paths are linearly dependent")
        for i in range(k + 1, size):
            row = rows[i]
            factor = row[k]
            for j in range(k + 1, size + 1):
                row[j] = (pivot * row[j] - factor * pivot_row[j]) // previous
        previous = pivot
    determinant = previous
    solution = [0] * size  # det * y
    for k in reversed(range(size)):
        row = rows[k]
        rest = sum(row[j] * solution[j] for j in range(k + 1, size))
        solution[k] = (determinant * row[size] - rest) // row[k]
    numerators = [0] * num_edges
    for edges, value in zip(edge_sets, solution):
        for edge in edges:
            numerators[edge] += value
    denominator = determinant * scale
    divisor = math.gcd(denominator, *numerators)
    return tuple(value // divisor for value in numerators), denominator // divisor
