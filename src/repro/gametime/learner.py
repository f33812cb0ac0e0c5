"""Game-theoretic online learning of the (w, pi) timing model.

The inductive engine of GameTime (paper Table 1: "game-theoretic online
learning"): basis paths are executed in a randomised order over a number
of trials; per-basis-path averages smooth out the adversarial perturbation
pi; and the path-independent weight vector ``w`` is recovered from the
averaged basis measurements by solving the (under-determined) linear
system ``B w = t`` in the least-norm sense, where ``B`` stacks the basis
path vectors.  Any path's predicted time is then ``x . w`` — equivalently,
the combination of basis-path times given by the path's expansion in the
basis, which is the form used in the paper's exposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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

    def averages(self) -> list[float]:
        """Per-basis-path mean execution time."""
        result = []
        for index, values in enumerate(self.samples):
            if not values:
                raise InductionError(f"basis path {index} was never measured")
            result.append(sum(values) / len(values))
        return result

    def total_measurements(self) -> int:
        """Total number of platform runs recorded."""
        return sum(len(values) for values in self.samples)


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

        The linear system ``B w = t`` (``B``: basis vectors stacked row-wise,
        ``t``: averaged basis times) is solved in the least-norm /
        least-squares sense via the Moore–Penrose pseudo-inverse; the
        resulting ``w`` reproduces the basis measurements exactly (up to
        noise) and extends linearly to every other path.
        """
        if self.measurements.total_measurements() == 0:
            self.collect_measurements()
        averages = self.measurements.averages()
        matrix = np.stack(
            [item.path.vector(self.num_edges) for item in self.basis], axis=0
        )
        weights, _, _, _ = np.linalg.lstsq(matrix, np.asarray(averages), rcond=None)
        return WeightPerturbationModel(
            edge_weights=weights,
            mu_max=self.hypothesis.mu_max,
            rho=self.hypothesis.rho,
            basis_vectors=[item.path.vector(self.num_edges) for item in self.basis],
            basis_times=averages,
        )
