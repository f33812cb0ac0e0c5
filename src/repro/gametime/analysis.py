"""GameTime: sciductive timing analysis of software (paper Section 3).

This module ties the pieces together into the procedure depicted in the
paper's Figure 5:

1. build the unrolled CFG of the task (:mod:`repro.cfg`),
2. extract feasible basis paths and their test cases with the SMT solver
   (the deductive engine),
3. compile the task for the platform and measure the basis-path test cases
   end-to-end in a randomised order (the inductive engine's examples),
4. learn the weight–perturbation model ``(w, pi)``,
5. use the model to predict the worst-case path, per-path execution times,
   and the distribution of execution times; answer the timing-analysis
   decision problem ⟨TA⟩ ("is the execution time always at most tau?")
   with a test case when the answer is NO.

The procedure is conditionally, probabilistically sound: if the structure
hypothesis holds (and enough trials are run), the answer to ⟨TA⟩ is
correct with probability at least ``1 - delta`` (paper Section 3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.core.exceptions import BudgetExceededError, ReproError
from repro.core.hypothesis import HypothesisValidityEvidence
from repro.core.procedure import SciductionProcedure, SciductionResult
from repro.cfg.basis import BasisExtractionResult, extract_basis_paths
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.lang import Program
from repro.cfg.paths import Path, enumerate_paths, path_from_edges
from repro.cfg.ssa import PathConstraintBuilder
from repro.gametime.learner import GameTimeLearner
from repro.gametime.model import WeightPerturbationHypothesis, WeightPerturbationModel
from repro.platform.compiler import compile_program
from repro.platform.measurement import MeasurementHarness, PerturbationModel, TimingOracle
from repro.platform.processor import PlatformConfig


@dataclass
class PathPrediction:
    """Predicted (exact) and (optionally) measured time of one program path."""

    path: Path
    predicted: Fraction
    measured: int | None = None
    test_case: dict[str, int] | None = None

    @property
    def error(self) -> Fraction | None:
        """Absolute prediction error, when a measurement is available."""
        if self.measured is None:
            return None
        return abs(self.predicted - self.measured)


@dataclass
class WcetEstimate:
    """Result of worst-case execution time estimation.

    Attributes:
        predicted_cycles: model-predicted (exact) time of the WCET path.
        measured_cycles: measured time of that path's test case.
        path: the predicted worst-case path.
        test_case: input valuation driving execution down that path.
    """

    predicted_cycles: Fraction
    measured_cycles: int
    path: Path
    test_case: dict[str, int]


@dataclass
class TimingAnalysisAnswer:
    """Answer to the decision problem ⟨TA⟩ of paper Section 3.1."""

    bound: int
    within_bound: bool
    witness: WcetEstimate


@dataclass
class DistributionReport:
    """Predicted vs. measured execution-time distribution (paper Fig. 6)."""

    predictions: list[PathPrediction] = field(default_factory=list)

    @property
    def max_absolute_error(self) -> float:
        """Largest |predicted - measured| over all paths."""
        errors = [p.error for p in self.predictions if p.error is not None]
        return float(max(errors)) if errors else float("nan")

    @property
    def mean_absolute_error(self) -> float:
        """Mean |predicted - measured| over all paths."""
        errors = [p.error for p in self.predictions if p.error is not None]
        return float(sum(errors) / len(errors)) if errors else float("nan")

    def histogram(self, bin_width: int = 20) -> list[tuple[int, int, int]]:
        """Histogram rows ``(bin_start, predicted_count, measured_count)``.

        This is the tabular form of the paper's Figure 6 bar chart.
        """
        if not self.predictions:
            return []
        values = [p.predicted for p in self.predictions] + [
            p.measured for p in self.predictions if p.measured is not None
        ]
        low = math.floor(min(values) / bin_width) * bin_width
        high = math.ceil(max(values) / bin_width) * bin_width
        rows = []
        for start in range(low, high + 1, bin_width):
            end = start + bin_width
            predicted_count = sum(
                1 for p in self.predictions if start <= p.predicted < end
            )
            measured_count = sum(
                1
                for p in self.predictions
                if p.measured is not None and start <= p.measured < end
            )
            rows.append((start, predicted_count, measured_count))
        return rows


class GameTime(SciductionProcedure[WeightPerturbationModel]):
    """The GameTime timing-analysis procedure ⟨H, I, D⟩.

    Args:
        program: the task to analyse.
        platform: platform configuration (defaults to the package's
            StrongARM-like core).
        start_state: environment starting state for every measurement
            (``"cold"`` by default, as in the paper's experiments).
        perturbation: optional measurement-noise model (exercises the
            perturbation component of the structure hypothesis).
        trials: number of end-to-end measurements used for learning
            (defaults to ``3 * #basis_paths``).
        mu_max: assumed bound on the mean perturbation.
        rho: assumed worst-case-path margin.
        seed: RNG seed for the measurement schedule.
        config: an :class:`~repro.api.config.EngineConfig` carrying all
            solver flags; the preferred entry point is
            :class:`repro.api.SciductionEngine` with a
            :class:`~repro.api.problems.TimingAnalysisProblem`.
        lease: the pooled :class:`~repro.api.pool.SolverLease` for the
            feasibility queries, or None for a private solver.  On a
            lease the path-constraint builder keeps a fingerprinted
            per-CFG base scope alive across jobs (memoized feasibility
            verdicts on repeated analyses; see
            :class:`~repro.cfg.ssa.PathConstraintBuilder`).
    """

    name = "gametime"

    def __init__(
        self,
        program: Program,
        platform: PlatformConfig | None = None,
        start_state: str = "cold",
        perturbation: PerturbationModel | None = None,
        trials: int | None = None,
        mu_max: float = 0.0,
        rho: float = 0.0,
        seed: int = 0,
        config=None,
        lease=None,
    ):
        self.program = program
        self.cfg: ControlFlowGraph = build_cfg(program)
        self.constraint_builder = PathConstraintBuilder(
            self.cfg, config=config, lease=lease
        )
        self.binary = compile_program(program)
        self.harness = MeasurementHarness(
            self.binary,
            platform=platform,
            start_state=start_state,  # type: ignore[arg-type]
            perturbation=perturbation,
        )
        self.timing_oracle = TimingOracle(self.harness)
        hypothesis = WeightPerturbationHypothesis(
            num_edges=self.cfg.num_edges, mu_max=mu_max, rho=rho
        )
        self._trials = trials
        self._seed = seed
        self.basis_result: BasisExtractionResult | None = None
        self.model: WeightPerturbationModel | None = None
        self.learner: GameTimeLearner | None = None
        super().__init__(hypothesis=hypothesis)

    # -- soundness ------------------------------------------------------------

    def hypothesis_evidence(self) -> HypothesisValidityEvidence:
        evidence = HypothesisValidityEvidence(
            hypothesis_name=self.hypothesis.name,
            proved=False,
            argument=(
                "platform timing assumed to decompose as x.(w + pi) with "
                "path-independent w and bounded-mean perturbation"
            ),
        )
        if self.model is not None and self.basis_result is not None:
            evidence.checked_instances = len(self.basis_result.basis)
            evidence.add_note(
                "basis-path measurements are reproduced exactly by the fitted w"
            )
        return evidence

    def soundness_argument(self) -> str:
        return (
            "if the (w, pi) hypothesis holds, averaging randomized basis-path "
            "measurements estimates x.w for every path within the perturbation "
            "bound, so the predicted longest path is the true worst case with "
            "probability >= 1 - delta (paper Sec. 3.3)"
        )

    def is_probabilistically_sound(self) -> bool:
        return True

    def confidence(self) -> float | None:
        # The paper's bound: polynomial trials in ln(1/delta); we report the
        # conventional 0.95 used by the experiments when noise is enabled,
        # and 1.0 in the deterministic (mu_max = 0) setting.
        hypothesis = self.hypothesis
        assert isinstance(hypothesis, WeightPerturbationHypothesis)
        return 1.0 if hypothesis.mu_max == 0 else 0.95

    # -- pipeline --------------------------------------------------------------

    def prepare(self) -> WeightPerturbationModel:
        """Run the front end and learn the timing model (idempotent)."""
        if self.model is not None:
            return self.model
        self.basis_result = extract_basis_paths(
            self.cfg, constraint_builder=self.constraint_builder
        )
        if not self.basis_result.basis:
            raise ReproError("no feasible basis paths were found")
        hypothesis = self.hypothesis
        assert isinstance(hypothesis, WeightPerturbationHypothesis)
        self.learner = GameTimeLearner(
            hypothesis=hypothesis,
            basis=self.basis_result.basis,
            num_edges=self.cfg.num_edges,
            timing_oracle=self.timing_oracle,
            trials=self._trials,
            seed=self._seed,
        )
        self.model = self.learner.infer()
        return self.model

    @property
    def num_basis_paths(self) -> int:
        """Number of feasible basis paths used (9 for the paper's modexp)."""
        self.prepare()
        assert self.basis_result is not None
        return len(self.basis_result.basis)

    # -- predictions -------------------------------------------------------------

    def predict_path(self, path: Path, measure: bool = False) -> PathPrediction:
        """Predict (and optionally measure) the execution time of ``path``."""
        model = self.prepare()
        prediction = PathPrediction(path=path, predicted=model.predict_path_time(path))
        if measure:
            feasible = self.constraint_builder.feasibility(path)
            if feasible is not None:
                prediction.test_case = feasible.test_case
                prediction.measured = self.harness.measure(feasible.test_case)
        return prediction

    def estimate_wcet(self) -> WcetEstimate:
        """Predict the worst-case path, confirm it with a measurement."""
        model = self.prepare()
        predicted_time, edges = model.longest_path(self.cfg)
        path = path_from_edges(self.cfg, edges)
        feasible = self.constraint_builder.feasibility(path)
        if feasible is None:
            # The structurally-longest path is infeasible; fall back to the
            # feasible path with the largest predicted time.
            best: PathPrediction | None = None
            for candidate in enumerate_paths(self.cfg):
                witness = self.constraint_builder.feasibility(candidate)
                if witness is None:
                    continue
                predicted = model.predict_path_time(candidate)
                if best is None or predicted > best.predicted:
                    best = PathPrediction(
                        path=candidate, predicted=predicted, test_case=witness.test_case
                    )
            if best is None or best.test_case is None:
                raise ReproError("no feasible path found for WCET estimation")
            path, predicted_time = best.path, best.predicted
            test_case = best.test_case
        else:
            test_case = feasible.test_case
        measured = self.harness.measure(test_case)
        return WcetEstimate(
            predicted_cycles=predicted_time,
            measured_cycles=measured,
            path=path,
            test_case=test_case,
        )

    def answer_timing_query(self, bound: int) -> TimingAnalysisAnswer:
        """Answer problem ⟨TA⟩: is the execution time always at most ``bound``?

        Returns YES (``within_bound=True``) when the measured time of the
        predicted worst-case path is within the bound; otherwise NO,
        together with the witnessing test case (paper Section 3.2).
        """
        estimate = self.estimate_wcet()
        return TimingAnalysisAnswer(
            bound=bound,
            within_bound=estimate.measured_cycles <= bound,
            witness=estimate,
        )

    def predict_distribution(
        self,
        measure: bool = True,
        max_paths: int = 4096,
    ) -> DistributionReport:
        """Predict the execution time of every feasible path (paper Fig. 6).

        Args:
            measure: when True, each path's test case is also executed so
                the predicted and measured distributions can be compared.
            max_paths: safety cap on the number of paths enumerated.

        Raises:
            BudgetExceededError: if the CFG has more than ``max_paths`` paths.
        """
        model = self.prepare()
        total = self.cfg.count_paths()
        if total > max_paths:
            raise BudgetExceededError(
                f"{total} paths exceed the enumeration cap of {max_paths}"
            )
        report = DistributionReport()
        for path in enumerate_paths(self.cfg):
            feasible = self.constraint_builder.feasibility(path)
            if feasible is None:
                continue
            prediction = PathPrediction(
                path=path,
                predicted=model.predict_path_time(path),
                test_case=feasible.test_case,
            )
            if measure:
                prediction.measured = self.harness.measure(feasible.test_case)
            report.predictions.append(prediction)
        return report

    # -- SciductionProcedure interface ----------------------------------------------

    def describe(self) -> dict[str, str]:
        return {
            "procedure": self.name,
            "H": self.hypothesis.describe(),
            "I": "game-theoretic online learning over basis paths",
            "D": "SMT (QF_BV) solving for basis-path feasibility / test generation",
        }

    def _run(
        self,
        bound: int | None = None,
        distribution: bool = False,
        max_paths: int = 4096,
        **_: object,
    ) -> SciductionResult[WeightPerturbationModel]:
        model = self.prepare()
        estimate = self.estimate_wcet()
        verdict = None
        if bound is not None:
            verdict = estimate.measured_cycles <= bound
        assert self.basis_result is not None
        # Predictions are exact fractions; the result wire carries floats.
        details = {
            "wcet_predicted": float(estimate.predicted_cycles),
            "wcet_measured": estimate.measured_cycles,
            "wcet_test_case": estimate.test_case,
            "num_basis_paths": len(self.basis_result.basis),
            "num_paths": self.cfg.count_paths(),
        }
        if distribution:
            # The all-paths prediction (paper Fig. 6), in deterministic
            # path-enumeration order.
            report = self.predict_distribution(measure=True, max_paths=max_paths)
            details["distribution"] = {
                "paths": [
                    {
                        "edges": list(prediction.path.edges),
                        "predicted": float(prediction.predicted),
                        "measured": prediction.measured,
                        "test_case": prediction.test_case,
                    }
                    for prediction in report.predictions
                ],
                "histogram": [list(row) for row in report.histogram()],
            }
        details["smt_variables_generated"] = (
            self.constraint_builder.smt_statistics.variables_generated
        )
        details["smt_clauses_generated"] = (
            self.constraint_builder.smt_statistics.clauses_generated
        )
        return SciductionResult(
            success=True,
            artifact=model,
            verdict=verdict,
            iterations=1,
            oracle_queries=self.timing_oracle.query_count,
            deductive_queries=self.constraint_builder.queries,
            details=details,
        )
