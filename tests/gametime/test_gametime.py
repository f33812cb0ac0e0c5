"""Tests for the GameTime timing-analysis application (paper Section 3)."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import numpy as np
import pytest

from repro.cfg import build_cfg, conditional_cascade, modular_exponentiation, saturating_add
from repro.cfg import programs
from repro.cfg.basis import extract_basis_paths
from repro.cfg.paths import Path, enumerate_paths
from repro.core import InductionError
from repro.gametime import (
    ExhaustiveEstimator,
    GameTime,
    GameTimeLearner,
    RandomTestingEstimator,
    WeightPerturbationHypothesis,
    WeightPerturbationModel,
)
from repro.gametime.learner import least_norm_weights
from repro.platform import MeasurementHarness, PerturbationModel, TimingOracle

REPO = FilePath(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))
from catalogue import GAMETIME_SHAPES  # noqa: E402


@pytest.fixture(scope="module")
def modexp_gametime():
    """A prepared GameTime instance on a 5-bit modexp (32 paths, 6 basis)."""
    analysis = GameTime(modular_exponentiation(5, 16), trials=18, seed=7)
    analysis.prepare()
    return analysis


class TestModel:
    def test_prediction_is_linear_in_edges(self):
        model = WeightPerturbationModel(weights=(1, 2, 3), denominator=2)
        path = Path(edges=(0, 2), nodes=(0, 1, 2))
        assert model.predict_path_time(path) == Fraction(2)

    def test_hypothesis_membership(self):
        hypothesis = WeightPerturbationHypothesis(num_edges=3, mu_max=5.0, rho=1.0)
        inside = WeightPerturbationModel(weights=(0, 0, 0), mu_max=5.0, rho=1.0)
        wrong_size = WeightPerturbationModel(weights=(0,) * 4, mu_max=5.0, rho=1.0)
        too_noisy = WeightPerturbationModel(weights=(0, 0, 0), mu_max=9.0, rho=1.0)
        assert hypothesis.contains(inside)
        assert not hypothesis.contains(wrong_size)
        assert not hypothesis.contains(too_noisy)
        assert hypothesis.is_strict_restriction() is True


def _lstsq_reference(basis, averages, num_edges):
    """The float least-norm fit the exact one replaces: ``np.linalg.lstsq``."""
    matrix = np.zeros((len(basis), num_edges))
    for row, feasible in enumerate(basis):
        matrix[row, list(feasible.path.edges)] = 1.0
    times = np.array([float(average) for average in averages])
    weights, _, _, _ = np.linalg.lstsq(matrix, times, rcond=None)
    return weights


#: The distinct programs of the ``gametime-sweep`` shape catalogue.
SWEEP_PROGRAMS = list(
    {repr((name, args)): (name, args) for name, args, _ in GAMETIME_SHAPES}.values()
)

#: (program label, width) -> the lstsq reference's worst path, for the
#: cases where it differs from the exact fit's only by an exact tie.
LSTSQ_TIES: dict = {}


class TestLearner:
    def test_learner_reproduces_basis_measurements(self):
        program = conditional_cascade(3)
        cfg = build_cfg(program)
        basis = extract_basis_paths(cfg)
        harness = MeasurementHarness.from_program(program)
        oracle = TimingOracle(harness)
        learner = GameTimeLearner(
            hypothesis=WeightPerturbationHypothesis(cfg.num_edges, mu_max=0.0),
            basis=basis.basis,
            num_edges=cfg.num_edges,
            timing_oracle=oracle,
            trials=12,
            seed=0,
        )
        model = learner.infer()
        averages = learner.measurements.averages()
        assert all(isinstance(average, Fraction) for average in averages)
        for feasible, measured in zip(learner.basis, averages, strict=True):
            assert model.predict_path_time(feasible.path) == measured

    def test_least_norm_fit_on_a_small_system(self):
        # Two paths sharing edge 2: x0 = (1, 0, 1), x1 = (0, 1, 1).  The
        # least-norm w of x0.w = 3, x1.w = 5/2 is B^T (B B^T)^-1 t with
        # B B^T = [[2, 1], [1, 2]]: y = (7/6, 2/3), w = (7/6, 2/3, 11/6).
        weights, denominator = least_norm_weights(
            [(0, 2), (1, 2)], [Fraction(3), Fraction(5, 2)], 3
        )
        assert (weights, denominator) == ((7, 4, 11), 6)

    def test_dependent_paths_are_rejected(self):
        with pytest.raises(InductionError):
            least_norm_weights([(0, 1), (0, 1)], [Fraction(1), Fraction(1)], 2)

    @pytest.mark.parametrize("width", [16, 23, 31])
    @pytest.mark.parametrize(
        "name,args",
        SWEEP_PROGRAMS,
        ids=[f"{name}{args}" for name, args in SWEEP_PROGRAMS],
    )
    def test_exact_fit_matches_lstsq_reference(self, name, args, width):
        analysis = GameTime(getattr(programs, name)(**args, word_width=width))
        model = analysis.prepare()
        learner = analysis.learner
        averages = learner.measurements.averages()
        reference = _lstsq_reference(learner.basis, averages, analysis.cfg.num_edges)
        exact = [Fraction(value, model.denominator) for value in model.weights]
        assert max(abs(float(w) - r) for w, r in zip(exact, reference)) < 1e-9
        for feasible, measured in zip(learner.basis, averages, strict=True):
            assert model.predict_path_time(feasible.path) == measured
        predicted, edges = model.longest_path(analysis.cfg)
        _, reference_edges = analysis.cfg.extremal_path(list(reference), longest=True)
        if reference_edges != edges:
            assert LSTSQ_TIES[f"{name}{args}", width] == reference_edges
            tied = Path(tuple(reference_edges), ())
            assert model.predict_path_time(tied) == predicted

    def test_timing_job_does_not_import_numpy(self):
        code = (
            "import sys\n"
            "from repro.api import SciductionEngine\n"
            "with SciductionEngine() as engine:\n"
            "    result = engine.run({'kind': 'timing-analysis',"
            " 'program': 'figure4_toy', 'program_args': {'word_width': 16},"
            " 'bound': 66})\n"
            "assert result.success, result\n"
            "assert 'numpy' not in sys.modules\n"
        )
        environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_every_basis_path_measured_at_least_once(self):
        program = conditional_cascade(3)
        cfg = build_cfg(program)
        basis = extract_basis_paths(cfg)
        oracle = TimingOracle(MeasurementHarness.from_program(program))
        learner = GameTimeLearner(
            hypothesis=WeightPerturbationHypothesis(cfg.num_edges, mu_max=0.0),
            basis=basis.basis,
            num_edges=cfg.num_edges,
            timing_oracle=oracle,
            trials=len(basis.basis),
            seed=3,
        )
        learner.collect_measurements()
        assert all(samples for samples in learner.measurements.samples)


class TestEndToEnd:
    def test_basis_path_count_matches_formula(self, modexp_gametime):
        assert modexp_gametime.num_basis_paths == 6

    def test_distribution_prediction_is_exact_on_deterministic_platform(
        self, modexp_gametime
    ):
        report = modexp_gametime.predict_distribution(measure=True)
        assert len(report.predictions) == 32
        assert report.max_absolute_error < 1.0

    def test_wcet_estimate_matches_exhaustive_ground_truth(self, modexp_gametime):
        estimate = modexp_gametime.estimate_wcet()
        truth = ExhaustiveEstimator(modular_exponentiation(5, 16)).estimate()
        assert estimate.measured_cycles == truth.estimated_wcet
        # The worst case sets every exponent bit (the paper's 255 analogue).
        assert estimate.test_case["exponent"] == (1 << 5) - 1

    def test_timing_query_answers(self, modexp_gametime):
        estimate = modexp_gametime.estimate_wcet()
        yes = modexp_gametime.answer_timing_query(estimate.measured_cycles + 10)
        no = modexp_gametime.answer_timing_query(estimate.measured_cycles - 10)
        assert yes.within_bound
        assert not no.within_bound
        assert no.witness.measured_cycles > no.bound

    def test_run_returns_sciduction_result(self):
        analysis = GameTime(conditional_cascade(3), trials=10, seed=1)
        result = analysis.run(bound=10_000)
        assert result.success
        assert result.verdict is True
        assert result.oracle_queries >= 10
        assert result.certificate is not None
        assert "weight-perturbation" in result.certificate.statement()

    def test_deductive_queries_counted(self):
        analysis = GameTime(conditional_cascade(3), trials=10, seed=1)
        result = analysis.run(bound=10_000)
        assert result.deductive_queries == analysis.constraint_builder.queries
        assert result.deductive_queries > 0

    def test_histogram_rows_cover_all_paths(self, modexp_gametime):
        report = modexp_gametime.predict_distribution(measure=True)
        rows = report.histogram(bin_width=10)
        assert sum(predicted for _, predicted, _ in rows) == len(report.predictions)
        assert sum(measured for _, _, measured in rows) == len(report.predictions)

    def test_describe_table1_row(self, modexp_gametime):
        description = modexp_gametime.describe()
        assert "basis" in description["I"] or "learning" in description["I"]
        assert "SMT" in description["D"]

    def test_prediction_under_noise_within_perturbation_bound(self):
        analysis = GameTime(
            conditional_cascade(3),
            perturbation=PerturbationModel(mean=5.0, seed=2),
            trials=40,
            mu_max=5.0,
            seed=2,
        )
        analysis.prepare()
        report = analysis.predict_distribution(measure=True)
        # Mean prediction error should stay within a few multiples of mu_max.
        assert report.mean_absolute_error < 4 * 5.0

    def test_path_prediction_with_measurement(self, modexp_gametime):
        path = next(enumerate_paths(modexp_gametime.cfg))
        prediction = modexp_gametime.predict_path(path, measure=True)
        assert prediction.measured is not None
        assert prediction.error is not None
        assert prediction.error < 1.0


class TestBaselines:
    def test_random_testing_underestimates_with_equal_budget(self):
        program = modular_exponentiation(6, 16)
        gametime = GameTime(program, trials=21, seed=11)
        gametime.prepare()
        wcet = gametime.estimate_wcet().measured_cycles
        random_result = RandomTestingEstimator(program, seed=13).estimate(budget=21)
        assert random_result.estimated_wcet <= wcet

    def test_exhaustive_estimator_counts_paths(self):
        program = conditional_cascade(3)
        result = ExhaustiveEstimator(program).estimate()
        assert result.measurements == 8
        assert result.estimated_wcet > 0

    def test_random_estimator_budget_validation(self):
        with pytest.raises(Exception):
            RandomTestingEstimator(saturating_add()).estimate(budget=0)
