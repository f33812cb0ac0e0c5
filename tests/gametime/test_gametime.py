"""Tests for the GameTime timing-analysis application (paper Section 3)."""

import numpy as np
import pytest

from repro.cfg import build_cfg, conditional_cascade, modular_exponentiation, saturating_add
from repro.cfg.basis import extract_basis_paths
from repro.cfg.paths import enumerate_paths
from repro.gametime import (
    ExhaustiveEstimator,
    GameTime,
    GameTimeLearner,
    RandomTestingEstimator,
    WeightPerturbationHypothesis,
    WeightPerturbationModel,
)
from repro.platform import MeasurementHarness, PerturbationModel, TimingOracle


@pytest.fixture(scope="module")
def modexp_gametime():
    """A prepared GameTime instance on a 5-bit modexp (32 paths, 6 basis)."""
    analysis = GameTime(modular_exponentiation(5, 16), trials=18, seed=7)
    analysis.prepare()
    return analysis


class TestModel:
    def test_prediction_is_linear_in_edges(self):
        weights = np.array([1.0, 2.0, 3.0])
        model = WeightPerturbationModel(edge_weights=weights)
        from repro.cfg.paths import Path

        path = Path(edges=(0, 2), nodes=(0, 1, 2))
        assert model.predict_path_time(path) == pytest.approx(4.0)
        assert model.predict_vector_time(np.array([1, 1, 1])) == pytest.approx(6.0)

    def test_hypothesis_membership(self):
        hypothesis = WeightPerturbationHypothesis(num_edges=3, mu_max=5.0, rho=1.0)
        inside = WeightPerturbationModel(
            edge_weights=np.zeros(3), mu_max=5.0, rho=1.0
        )
        wrong_size = WeightPerturbationModel(edge_weights=np.zeros(4), mu_max=5.0, rho=1.0)
        too_noisy = WeightPerturbationModel(edge_weights=np.zeros(3), mu_max=9.0, rho=1.0)
        assert hypothesis.contains(inside)
        assert not hypothesis.contains(wrong_size)
        assert not hypothesis.contains(too_noisy)
        assert hypothesis.is_strict_restriction() is True


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
        for vector, measured in zip(model.basis_vectors, model.basis_times):
            assert model.predict_vector_time(vector) == pytest.approx(measured, abs=1e-6)

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
