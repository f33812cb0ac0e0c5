"""Experiment E1/E2 — paper Figure 6 and the Section 3.3 WCET claim.

GameTime analyses modular exponentiation with an 8-bit exponent: 256
program paths, 9 feasible basis paths.  Only the basis paths are measured;
the (w, π) model then predicts the execution time of every path.  The
benchmark regenerates the predicted-vs-measured distribution (Figure 6 as
a histogram table) and checks the WCET claim: the predicted worst-case
path is the true worst case and its test case sets every exponent bit
(the analogue of "the 8-bit exponent is 255").
"""

from __future__ import annotations

from conftest import print_table, run_once

from repro.cfg import modular_exponentiation
from repro.gametime import ExhaustiveEstimator, GameTime, RandomTestingEstimator

EXPONENT_BITS = 8


def _figure6_experiment():
    task = modular_exponentiation(exponent_bits=EXPONENT_BITS, word_width=16)
    analysis = GameTime(task, trials=None, seed=0)
    analysis.prepare()
    report = analysis.predict_distribution(measure=True)
    estimate = analysis.estimate_wcet()
    truth = ExhaustiveEstimator(task).estimate()
    budget = analysis.timing_oracle.query_count
    random_baseline = RandomTestingEstimator(task, seed=1).estimate(budget=budget)
    return analysis, report, estimate, truth, random_baseline


def test_fig6_distribution_and_wcet(benchmark):
    analysis, report, estimate, truth, random_baseline = run_once(
        benchmark, _figure6_experiment
    )

    # --- Figure 6: predicted vs measured distribution ---------------------
    rows = [
        [f"{start}", str(predicted), str(measured)]
        for start, predicted, measured in report.histogram(bin_width=10)
        if predicted or measured
    ]
    print_table(
        "Figure 6 — execution-time distribution of modexp "
        f"({2 ** EXPONENT_BITS} paths from {analysis.num_basis_paths} basis paths)",
        ["cycles (bin start)", "predicted paths", "measured paths"],
        rows,
    )
    print_table(
        "Figure 6 / Section 3.3 — WCET",
        ["quantity", "value"],
        [
            ["paths", str(analysis.cfg.count_paths())],
            ["basis paths measured", str(analysis.num_basis_paths)],
            ["measurements used", str(analysis.timing_oracle.query_count)],
            ["mean |pred - meas| (cycles)", f"{report.mean_absolute_error:.3f}"],
            ["max |pred - meas| (cycles)", f"{report.max_absolute_error:.3f}"],
            ["predicted WCET (cycles)", f"{float(estimate.predicted_cycles):.1f}"],
            ["measured WCET on witness", str(estimate.measured_cycles)],
            ["exhaustive true WCET", str(truth.estimated_wcet)],
            ["WCET witness exponent", str(estimate.test_case["exponent"])],
            ["random testing, equal budget", str(random_baseline.estimated_wcet)],
        ],
    )

    # --- reproduction checks ------------------------------------------------
    assert analysis.num_basis_paths == EXPONENT_BITS + 1 == 9
    assert len(report.predictions) == 2 ** EXPONENT_BITS
    # "GameTime predicts the distribution perfectly" on the deterministic
    # platform: predictions match measurements path by path.
    assert report.max_absolute_error < 1.0
    # The WCET claim: predicted worst case equals the exhaustive ground
    # truth and its witness sets all exponent bits (255 in the paper).
    assert estimate.measured_cycles == truth.estimated_wcet
    assert estimate.test_case["exponent"] == 2 ** EXPONENT_BITS - 1

    benchmark.extra_info.update(
        {
            "paths": analysis.cfg.count_paths(),
            "basis_paths": analysis.num_basis_paths,
            "max_abs_error_cycles": report.max_absolute_error,
            "wcet_cycles": estimate.measured_cycles,
            "wcet_exponent": estimate.test_case["exponent"],
            "random_testing_wcet": random_baseline.estimated_wcet,
        }
    )
