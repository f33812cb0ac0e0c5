#!/usr/bin/env python3
"""GameTime-style timing analysis of modular exponentiation (paper Fig. 6).

Reproduces the paper's Section 3.3 experiment end to end:

* the task is square-and-multiply modular exponentiation with an 8-bit
  exponent (256 program paths, 9 basis paths);
* the platform is the package's cycle-level simulator (in-order pipeline,
  split caches) standing in for the SimIt-ARM / StrongARM-1100 testbed;
* GameTime measures only the 9 basis paths, learns the (w, π) model, then
  predicts the execution time of every one of the 256 paths;
* the script prints the predicted-vs-measured histogram (the textual form
  of Figure 6), the WCET prediction and its witness test case, and the
  answer to a ⟨TA⟩ query, and compares against a random-testing baseline
  with the same measurement budget.

Run with::

    python examples/timing_analysis.py            # 8-bit exponent (paper)
    python examples/timing_analysis.py --bits 6   # smaller, faster variant
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.api import SciductionEngine, TimingAnalysisProblem
from repro.gametime import ExhaustiveEstimator, RandomTestingEstimator


def render_histogram(rows, bar_width: int = 40) -> None:
    """Print the predicted/measured histogram as side-by-side bars."""
    peak = max((max(predicted, measured) for _, predicted, measured in rows), default=1)
    print(f"  {'cycles':>8s}  {'predicted':<{bar_width}s}  measured")
    for start, predicted, measured in rows:
        if predicted == 0 and measured == 0:
            continue
        predicted_bar = "#" * round(bar_width * predicted / peak)
        measured_bar = "#" * round(bar_width * measured / peak)
        print(f"  {start:>8d}  {predicted_bar:<{bar_width}s}  {measured_bar}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bits", type=int, default=8,
                        help="number of exponent bits (8 reproduces the paper)")
    parser.add_argument("--trials", type=int, default=None,
                        help="measurement budget (default: 3x basis paths)")
    parser.add_argument("--bound", type=int, default=None,
                        help="cycle bound for the <TA> query (default: WCET-1)")
    args = parser.parse_args()

    # The declarative spec is the single source of truth for the problem;
    # `build()` hands back the rich GameTime object for in-process
    # exploration (distribution plots, baselines), while the same spec can
    # be submitted to a SciductionEngine for the <TA> decision problem.
    problem = TimingAnalysisProblem(
        program="modular_exponentiation",
        program_args={"exponent_bits": args.bits, "word_width": 16},
        trials=args.trials,
        seed=0,
    )
    analysis = problem.build()
    analysis.prepare()
    task = analysis.program

    print(f"task                     : {task.name} ({args.bits}-bit exponent)")
    print(f"program paths            : {analysis.cfg.count_paths()}")
    print(f"feasible basis paths     : {analysis.num_basis_paths}")
    print(f"end-to-end measurements  : {analysis.timing_oracle.query_count}")
    print()

    print("Predicted vs measured execution-time distribution (Figure 6):")
    report = analysis.predict_distribution(measure=True)
    render_histogram(report.histogram(bin_width=10))
    print(f"  paths predicted          : {len(report.predictions)}")
    print(f"  max |pred - meas| cycles : {report.max_absolute_error:.2f}")
    print(f"  mean |pred - meas| cycles: {report.mean_absolute_error:.2f}")
    print()

    estimate = analysis.estimate_wcet()
    truth = ExhaustiveEstimator(task).estimate()
    print("Worst-case execution time:")
    print(f"  GameTime prediction      : {float(estimate.predicted_cycles):.1f} cycles")
    print(f"  measured on its test case: {estimate.measured_cycles} cycles")
    print(f"  test case                : {estimate.test_case}")
    print(f"  exhaustive ground truth  : {truth.estimated_wcet} cycles "
          f"({truth.measurements} measurements)")
    budget = analysis.timing_oracle.query_count
    random_baseline = RandomTestingEstimator(task, seed=1).estimate(budget=budget)
    print(f"  random testing (same budget of {budget} runs): "
          f"{random_baseline.estimated_wcet} cycles")
    print()

    # The <TA> decision problem goes through the unified engine: the same
    # spec with a bound yields a verdict plus a soundness certificate.
    bound = args.bound if args.bound is not None else estimate.measured_cycles - 1
    engine = SciductionEngine()
    ta_result = engine.run(replace(problem, bound=bound))
    verdict = "YES (always within bound)" if ta_result.verdict else "NO"
    print(f"<TA> query: is execution time always <= {bound} cycles?  -> {verdict}")
    if not ta_result.verdict:
        print(f"  witness test case: {ta_result.details['wcet_test_case']} "
              f"({ta_result.details['wcet_measured']} cycles)")
    print(f"  certificate: {ta_result.certificate.statement()}")


if __name__ == "__main__":
    main()
