#!/usr/bin/env python3
"""Porting GameTime to a new platform and a new task.

The paper emphasises that GameTime is *program-specific* and needs only
end-to-end measurements, which makes it easy to port to new platforms.
This example demonstrates exactly that: it defines

* a custom task in the task language (a bounded linear search whose timing
  depends on where — and whether — the needle occurs), and
* two different platform configurations (a small direct-mapped cache with
  a harsh miss penalty vs. a larger associative cache),

and shows how the learned (w, π) model, the predicted WCET and the
worst-case test case change with the platform, without touching the
analysis code.  A noisy measurement run (bounded perturbation, exercising
the π component of the structure hypothesis) is included as well.

Run with::

    python examples/custom_platform_wcet.py
"""

from __future__ import annotations

from repro.cfg import bounded_linear_search
from repro.gametime import GameTime
from repro.platform import CacheConfig, PerturbationModel, PipelineConfig, PlatformConfig


def make_platforms() -> dict[str, PlatformConfig]:
    """Two platform variants with different memory systems."""
    harsh = PlatformConfig(
        data_cache=CacheConfig(line_size_words=1, num_sets=2, associativity=1,
                               hit_latency=1, miss_penalty=40),
        instruction_cache=CacheConfig(line_size_words=2, num_sets=8, associativity=1,
                                      hit_latency=0, miss_penalty=20),
        pipeline=PipelineConfig(multiply_extra=6, taken_branch_penalty=3),
    )
    friendly = PlatformConfig(
        data_cache=CacheConfig(line_size_words=4, num_sets=32, associativity=4,
                               hit_latency=0, miss_penalty=6),
        instruction_cache=CacheConfig(line_size_words=8, num_sets=64, associativity=2,
                                      hit_latency=0, miss_penalty=4),
        pipeline=PipelineConfig(multiply_extra=2, taken_branch_penalty=1),
    )
    return {"harsh-memory": harsh, "friendly-memory": friendly}


def analyse(platform_name: str, platform: PlatformConfig) -> None:
    task = bounded_linear_search(length=4, word_width=16)
    analysis = GameTime(task, platform=platform, trials=None, seed=0)
    analysis.prepare()
    estimate = analysis.estimate_wcet()
    print(f"--- platform: {platform_name} ---")
    print(f"  task                   : {task.name}")
    print(f"  paths / basis paths    : {analysis.cfg.count_paths()} / "
          f"{analysis.num_basis_paths}")
    print(f"  predicted WCET         : {float(estimate.predicted_cycles):.1f} cycles")
    print(f"  measured on test case  : {estimate.measured_cycles} cycles")
    print(f"  worst-case test case   : {estimate.test_case}")
    report = analysis.predict_distribution(measure=True)
    print(f"  prediction error (mean): {report.mean_absolute_error:.2f} cycles "
          f"over {len(report.predictions)} feasible paths")
    print()


def noisy_run() -> None:
    """The same analysis with bounded measurement noise (the π component)."""
    task = bounded_linear_search(length=4, word_width=16)
    analysis = GameTime(
        task,
        perturbation=PerturbationModel(mean=8.0, seed=3),
        trials=60,
        mu_max=8.0,
        seed=3,
    )
    analysis.prepare()
    report = analysis.predict_distribution(measure=True)
    print("--- noisy platform (mean perturbation 8 cycles, 60 trials) ---")
    print(f"  mean |prediction error|: {report.mean_absolute_error:.2f} cycles")
    print(f"  max  |prediction error|: {report.max_absolute_error:.2f} cycles")
    print("  (errors stay within a few multiples of the perturbation bound,")
    print("   as the probabilistic-soundness argument of Section 3.3 predicts)")


def main() -> None:
    for name, platform in make_platforms().items():
        analyse(name, platform)
    noisy_run()


if __name__ == "__main__":
    main()
