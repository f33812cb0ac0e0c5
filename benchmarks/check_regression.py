#!/usr/bin/env python3
"""Perf-regression gate over ``BENCH_perf.json``.

Compares a freshly generated perf report (the *candidate*) against the
committed baseline and fails CI when anything the suite guards has
regressed:

* **hard checks** — every boolean in the baseline's ``checks`` block
  that was true must still be true (verdict parity, byte-identical
  parallel results, the clause-reduction floor, steal counter, the
  cross-worker memo hit, ...);
* **counts** — SAT clause/variable totals per workload and config, the
  batch stream's pooled/fresh encoding work, and workload verdict lists
  are compared **exactly**: the whole stack is deterministic, so any
  drift is a real encoding change.  Improvements fail too, on purpose —
  they mean the committed baseline is stale; regenerate it with
  ``python benchmarks/bench_perf_suite.py --output BENCH_perf.json`` and
  commit it with the change that moved the numbers;
* **wall ratios** — the pooled-vs-fresh wall-time ratio may drift with
  machine noise, so it only fails when it is worse than baseline by more
  than ``WALL_RATIO_TOLERANCE`` (15%, one-sided: getting faster never
  fails).

The before/after table is printed to stdout, written to ``--summary``
as Markdown, and appended to ``$GITHUB_STEP_SUMMARY`` when set, so the
comparison shows up directly on the CI job page.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_perf_baseline.json --candidate BENCH_perf.json \
        --summary regression.md
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: One-sided relative tolerance for wall-clock ratio metrics.
WALL_RATIO_TOLERANCE = 0.15

#: Dotted paths of count metrics compared exactly (plus the per-config
#: workload counts discovered dynamically).
EXACT_PATHS = (
    "comparisons.deobfuscation_clauses_full",
    "comparisons.deobfuscation_clauses_baseline",
    "batch.pooled.sat_variables",
    "batch.pooled.sat_clauses",
    "batch.pooled.conflicts",
    "batch.fresh.sat_variables",
    "batch.fresh.sat_clauses",
    "batch.fresh.conflicts",
    "batch.pooled.verdicts",
    "batch.fresh.verdicts",
    "scheduler.jobs",
    "scheduler.verdicts",
)

#: Dotted paths of wall-clock ratios gated with the one-sided tolerance
#: (lower is better for every one of them).
RATIO_PATHS = ("batch.wall_time_ratio_pooled_vs_fresh",)

#: Reported for context but never gated (pure information).
INFO_PATHS = (
    "comparisons.deobfuscation_clause_reduction_vs_baseline",
    "batch.variables_reduction_vs_fresh",
    "batch.clauses_reduction_vs_fresh",
    "batch.wall_time_ratio_parallel_vs_pooled",
    "scheduler.steals",
    "scheduler.stolen_jobs",
    "scheduler.cross_worker_memo_hits",
)


def lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, list):
        return f"<{len(value)} entries>"
    return str(value)


class Comparison:
    def __init__(self) -> None:
        self.rows: list[tuple[str, str, str, str]] = []
        self.failures: list[str] = []

    def add(self, metric: str, baseline, candidate, status: str) -> None:
        self.rows.append((metric, fmt(baseline), fmt(candidate), status))
        if status.startswith("FAIL"):
            self.failures.append(f"{metric}: {status}")

    # -- rules -------------------------------------------------------------

    def check_boolean(self, name: str, baseline, candidate) -> None:
        if candidate is None:
            self.add(f"checks.{name}", baseline, "missing", "FAIL (check removed)")
        elif baseline is True and candidate is not True:
            self.add(f"checks.{name}", baseline, candidate, "FAIL (hard check)")
        else:
            self.add(f"checks.{name}", baseline, candidate, "ok")

    def check_exact(self, path: str, baseline, candidate) -> None:
        if baseline is None:
            return  # metric did not exist in the baseline yet
        if candidate == baseline:
            self.add(path, baseline, candidate, "ok")
        else:
            self.add(
                path,
                baseline,
                candidate,
                "FAIL (exact; regenerate the baseline if intentional)",
            )

    def check_ratio(self, path: str, baseline, candidate) -> None:
        if baseline is None:
            return
        if candidate is None:
            self.add(path, baseline, "missing", "FAIL (metric removed)")
            return
        limit = baseline * (1.0 + WALL_RATIO_TOLERANCE)
        if candidate <= limit:
            self.add(path, baseline, candidate, f"ok (limit {limit:.4f})")
        else:
            self.add(
                path,
                baseline,
                candidate,
                f"FAIL (> {limit:.4f}, +{WALL_RATIO_TOLERANCE:.0%} over baseline)",
            )

    def info(self, path: str, baseline, candidate) -> None:
        self.add(path, baseline, candidate, "info")


def compare(baseline: dict, candidate: dict) -> Comparison:
    result = Comparison()
    if baseline.get("quick") != candidate.get("quick"):
        result.add(
            "quick",
            baseline.get("quick"),
            candidate.get("quick"),
            "FAIL (baseline and candidate must use the same workload size)",
        )
        return result
    for name, value in (baseline.get("checks") or {}).items():
        result.check_boolean(name, value, lookup(candidate, f"checks.{name}"))
    for config_name, config in (baseline.get("configs") or {}).items():
        for workload_name, workload in (config.get("workloads") or {}).items():
            prefix = f"configs.{config_name}.workloads.{workload_name}"
            for metric in ("sat_clauses", "sat_variables", "verdicts"):
                result.check_exact(
                    f"{prefix}.{metric}",
                    workload.get(metric),
                    lookup(candidate, f"{prefix}.{metric}"),
                )
    for path in EXACT_PATHS:
        result.check_exact(path, lookup(baseline, path), lookup(candidate, path))
    for path in RATIO_PATHS:
        result.check_ratio(path, lookup(baseline, path), lookup(candidate, path))
    for path in INFO_PATHS:
        result.info(path, lookup(baseline, path), lookup(candidate, path))
    return result


def render_markdown(result: Comparison, show_ok_limit: int = 400) -> str:
    lines = [
        "## Perf regression gate",
        "",
        f"**{'REGRESSION' if result.failures else 'PASS'}** — "
        f"{len(result.failures)} failing metric(s) out of {len(result.rows)} compared "
        f"(wall-ratio tolerance ±{WALL_RATIO_TOLERANCE:.0%}, counts exact).",
        "",
        "| metric | baseline | candidate | status |",
        "| --- | --- | --- | --- |",
    ]
    shown = 0
    for metric, base, cand, status in result.rows:
        interesting = not status.startswith("ok") or any(
            metric.startswith(p.split(".")[0]) for p in ("batch", "scheduler", "checks", "comparisons")
        )
        if not interesting and shown >= show_ok_limit:
            continue
        lines.append(f"| `{metric}` | {base} | {cand} | {status} |")
        shown += 1
    if result.failures:
        lines += ["", "### Failures", ""]
        lines += [f"- {failure}" for failure in result.failures]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_perf_baseline.json"),
        help="committed baseline report",
    )
    parser.add_argument(
        "--candidate",
        type=Path,
        default=Path("BENCH_perf.json"),
        help="freshly generated report",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="write the Markdown table here as well",
    )
    arguments = parser.parse_args(argv)
    baseline = json.loads(arguments.baseline.read_text())
    candidate = json.loads(arguments.candidate.read_text())
    result = compare(baseline, candidate)
    markdown = render_markdown(result)
    print(markdown)
    if arguments.summary is not None:
        arguments.summary.write_text(markdown)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as handle:
            handle.write(markdown)
    if result.failures:
        print(
            "perf regression gate FAILED — if the change is intentional, "
            "regenerate BENCH_perf.json (full suite) and commit it.",
            file=sys.stderr,
        )
        return 1
    print("perf regression gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
