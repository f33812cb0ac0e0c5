"""Per-job retry budget: crash supervision and fault chains.

``EngineConfig.job_retry_limit`` bounds how many times a job may be
retried after a worker-process crash (parallel path) before it reaches a
terminal ``failed`` state; the terminal record carries the full fault
chain, one entry per consumed attempt, so a persistent fault is
distinguishable from a transient one.  The ``engine.crash``/``engine.slow``
fault sites prove in-process execution faults fold into job outcomes
instead of propagating.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.api import (
    EngineConfig,
    JobState,
    ProblemSpec,
    SciductionEngine,
    register_problem_type,
)
from repro.core.exceptions import ReproError, SolverError
from repro.core.procedure import SciductionResult
from repro.testing import faults

DEOB = {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0}


def _failure_wire(details):
    """The full wire form of a structured unsuccessful result."""
    return {
        "success": False,
        "verdict": None,
        "iterations": 0,
        "oracle_queries": 0,
        "deductive_queries": 0,
        "elapsed": 0.0,
        "artifact_repr": None,
        "details": details,
        "certificate": None,
    }


def _same_bytes(left, right):
    return json.dumps(left) == json.dumps(right)


@register_problem_type
@dataclass
class _CrashyProblem(ProblemSpec):
    """Worker-killing stunt problem for retry-budget tests.

    ``crash-always`` kills the worker process on every attempt;
    ``crash-once`` kills it only until the marker file exists (so the
    retried attempt, in a replacement worker, succeeds); ``echo``
    returns immediately.
    """

    kind: ClassVar[str] = "test-retry-stunt"
    needs_solver: ClassVar[bool] = False

    mode: str = "echo"
    marker: str = ""

    def run(self, context=None) -> SciductionResult:
        if self.mode == "crash-always":
            os._exit(13)
        elif self.mode == "crash-once" and not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("attempted")
            os._exit(13)
        return SciductionResult(success=True, verdict=True, details={})


@register_problem_type
@dataclass
class _PoisonedProblem(ProblemSpec):
    """A pooled job whose session check always fails like a poisoned one."""

    kind: ClassVar[str] = "test-retry-poisoned"

    def run(self, context=None) -> SciductionResult:
        raise SolverError("variable 'x' redeclared at width 8")


class TestConfigKnobs:
    def test_validation(self):
        with pytest.raises(ReproError):
            EngineConfig(job_retry_limit=-1)

    def test_wire_round_trip(self):
        config = EngineConfig(job_retry_limit=3)
        rebuilt = EngineConfig.from_dict(config.to_dict())
        assert rebuilt.job_retry_limit == 3


class TestCrashRetryBudget:
    def test_exhausted_budget_reports_the_fault_chain(self):
        engine = SciductionEngine(EngineConfig(workers=2, job_retry_limit=1))
        doomed = engine.submit(_CrashyProblem(mode="crash-always"))
        # A companion job keeps the batch on the multi-process path
        # (single-job batches run in-process, where a crash stunt would
        # take the test runner down with it).
        survivor = engine.submit(_CrashyProblem(mode="echo"))
        results = engine.run_batch()
        assert survivor.state is JobState.COMPLETED
        assert doomed.state is JobState.FAILED
        assert "retry budget of 1 exhausted" in (doomed.error or "")
        chain = results[0].details["fault_chain"]
        assert chain == [
            "worker process crashed (attempt 1)",
            "worker process crashed (attempt 2)",
        ]
        assert _same_bytes(doomed.result_wire(), _failure_wire({
            "outcome": "failed",
            "error": "worker process crashed (retry budget of 1 exhausted)",
            "fault_chain": chain,
            "engine": {
                "job_id": doomed.job_id,
                "label": None,
                "state": "failed",
                "pooled": False,
                "session_reused": False,
            },
        }))

    def test_zero_budget_disables_retries(self):
        engine = SciductionEngine(EngineConfig(workers=2, job_retry_limit=0))
        doomed = engine.submit(_CrashyProblem(mode="crash-always"))
        engine.submit(_CrashyProblem(mode="echo"))  # keep the batch parallel
        results = engine.run_batch()
        assert doomed.state is JobState.FAILED
        assert "retry budget of 0 exhausted" in (doomed.error or "")
        assert results[0].details["fault_chain"] == [
            "worker process crashed (attempt 1)",
        ]

    def test_recovery_within_budget_leaves_no_fault_chain(self, tmp_path):
        engine = SciductionEngine(EngineConfig(workers=2, job_retry_limit=1))
        flaky = engine.submit(
            _CrashyProblem(mode="crash-once", marker=str(tmp_path / "attempt"))
        )
        engine.submit(_CrashyProblem(mode="echo"))  # keep the batch parallel
        results = engine.run_batch()
        assert flaky.state is JobState.COMPLETED
        # A successful job never advertises the crashes it survived in
        # its result (the journal/service layer is where supervision
        # history lives); the attempt marker proves the crash happened.
        assert "fault_chain" not in results[0].details
        assert (tmp_path / "attempt").exists()


class TestEngineFaultSites:
    @pytest.mark.sequential_only
    def test_engine_crash_fault_folds_into_failed_result(self):
        engine = SciductionEngine(EngineConfig(workers=1))
        with faults.injected({"engine.crash": faults.Fault("raise", "EIO")}):
            job = engine.submit(dict(DEOB))
            results = engine.run_batch()
        assert job.state is JobState.FAILED
        assert "engine.crash" in (job.error or "")
        assert results[0].details["outcome"] == "failed"
        wire = job.result_wire()
        engine_stamp = wire["details"]["engine"]
        assert _same_bytes(wire, _failure_wire({
            "outcome": "failed",
            "error": job.error,
            "engine": {
                "job_id": job.job_id,
                "label": None,
                "state": "failed",
                "pooled": True,
                "session_reused": False,
                "smt_job_statistics": engine_stamp["smt_job_statistics"],
                "sat_job_statistics": engine_stamp["sat_job_statistics"],
            },
        }))

    @pytest.mark.sequential_only
    def test_poisoned_fresh_session_fails_with_its_fault_chain(self):
        engine = SciductionEngine(EngineConfig(workers=1))
        job = engine.submit(_PoisonedProblem())
        engine.run_batch()
        assert job.state is JobState.FAILED
        # A fresh session failing is not retried (it had no earlier
        # tenant to blame), but the one attempt is on record.
        assert _same_bytes(job.result_wire(), _failure_wire({
            "outcome": "failed",
            "error": "variable 'x' redeclared at width 8",
            "fault_chain": [
                "poisoned session (attempt 1): "
                "variable 'x' redeclared at width 8",
            ],
            "engine": {
                "job_id": job.job_id,
                "label": None,
                "state": "failed",
                "pooled": True,
                "session_reused": False,
                "smt_job_statistics": {
                    "checks": 0, "sat_answers": 0, "unsat_answers": 0,
                    "variables_generated": 0, "clauses_generated": 0,
                    "check_memo_hits": 0, "shared_memo_hits": 0,
                },
                "sat_job_statistics": {
                    "conflicts": 0, "decisions": 0, "propagations": 0,
                    "learned_clauses": 0,
                },
            },
        }))

    @pytest.mark.sequential_only
    def test_engine_slow_fault_only_delays(self):
        engine = SciductionEngine(EngineConfig(workers=1))
        with faults.injected({"engine.slow": faults.Fault("sleep", "0.05")}):
            job = engine.submit(dict(DEOB))
            engine.run_batch()
        assert job.state is JobState.COMPLETED
        assert job.elapsed >= 0.05
