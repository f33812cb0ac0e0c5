"""Parallel engine: parity with sequential, crash retry, cancellation.

``run_batch`` under ``EngineConfig(workers=N)`` fans jobs out over
worker processes with shape affinity; everything observable — verdicts,
certificates, per-job statistics, the full wire form of every result —
must be byte-identical to the sequential run, and worker crashes and
cancellations must degrade as gracefully as the pool's poisoned-session
retry does in-process.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.api import (
    DeobfuscationProblem,
    EngineConfig,
    JobState,
    ProblemSpec,
    SciductionEngine,
    SwitchingLogicProblem,
    TimingAnalysisProblem,
    register_problem_type,
    result_wire_canonical,
)
from repro.core.procedure import SciductionResult

#: Small instances of all three paper applications (the problem matrix).
MATRIX = [
    DeobfuscationProblem(task="multiply45", width=4, seed=0),
    TimingAnalysisProblem(
        program="bounded_linear_search",
        program_args={"length": 3, "word_width": 16},
        bound=250,
        seed=0,
    ),
    SwitchingLogicProblem(
        system="transmission", omega_step=0.5, integration_step=0.05, horizon=40.0
    ),
    DeobfuscationProblem(task="multiply45", width=5, seed=0),
    DeobfuscationProblem(task="multiply45", width=4, seed=1),
]


@register_problem_type
@dataclass
class _StuntProblem(ProblemSpec):
    """Test-only problem for exercising worker failure modes.

    ``mode`` selects the stunt: ``echo`` returns immediately, ``sleep``
    blocks for ``seconds``, ``crash-once`` kills the worker process on
    the first attempt (a marker file records the attempt) and succeeds on
    retry, ``crash-always`` kills the worker on every attempt.
    """

    kind: ClassVar[str] = "test-stunt"
    needs_solver: ClassVar[bool] = False

    mode: str = "echo"
    seconds: float = 0.0
    marker: str = ""
    payload: str = ""

    def run(self, context=None) -> SciductionResult:
        if self.mode == "sleep":
            time.sleep(self.seconds)
        elif self.mode == "crash-always":
            os._exit(13)
        elif self.mode == "crash-once":
            if not os.path.exists(self.marker):
                with open(self.marker, "w") as handle:
                    handle.write("attempted")
                os._exit(13)
        return SciductionResult(
            success=True, verdict=True, details={"payload": self.payload}
        )


@dataclass
class _LateProblem(ProblemSpec):
    """Registered only after the worker fleet forked, so the workers
    cannot decode it: the unrunnable-job path."""

    kind: ClassVar[str] = "test-late-kind"
    needs_solver: ClassVar[bool] = False

    payload: str = ""

    def run(self, context=None) -> SciductionResult:
        return SciductionResult(
            success=True, verdict=True, details={"payload": self.payload}
        )


def _failure_wire(details: dict) -> dict:
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


def _same_bytes(left: dict | None, right: dict) -> bool:
    return json.dumps(left) == json.dumps(right)


def _canonical_wires(engine: SciductionEngine) -> list[dict]:
    return [result_wire_canonical(job.result_wire()) for job in engine.jobs]


class TestParallelParity:
    @pytest.mark.sequential_only
    def test_worker_results_byte_identical_to_sequential(self):
        sequential = SciductionEngine(EngineConfig(workers=1))
        sequential.run_batch(list(MATRIX))
        parallel = SciductionEngine(EngineConfig(workers=2))
        parallel.run_batch(list(MATRIX))

        assert _canonical_wires(parallel) == _canonical_wires(sequential)
        # Certificates survive the wire round trip intact.
        for seq_job, par_job in zip(sequential.jobs, parallel.jobs):
            assert seq_job.state == par_job.state
            assert (
                par_job.result.certificate.statement()
                == seq_job.result.certificate.statement()
            )

    @pytest.mark.sequential_only
    def test_three_workers_match_too(self):
        sequential = SciductionEngine(EngineConfig(workers=1))
        sequential.run_batch(list(MATRIX))
        parallel = SciductionEngine(EngineConfig(workers=3))
        parallel.run_batch(list(MATRIX))
        assert _canonical_wires(parallel) == _canonical_wires(sequential)

    def test_results_come_back_in_submission_order(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        jobs = [
            _StuntProblem(mode="echo", payload=f"job-{index}")
            for index in range(5)
        ]
        results = engine.run_batch(jobs)
        assert [r.details["payload"] for r in results] == [
            f"job-{index}" for index in range(5)
        ]

    @pytest.mark.sequential_only
    def test_statistics_deltas_are_taken_in_the_worker(self):
        """Per-job solver statistics must be worker-side lease deltas.

        Two identical jobs share one warm session (same shape, same
        bucket); if statistics were snapshotted in the parent — or
        reported as pool-lifetime totals — the second job's counters
        would include the first job's work.  They must match the
        sequential engine's per-job deltas exactly.
        """
        problems = [
            DeobfuscationProblem(task="multiply45", width=4, seed=0),
            DeobfuscationProblem(task="multiply45", width=4, seed=0),
        ]

        def job_stats(engine):
            engine.run_batch(list(problems))
            return [
                job.result.details["engine"]["smt_job_statistics"]
                for job in engine.jobs
            ]

        sequential = job_stats(SciductionEngine(EngineConfig(workers=1)))
        parallel = job_stats(SciductionEngine(EngineConfig(workers=2)))
        assert parallel == sequential
        # The warm second job re-uses the sealed skeleton, so its encoding
        # work is strictly smaller — pool-lifetime totals would only grow.
        assert (
            parallel[1]["clauses_generated"] < parallel[0]["clauses_generated"]
        )


class TestWorkerCrashRetirement:
    def test_crashed_worker_is_replaced_and_job_retried(self, tmp_path):
        engine = SciductionEngine(EngineConfig(workers=2))
        crash = engine.submit(
            _StuntProblem(mode="crash-once", marker=str(tmp_path / "attempt"))
        )
        follow_up = engine.submit(_StuntProblem(mode="echo", payload="after"))
        results = engine.run_batch()
        assert crash.state is JobState.COMPLETED
        assert follow_up.state is JobState.COMPLETED
        assert [r.success for r in results] == [True, True]
        assert (tmp_path / "attempt").exists()

    def test_repeated_crash_fails_job_but_not_the_bucket(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        doomed = engine.submit(_StuntProblem(mode="crash-always"))
        # Same kind => same shape => same bucket: must survive the crash.
        survivor = engine.submit(_StuntProblem(mode="echo", payload="alive"))
        results = engine.run_batch()
        assert doomed.state is JobState.FAILED
        assert "crashed" in (doomed.error or "")
        assert results[0].details["outcome"] == "failed"
        assert survivor.state is JobState.COMPLETED
        assert results[1].details["payload"] == "alive"


class TestUnrunnableJobs:
    def test_kind_unknown_to_the_worker_fails_with_a_structured_error(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        try:
            engine.prestart_workers()
            register_problem_type(_LateProblem)
            jobs = [
                engine.submit(_LateProblem(payload=str(index)), label=f"late-{index}")
                for index in range(2)
            ]
            engine.run_batch()
            for job in jobs:
                assert job.state is JobState.FAILED
                assert (job.error or "").startswith(
                    "unknown problem kind 'test-late-kind'"
                )
                assert _same_bytes(job.result_wire(), _failure_wire({
                    "outcome": "failed",
                    "error": job.error,
                    "engine": {
                        "job_id": job.job_id,
                        "label": job.label,
                        "state": "failed",
                        "pooled": False,
                        "session_reused": False,
                    },
                }))
        finally:
            engine.close()


class TestParallelCancellation:
    def test_queued_job_cancelled_while_batch_in_flight(self):
        """Jobs queued behind an in-flight job stay cancellable.

        The scheduler dispatches one job per worker at a time and keeps
        the rest queued in the parent process (state PENDING, no
        future), so anything the workers have not reached yet can still
        be cancelled mid-batch.
        """
        engine = SciductionEngine(EngineConfig(workers=2))
        blocker = engine.submit(_StuntProblem(mode="sleep", seconds=1.5))
        filler = engine.submit(_StuntProblem(mode="sleep", seconds=0.1))
        # Same shape as the blocker: queued behind it on the same worker.
        target = engine.submit(_StuntProblem(mode="echo", payload="never"))

        batch_results = []
        runner = threading.Thread(
            target=lambda: batch_results.extend(engine.run_batch())
        )
        runner.start()
        try:
            deadline = time.monotonic() + 10.0
            while blocker._future is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert blocker._future is not None, "batch never started"
            assert target.state is JobState.PENDING
            assert target._future is None, "queued job must not be dispatched"
            assert engine.cancel(target), "queued job should be cancellable"
        finally:
            runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert blocker.state is JobState.COMPLETED
        assert filler.state is JobState.COMPLETED
        assert target.state is JobState.CANCELLED
        assert len(batch_results) == 3
        assert batch_results[2].details["outcome"] == "cancelled"
        assert _same_bytes(
            target.result_wire(), _failure_wire({"outcome": "cancelled"})
        )

    def test_cancel_before_batch_skips_submission(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        keep = engine.submit(_StuntProblem(mode="echo", payload="kept"))
        cancelled = engine.submit(_StuntProblem(mode="echo"))
        assert engine.cancel(cancelled)
        results = engine.run_batch()
        assert len(results) == 1
        assert keep.state is JobState.COMPLETED
        assert cancelled.state is JobState.CANCELLED
        assert cancelled._future is None


class TestParallelBudgets:
    def test_timeout_preempts_across_the_process_boundary(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        slow = engine.submit(
            DeobfuscationProblem(task="interchange", width=8, seed=1),
            timeout=0.0,
        )
        quick = engine.submit(DeobfuscationProblem(task="multiply45", width=4))
        engine.run_batch()
        assert slow.state is JobState.TIMED_OUT
        assert slow.result.details["outcome"] == "timed-out"
        assert quick.state is JobState.COMPLETED
        wire = slow.result_wire()
        stamp = wire["details"]["engine"]
        assert _same_bytes(wire, _failure_wire({
            "outcome": "timed-out",
            "error": slow.error,
            "partial": {"examples": [[[68, 32], [32, 68]]], "iterations": 1},
            "engine": {
                "job_id": slow.job_id,
                "label": None,
                "state": "timed-out",
                "pooled": True,
                "session_reused": False,
                "smt_job_statistics": stamp["smt_job_statistics"],
                "sat_job_statistics": stamp["sat_job_statistics"],
            },
        }))

    def test_conflict_budget_travels_with_the_job(self):
        engine = SciductionEngine(EngineConfig(workers=2))
        budgeted = engine.submit(
            DeobfuscationProblem(task="interchange", width=8, seed=1),
            max_conflicts=0,
        )
        unbudgeted = engine.submit(
            DeobfuscationProblem(task="multiply45", width=4, seed=0)
        )
        engine.run_batch()
        assert budgeted.state is JobState.BUDGET_EXHAUSTED
        assert unbudgeted.state is JobState.COMPLETED
        assert unbudgeted.result.verdict is True
