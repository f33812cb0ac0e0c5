"""SciductionEngine: batch lifecycle, verdict parity, budgets, determinism."""

import json

import pytest

from repro.api import (
    DeobfuscationProblem,
    EngineConfig,
    JobState,
    SciductionEngine,
    SwitchingLogicProblem,
    TimingAnalysisProblem,
    result_from_dict,
    result_to_dict,
)

#: Small, fast instances of all three problem types.
DEOB = DeobfuscationProblem(task="multiply45", width=4, seed=0)
TIMING = TimingAnalysisProblem(
    program="bounded_linear_search",
    program_args={"length": 3, "word_width": 16},
    bound=250,
    seed=0,
)
SWITCHING = SwitchingLogicProblem(
    system="transmission", omega_step=0.5, integration_step=0.05, horizon=40.0
)


def _verdict_tuple(result):
    return (result.success, result.verdict)


class TestBatchLifecycle:
    def test_all_three_problem_types_run_through_one_batch(self):
        engine = SciductionEngine(EngineConfig())
        results = engine.run_batch([DEOB, TIMING, SWITCHING])
        assert [result.success for result in results] == [True, True, True]
        assert all(result.certificate is not None for result in results)
        assert all("hid" in result.details for result in results)
        # SMT-backed jobs report per-job solver work; the simulation-backed
        # job does not draw on the pool at all.
        assert "smt_job_statistics" in results[0].details["engine"]
        assert results[2].details["engine"]["pooled"] is False

    @pytest.mark.sequential_only  # artifact objects stay in-process
    def test_verdicts_match_direct_entry_points(self):
        engine = SciductionEngine(EngineConfig())
        deob_result, timing_result, switching_result = engine.run_batch(
            [DEOB, TIMING, SWITCHING]
        )

        # Direct OGIS entry point.
        from repro.ogis import (
            OgisSynthesizer, ProgramIOOracle, multiply45_library,
            multiply45_obfuscated, multiply45_reference,
        )

        oracle = ProgramIOOracle(
            lambda values: multiply45_obfuscated(values, 4), 1, 1, 4
        )
        direct = OgisSynthesizer(multiply45_library(), oracle, width=4, seed=0)
        program = direct.synthesize()
        assert deob_result.verdict == bool(
            program.equivalent_to(lambda values: multiply45_reference(values, 4), width=4)
        )
        # The engine may find a syntactically different (but equally
        # valid) program — scoped pooled sessions perturb SAT decision
        # order — so parity is semantic, not syntactic.
        assert deob_result.artifact.equivalent_to(
            lambda values: multiply45_reference(values, 4), width=4
        )

        # Direct GameTime entry point.
        from repro.cfg import bounded_linear_search
        from repro.gametime import GameTime

        analysis = GameTime(bounded_linear_search(3, 16), seed=0)
        answer = analysis.answer_timing_query(bound=250)
        assert timing_result.verdict == answer.within_bound
        assert (
            timing_result.details["wcet_measured"]
            == answer.witness.measured_cycles
        )

        # Direct switching-logic entry point.
        from repro.hybrid import make_transmission_synthesizer

        setup = make_transmission_synthesizer(
            dwell_time=0.0, omega_step=0.5, integration_step=0.05, horizon=40.0
        )
        report = setup.synthesizer.synthesize()
        assert switching_result.success == all(
            not box.is_empty for box in report.switching_logic.values()
        )
        assert {
            name: box.describe() for name, box in report.switching_logic.items()
        } == {
            name: box.describe() for name, box in switching_result.artifact.items()
        }

    def test_wire_format_submission(self):
        engine = SciductionEngine()
        result = engine.run(DEOB.to_dict())
        assert result.success and result.verdict is True

    def test_results_in_submission_order_with_labels(self):
        engine = SciductionEngine()
        engine.submit(DEOB, label="first")
        engine.submit(TIMING, label="second")
        results = engine.run_batch()
        assert results[0].details["engine"]["label"] == "first"
        assert results[1].details["engine"]["label"] == "second"


class TestBudgetsTimeoutsCancellation:
    def test_conflict_budget_exhaustion_is_structured(self):
        engine = SciductionEngine()
        job = engine.submit(
            DeobfuscationProblem(task="interchange", width=8, seed=1),
            max_conflicts=0,
        )
        (result,) = engine.run_batch()
        assert job.state is JobState.BUDGET_EXHAUSTED
        assert result.success is False
        assert result.details["outcome"] == "budget-exhausted"
        assert "budget" in (job.error or "")

    def test_budget_does_not_leak_into_next_job(self):
        engine = SciductionEngine()
        engine.submit(DeobfuscationProblem(task="multiply45", width=4, seed=0),
                      max_conflicts=0)
        unbudgeted = engine.submit(
            DeobfuscationProblem(task="multiply45", width=4, seed=0)
        )
        engine.run_batch()
        assert unbudgeted.state is JobState.COMPLETED
        assert unbudgeted.result.verdict is True

    def test_timeout_preempts_the_job(self):
        engine = SciductionEngine()
        job = engine.submit(
            DeobfuscationProblem(task="interchange", width=8, seed=1),
            timeout=0.0,
        )
        (result,) = engine.run_batch()
        assert job.state is JobState.TIMED_OUT
        assert result.details["outcome"] == "timed-out"

    def test_cancelled_jobs_never_run(self):
        engine = SciductionEngine()
        keep = engine.submit(DEOB)
        cancelled = engine.submit(DEOB)
        assert engine.cancel(cancelled)
        results = engine.run_batch()
        assert len(results) == 1
        assert keep.state is JobState.COMPLETED
        assert cancelled.state is JobState.CANCELLED
        assert cancelled.result.details["outcome"] == "cancelled"
        # A finished job cannot be cancelled.
        assert not engine.cancel(keep)

    def test_failed_jobs_are_reported_not_raised(self):
        engine = SciductionEngine()
        # An unknown switching-logic system passes decode and fails when
        # the job builds its procedure.
        result = engine.run(SwitchingLogicProblem(system="nonexistent-system"))
        assert result.success is False
        assert result.details["outcome"] == "failed"
        assert engine.jobs[-1].state is JobState.FAILED

    def test_deadline_preempts_simulation_backed_job(self):
        """Wall-clock deadlines must reach the reachability oracle.

        Switching-logic jobs have no SAT loop to poll the clock in; the
        deadline hook on the simulation oracle is what preempts them.
        """
        engine = SciductionEngine()
        job = engine.submit(
            SwitchingLogicProblem(
                system="transmission",
                omega_step=0.5,
                integration_step=0.05,
                horizon=40.0,
            ),
            timeout=0.0,
        )
        (result,) = engine.run_batch()
        assert job.state is JobState.TIMED_OUT
        assert result.success is False
        assert result.details["outcome"] == "timed-out"
        assert "deadline" in (job.error or "")

    def test_budget_exhausted_ogis_job_is_resumable(self):
        """Partial examples survive budget exhaustion and seed a resume.

        multiply45/w4/seed0 needs two OGIS iterations; a one-iteration
        budget must surface the learned example set in the result payload,
        and resubmitting with it must finish without re-learning.
        """
        engine = SciductionEngine()
        job = engine.submit(
            DeobfuscationProblem(
                task="multiply45", width=4, seed=0, max_iterations=1
            )
        )
        (result,) = engine.run_batch()
        assert job.state is JobState.BUDGET_EXHAUSTED
        partial = result.details["partial"]
        assert partial["iterations"] == 1
        assert len(partial["examples"]) == 2  # seed example + 1 learned

        resumed = engine.run(
            DeobfuscationProblem(
                task="multiply45",
                width=4,
                seed=0,
                max_iterations=1,  # the same budget now suffices
                examples=partial["examples"],
            )
        )
        assert resumed.success and resumed.verdict is True
        # No random seeding phase: the resumed run starts from the
        # surfaced evidence and needs no further oracle queries to
        # reconstruct it.
        assert resumed.oracle_queries < 2


class TestSchedulingDeterminism:
    PROBLEMS = [
        DeobfuscationProblem(task="multiply45", width=4, seed=0),
        TimingAnalysisProblem(
            program="bounded_linear_search",
            program_args={"length": 3, "word_width": 16},
            bound=250,
        ),
        DeobfuscationProblem(task="multiply45", width=5, seed=0),
    ]

    def _verdicts(self, config, order):
        engine = SciductionEngine(config)
        problems = [self.PROBLEMS[index] for index in order]
        results = engine.run_batch(problems)
        by_problem = {}
        for index, result in zip(order, results):
            by_problem[index] = _verdict_tuple(result)
        return by_problem

    def test_batch_verdicts_independent_of_pool_scheduling(self):
        baseline = self._verdicts(
            EngineConfig(reuse_sessions=False), order=[0, 1, 2]
        )
        for config in (
            EngineConfig(pool_size=1),
            EngineConfig(pool_size=2),
        ):
            for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
                assert self._verdicts(config, order) == baseline


class TestDistributionJobs:
    DISTRIBUTION = TimingAnalysisProblem(
        program="conditional_cascade", distribution=True, seed=0
    )

    @pytest.mark.sequential_only  # pool statistics of this process
    def test_distribution_job_runs_on_one_session(self):
        from repro.cfg import conditional_cascade
        from repro.gametime import GameTime

        engine = SciductionEngine(EngineConfig())
        first = engine.run(self.DISTRIBUTION)
        assert first.success
        # Every path is checked on the job's own leased session: one
        # solver for the whole job.
        assert engine.statistics()["pool"]["solvers_created"] == 1

        report = GameTime(conditional_cascade(), seed=0).predict_distribution(
            measure=True
        )
        expected = [
            (list(prediction.path.edges), prediction.predicted, prediction.measured)
            for prediction in report.predictions
        ]
        paths = first.details["distribution"]["paths"]
        assert [
            (path["edges"], path["predicted"], path["measured"]) for path in paths
        ] == expected
        assert len(paths) > 1

        # A repeated job lands on the same session, finds its sealed base
        # scope, and answers every feasibility check from the check memo.
        second = engine.run(self.DISTRIBUTION)
        assert second.details["distribution"] == first.details["distribution"]
        assert second.details["engine"]["session_reused"] is True
        stats = second.details["engine"]["smt_job_statistics"]
        assert stats["checks"] > 0
        assert stats["check_memo_hits"] == stats["checks"]
        assert engine.statistics()["pool"]["solvers_created"] == 1


class TestMeasurementMemo:
    SPECS = [
        TimingAnalysisProblem(program="conditional_cascade", distribution=True, seed=0),
        TimingAnalysisProblem(
            program="modular_exponentiation",
            program_args={"exponent_bits": 4, "word_width": 16},
            start_state="warm",
            bound=900,
            seed=1,
        ),
    ]

    @staticmethod
    def _canonical(results):
        return [
            json.dumps(
                {key: value for key, value in result_to_dict(result).items() if key != "elapsed"},
                sort_keys=True,
            )
            for result in results
        ]

    @pytest.mark.sequential_only  # reads this process's memo
    def test_repeated_timing_specs_hit_the_memo_and_change_no_result(self, monkeypatch):
        with SciductionEngine(EngineConfig()) as engine:
            memoized = [engine.run(spec) for spec in self.SPECS + self.SPECS]
            statistics = engine.statistics()["platform_memo"]
        assert statistics["hits"] > 0
        assert statistics["entries"] <= statistics["capacity"]
        # The counters are telemetry: no result carries them.
        for result in memoized:
            assert "platform_memo" not in json.dumps(result_to_dict(result))

        # The same stream on an engine that runs every measurement.
        monkeypatch.setattr(SciductionEngine, "_measurement_memo", lambda self: None)
        with SciductionEngine(EngineConfig()) as engine:
            plain = [engine.run(spec) for spec in self.SPECS + self.SPECS]
        assert self._canonical(memoized) == self._canonical(plain)
        assert [result.oracle_queries for result in memoized] == [
            result.oracle_queries for result in plain
        ]


class TestResultSerialization:
    def test_result_json_roundtrip(self):
        engine = SciductionEngine()
        result = engine.run(DEOB)
        wire = result_to_dict(result)
        parsed = json.loads(json.dumps(wire))
        rebuilt = result_from_dict(parsed)
        assert result_to_dict(rebuilt)["success"] == wire["success"]
        assert rebuilt.verdict == result.verdict
        assert rebuilt.iterations == result.iterations
        assert rebuilt.certificate.statement() == result.certificate.statement()
        assert rebuilt.details["engine"]["job_id"] == (
            result.details["engine"]["job_id"]
        )
        # The artifact itself does not cross the wire; its repr does.
        assert rebuilt.artifact is None
        assert rebuilt.details["artifact_repr"] == repr(result.artifact)

    def test_batch_report_is_json_serializable(self):
        engine = SciductionEngine()
        engine.run_batch([DEOB, SWITCHING])
        report = engine.batch_report()
        assert len(report) == 2
        json.dumps(report)  # must not raise
        assert report[0]["problem"]["kind"] == "deobfuscation"


class TestSharedStateLockDiscipline:
    """Regression tests for races the lock-discipline lint (now LOCK02) surfaced.

    ``submit`` used to append to ``_jobs`` without ``_state_lock`` while
    ``prune`` (called from the service's runner thread) swapped the list
    under it — an append landing between prune's copy and its swap was
    silently dropped, losing the job handle.
    """

    def test_concurrent_submit_and_prune_loses_no_handles(self):
        import threading

        engine = SciductionEngine(EngineConfig())
        per_thread, threads = 200, 4
        start = threading.Barrier(threads + 2)  # submitters + pruner + main
        done = threading.Event()

        def submitter():
            start.wait()
            for _ in range(per_thread):
                engine.submit(DEOB)

        def pruner():
            start.wait()
            while not done.is_set():
                engine.prune()  # nothing is finished; must keep all

        workers = [threading.Thread(target=submitter) for _ in range(threads)]
        chaos = threading.Thread(target=pruner)
        for worker in workers:
            worker.start()
        chaos.start()
        start.wait()
        for worker in workers:
            worker.join()
        done.set()
        chaos.join()
        assert len(engine.jobs) == per_thread * threads

    def test_worker_statistics_snapshot_is_consistent(self):
        # statistics() is served to HTTP threads while batches complete;
        # the workers map must be read under the state lock.
        engine = SciductionEngine(EngineConfig(workers=2))
        try:
            engine.run_batch([DEOB, TIMING])
            stats = engine.statistics()
            assert set(stats) == {
                "pool", "scheduler", "workers", "shared_memo", "platform_memo",
            }
            json.dumps(stats)  # must stay JSON-ready
        finally:
            engine.close()
