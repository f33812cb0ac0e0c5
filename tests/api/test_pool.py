"""SolverPool: shape routing, session reuse, scoped resets, accounting."""

import pytest

from repro.api import EngineConfig, SciductionEngine, SolverPool
from repro.api.problems import DeobfuscationProblem
from repro.api.results import result_to_dict
from repro.core.exceptions import SolverError
from repro.smt.solver import SmtResult
from repro.smt.terms import bv_const, bv_var, clear_intern_table, intern_table_size


def _fresh_pool(**overrides) -> SolverPool:
    return SolverPool(EngineConfig(**overrides))


def _sealed_session(lease, fingerprint="fp"):
    """The lease's solver with an empty base sealed and a job scope open."""
    solver, ready = lease.base_session(fingerprint)
    if not ready:
        lease.seal_base()
    return solver


class TestLeaseLifecycle:
    def test_sessions_are_reused_across_leases(self):
        pool = _fresh_pool()
        lease_a = pool.acquire()
        solver_a = _sealed_session(lease_a)
        pool.release(lease_a)
        lease_b = pool.acquire()
        assert lease_b.solver is solver_a
        assert lease_b.reused and not lease_a.reused
        pool.release(lease_b)
        assert pool.statistics.reused_sessions == 1
        assert pool.statistics.solvers_created == 1

    def test_reuse_disabled_hands_out_fresh_solvers(self):
        pool = _fresh_pool(reuse_sessions=False)
        lease_a = pool.acquire()
        solver_a = lease_a.solver
        pool.release(lease_a)
        lease_b = pool.acquire()
        assert lease_b.solver is not solver_a
        pool.release(lease_b)
        assert pool.statistics.solvers_created == 2

    def test_release_retires_previous_jobs_assertions(self):
        pool = _fresh_pool()
        x = bv_var("pool_reset_x", 8)

        lease_a = pool.acquire()
        session = _sealed_session(lease_a)
        session.add(x.eq(bv_const(1, 8)))
        assert session.check() is SmtResult.SAT
        pool.release(lease_a)

        # Job B sees fresh-solver semantics: job A's x == 1 must be gone,
        # so x == 2 is satisfiable on the very same warm solver.
        lease_b = pool.acquire()
        session, ready = lease_b.base_session("fp")
        assert ready
        session.add(x.eq(bv_const(2, 8)))
        assert session.check() is SmtResult.SAT
        assert session.model_value("pool_reset_x") == 2
        pool.release(lease_b)

    def test_base_session_again_resets_midjob(self):
        # Encoders ask for the base session again when rebuilding their
        # skeleton; the second call must retire everything so far.
        pool = _fresh_pool()
        lease = pool.acquire()
        x = bv_var("pool_midjob_x", 8)
        session = _sealed_session(lease)
        session.add(x.eq(bv_const(1, 8)), x.eq(bv_const(2, 8)))
        assert session.check() is SmtResult.UNSAT
        session, ready = lease.base_session("fp")
        assert not ready
        session.add(x.eq(bv_const(2, 8)))
        assert session.check() is SmtResult.SAT
        pool.release(lease)

    def test_leases_must_release_lifo(self):
        pool = _fresh_pool(pool_size=2)
        lease_a = pool.acquire()
        lease_b = pool.acquire()
        with pytest.raises(SolverError, match="LIFO"):
            pool.release(lease_a)
        pool.release(lease_b)
        pool.release(lease_a)

    def test_released_lease_cannot_reopen_a_session(self):
        pool = _fresh_pool()
        lease = pool.acquire()
        _sealed_session(lease)
        pool.release(lease)
        with pytest.raises(SolverError, match="already released"):
            lease.base_session("fp")

    def test_retire_discards_the_session(self):
        pool = _fresh_pool()
        lease_a = pool.acquire()
        solver_a = lease_a.solver
        pool.retire(lease_a)
        lease_b = pool.acquire()
        assert lease_b.solver is not solver_a
        pool.release(lease_b)
        assert pool.statistics.solvers_retired == 1


class TestJobLimits:
    def test_lease_limits_end_with_the_lease(self):
        pool = _fresh_pool()
        x = bv_var("pool_limits_x", 8)
        # Needs conflicts: x * x == 49 with x > 8 (x = 135 is a model).
        query = ((x * x).eq(bv_const(49, 8)), x.ugt(bv_const(8, 8)))

        limited = pool.acquire(shape="s", max_conflicts=0)
        session = _sealed_session(limited)
        session.add(*query)
        assert session.check() is SmtResult.UNKNOWN
        pool.release(limited)

        # The same session, leased without limits, decides the query.
        unlimited = pool.acquire(shape="s")
        assert unlimited.solver is limited.solver
        session = _sealed_session(unlimited)
        session.add(*query)
        assert session.check() is SmtResult.SAT
        pool.release(unlimited)


class TestPerJobAccounting:
    def test_statistics_are_deltas_not_pool_lifetime(self):
        pool = _fresh_pool()
        x = bv_var("pool_stats_x", 8)

        lease_a = pool.acquire()
        session = _sealed_session(lease_a)
        session.add((x * bv_const(3, 8)).eq(bv_const(5, 8)))
        session.check()
        first_job = lease_a.smt_statistics()
        pool.release(lease_a)
        assert first_job.checks == 1
        assert first_job.clauses_generated > 0

        lease_b = pool.acquire()
        session = _sealed_session(lease_b)
        session.check()
        second_job = lease_b.smt_statistics()
        sat_second = lease_b.sat_statistics()
        pool.release(lease_b)
        # Job B did one trivial check; its delta must not include job A's
        # encoding work even though the pooled solver's lifetime counters do.
        assert second_job.checks == 1
        assert second_job.clauses_generated < first_job.clauses_generated
        assert sat_second.conflicts >= 0
        assert lease_b.solver.statistics.checks == 2  # lifetime view differs


class TestShapeRouting:
    def test_matching_shape_reuses_its_session(self):
        pool = _fresh_pool(pool_size=2)
        first = pool.acquire(shape="deob/w4")
        solver_w4 = first.solver
        pool.release(first)
        other = pool.acquire(shape="timing/w16")
        solver_timing = other.solver
        pool.release(other)
        assert solver_timing is not solver_w4

        again = pool.acquire(shape="deob/w4")
        assert again.solver is solver_w4
        pool.release(again)
        timing_again = pool.acquire(shape="timing/w16")
        assert timing_again.solver is solver_timing
        pool.release(timing_again)
        assert pool.statistics.routing_hits == 2
        assert pool.statistics.routing_misses == 2  # the two cold starts
        assert pool.statistics.solvers_created == 2

    def test_full_pool_retires_lru_session_for_a_new_shape(self):
        pool = _fresh_pool(pool_size=1)
        first = pool.acquire(shape="deob/w4")
        solver = first.solver
        pool.release(first)
        # A new shape never inherits a wrong-shape warm session (its
        # variable names would recur at another width and poison it);
        # the LRU session is retired and a fresh solver handed out.
        fresh = pool.acquire(shape="deob/w5")
        assert fresh.solver is not solver
        assert not fresh.reused
        pool.release(fresh)
        assert pool.statistics.routing_hits == 0
        assert pool.statistics.routing_misses == 2
        assert pool.statistics.solvers_retired == 1
        # The replacement session is keyed by the new shape.
        back = pool.acquire(shape="deob/w5")
        assert back.solver is fresh.solver
        pool.release(back)
        assert pool.statistics.routing_hits == 1

    def test_idle_sessions_beyond_pool_size_are_recycled(self):
        pool = _fresh_pool(pool_size=1)
        lease_a = pool.acquire(shape="a")
        lease_b = pool.acquire(shape="b")  # concurrent overflow lease
        pool.release(lease_b)
        pool.release(lease_a)
        assert pool.statistics.solvers_created == 2
        assert pool.statistics.solvers_retired == 1  # idle bound enforced

    @pytest.mark.sequential_only  # inspects the parent engine's own pool
    def test_engine_routes_jobs_by_problem_shape(self):
        from repro.api import SciductionEngine

        engine = SciductionEngine(EngineConfig())
        problems = [
            DeobfuscationProblem(task="multiply45", width=4, seed=0),
            DeobfuscationProblem(task="multiply45", width=5, seed=0),
            DeobfuscationProblem(task="multiply45", width=4, seed=1),
            DeobfuscationProblem(task="multiply45", width=5, seed=1),
        ]
        results = engine.run_batch(problems)
        assert all(result.success for result in results)
        # Jobs 3 and 4 land on the sessions warmed by jobs 1 and 2.
        assert engine.pool.statistics.routing_hits == 2
        assert engine.pool.statistics.solvers_created == 2


class TestBaseScopeProtocol:
    def test_sealed_base_survives_release_and_is_found_again(self):
        pool = _fresh_pool()
        lease = pool.acquire(shape="deob/w8")
        solver, ready = lease.base_session("fingerprint-a")
        assert not ready
        x = bv_var("base_scope_x", 8)
        solver.add(x.ult(bv_const(100, 8)))
        lease.seal_base()
        solver.add(x.eq(bv_const(7, 8)))  # job-scope assertion
        assert solver.check() is SmtResult.SAT
        pool.release(lease)

        lease2 = pool.acquire(shape="deob/w8")
        solver2, ready2 = lease2.base_session("fingerprint-a")
        assert ready2 and solver2 is solver
        # The base constraint is still active; the old job scope is gone.
        solver2.add(x.eq(bv_const(200, 8)))
        assert solver2.check() is SmtResult.UNSAT  # 200 violates x < 100
        pool.release(lease2)

    def test_fingerprint_mismatch_rebuilds_the_base(self):
        pool = _fresh_pool()
        lease = pool.acquire(shape="s")
        solver, ready = lease.base_session("fp-1")
        assert not ready
        y = bv_var("base_mismatch_y", 8)
        solver.add(y.eq(bv_const(1, 8)))
        lease.seal_base()
        pool.release(lease)

        lease2 = pool.acquire(shape="s")
        solver2, ready2 = lease2.base_session("fp-2")
        assert not ready2
        # fp-1's base constraint must be retired with its scope.
        solver2.add(y.eq(bv_const(2, 8)))
        lease2.seal_base()
        assert solver2.check() is SmtResult.SAT
        pool.release(lease2)

    def test_seal_requires_open_base(self):
        pool = _fresh_pool()
        lease = pool.acquire()
        with pytest.raises(SolverError, match="seal_base"):
            lease.seal_base()
        _sealed_session(lease)
        with pytest.raises(SolverError, match="seal_base"):
            lease.seal_base()  # already sealed
        pool.release(lease)

    def test_release_resets_job_encoding_to_the_sealed_watermark(self):
        pool = _fresh_pool()
        lease = pool.acquire(shape="s")
        solver, _ = lease.base_session("fp")
        base_var = bv_var("frontier_base", 8)
        solver.add(base_var.ult(bv_const(100, 8)))
        lease.seal_base()
        frontier = solver._sat_solver.num_variables - 1  # minus the job scope
        job_var = bv_var("frontier_job", 8)
        solver.add(job_var.eq(bv_const(3, 8)))
        assert solver.check() is SmtResult.SAT
        assert solver._sat_solver.num_variables > frontier + 1  # job grew it
        pool.release(lease)
        # The session is back at the sealed watermark: the job's variables
        # and gate definitions are gone, the base encoding is not.
        assert solver._sat_solver.num_variables == frontier
        assert not [c for c in solver._sat_solver._clauses if c.learned]

    def test_popping_the_base_drops_the_watermark(self):
        pool = _fresh_pool()
        lease = pool.acquire(shape="s")
        solver = _sealed_session(lease, "fp-1")
        assert solver._base is not None
        lease.base_session("fp-2")  # pops the fp-1 base scope
        assert solver._base is None
        pool.release(lease)


class TestInternTableReset:
    def test_reset_once_table_exceeds_limit(self):
        clear_intern_table()
        pool = _fresh_pool(intern_table_limit=40)
        kept = pool.acquire(shape="a")
        kept_solver = _sealed_session(kept)
        bv_var("intern_reset_a", 8) + bv_const(3, 8)
        pool.release(kept)
        assert 0 < intern_table_size() <= 40  # below the limit: nothing goes
        lease = pool.acquire(shape="b")
        solver = _sealed_session(lease)
        y = bv_var("intern_reset_y", 8)
        for offset in range(50):
            y + bv_const(offset, 8)
        grown = intern_table_size()
        assert grown > 40
        pool.release(lease)
        assert intern_table_size() == 0
        assert pool.statistics.intern_entries_evicted == grown
        # A new term generation drops every session whose caches hold the
        # old terms: the idle one and the releasing one.
        assert pool.statistics.solvers_retired == 2
        for shape, old in (("a", kept_solver), ("b", solver)):
            follow_up = pool.acquire(shape=shape)
            assert follow_up.solver is not old and not follow_up.reused
            pool.release(follow_up)
        assert pool.statistics.routing_hits == 0

    def test_entries_kept_below_limit(self):
        pool = _fresh_pool(intern_table_limit=10_000_000)
        lease = pool.acquire()
        _sealed_session(lease)
        base = intern_table_size()
        z = bv_var("intern_keep_z", 8)
        z + bv_const(23, 8)
        grown = intern_table_size()
        pool.release(lease)
        assert grown > base
        assert intern_table_size() == grown
        assert pool.statistics.intern_entries_evicted == 0

    def test_retire_leaves_the_table_intact(self):
        clear_intern_table()
        pool = _fresh_pool(intern_table_limit=40)
        idle = pool.acquire(shape="idle")
        idle_solver = _sealed_session(idle)
        pool.release(idle)
        poisoned = pool.acquire(shape="poisoned")
        _sealed_session(poisoned)
        w = bv_var("intern_retire_w", 8)
        built = [w + bv_const(offset, 8) for offset in range(50)]
        grown = intern_table_size()
        assert grown > 40
        pool.retire(poisoned)
        # Past the limit, yet a retire only drops its own solver.
        assert intern_table_size() == grown
        assert (w + bv_const(7, 8)) is built[7]
        assert pool.statistics.intern_entries_evicted == 0
        assert pool.statistics.solvers_retired == 1
        again = pool.acquire(shape="idle")
        assert again.solver is idle_solver
        pool.release(again)  # the next release resets
        assert intern_table_size() == 0


def _timing_stream() -> list[dict]:
    """Three timing programs in blocks of twice-submitted shapes, each
    block at a new word width so every block grows the intern table."""
    programs = [
        ("figure4_toy", {}, 66),
        ("saturating_add", {}, 49),
        ("bounded_linear_search", {"length": 4}, 217),
    ]
    specs = []
    for block in range(8):
        for position, index in enumerate([0, 1, 0, 2, 1, 2]):
            program, args, wcet = programs[index]
            specs.append(
                {
                    "kind": "timing-analysis",
                    "program": program,
                    "program_args": dict(args, word_width=16 + block),
                    "bound": wcet + position % 3 - 1,
                    "seed": block * 6 + position,
                    "distribution": position < 3,
                }
            )
    return specs


def _without_session_details(result) -> dict:
    """A result's wire form minus what depends on session warmth and timing."""
    wire = result_to_dict(result)
    wire.pop("elapsed")
    details = wire["details"]
    for key in ("engine", "smt_variables_generated", "smt_clauses_generated"):
        details.pop(key, None)
    return wire


class TestLongLivedPoolDrill:
    @pytest.mark.sequential_only  # reads the parent engine's own pool
    def test_routing_hits_resume_after_a_reset(self):
        """A repeated stream on one engine past a small table limit keeps
        its routing hits, keeps the table bounded, and answers exactly
        like an engine that never resets."""
        limit = 500
        specs = _timing_stream()
        clear_intern_table()
        limited = SciductionEngine(EngineConfig(intern_table_limit=limit))
        results, hits, first_reset = [], [], None
        for index, spec in enumerate(specs):
            results.append(limited.run(spec))
            # A release past the limit resets, so between jobs the table
            # holds at most the limit (and within a job, the limit plus
            # that job's new entries).
            assert intern_table_size() <= limit, index
            statistics = limited.pool.statistics
            hits.append(statistics.routing_hits)
            if first_reset is None and statistics.intern_entries_evicted:
                first_reset = index
        assert first_reset is not None and first_reset < len(specs) // 3
        unlimited = SciductionEngine(EngineConfig(intern_table_limit=None))
        unlimited_hits = []
        for index, spec in enumerate(specs):
            result = unlimited.run(spec)
            assert _without_session_details(result) == _without_session_details(
                results[index]
            ), index
            unlimited_hits.append(unlimited.pool.statistics.routing_hits)
        assert unlimited.pool.statistics.intern_entries_evicted == 0
        # Routing hits resume after the first reset: at least half as many
        # as the engine that never resets scores over the same jobs.
        resumed = hits[-1] - hits[first_reset]
        assert resumed * 2 >= unlimited_hits[-1] - unlimited_hits[first_reset]
        assert resumed > 0
