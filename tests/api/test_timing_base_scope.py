"""Per-CFG base scopes for timing analysis (the PR-4 open item).

:class:`~repro.cfg.ssa.PathConstraintBuilder` now rides the pooled
lease's ``base_session`` / ``seal_base`` protocol like the OGIS encoder:
a repeated timing-analysis job finds its CFG's fingerprinted base scope
still sealed, re-blasts its paths into the same variable layout, and
answers the whole path-feasibility sweep from the check memo instead of
re-running the SAT search.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, SciductionEngine, TimingAnalysisProblem
from repro.api.pool import SolverPool
from repro.api.results import result_to_dict, result_wire_canonical
from repro.cfg import build_cfg, enumerate_paths
from repro.cfg.programs import absolute_difference, bounded_linear_search
from repro.cfg.ssa import PathConstraintBuilder

SPEC = dict(
    program="bounded_linear_search",
    program_args={"length": 4, "word_width": 16},
    bound=250,
)


class TestFingerprint:
    def test_same_cfg_same_fingerprint(self):
        cfg_a = build_cfg(bounded_linear_search(4, 16))
        cfg_b = build_cfg(bounded_linear_search(4, 16))
        assert (
            PathConstraintBuilder(cfg_a).fingerprint()
            == PathConstraintBuilder(cfg_b).fingerprint()
        )

    def test_structure_and_flags_change_the_fingerprint(self):
        cfg = build_cfg(bounded_linear_search(4, 16))
        base = PathConstraintBuilder(cfg).fingerprint()
        assert PathConstraintBuilder(
            build_cfg(bounded_linear_search(3, 16))
        ).fingerprint() != base
        assert PathConstraintBuilder(
            build_cfg(absolute_difference(16))
        ).fingerprint() != base
        assert (
            PathConstraintBuilder(cfg, slice_to_conditions=False).fingerprint()
            != base
        )


class TestBuilderBaseScope:
    def test_builder_seals_and_reuses_the_base_scope(self):
        pool = SolverPool(EngineConfig())
        cfg = build_cfg(bounded_linear_search(3, 16))

        lease = pool.acquire(shape="timing")
        first = PathConstraintBuilder(cfg, lease=lease)
        assert first.base_scope_reused is False
        pool.release(lease)

        lease = pool.acquire(shape="timing")
        second = PathConstraintBuilder(cfg, lease=lease)
        assert second.base_scope_reused is True
        pool.release(lease)


class TestEngineTimingReuse:
    @pytest.mark.sequential_only
    def test_second_timing_job_answers_from_the_memo(self):
        engine = SciductionEngine(EngineConfig(workers=1))
        first = engine.run(TimingAnalysisProblem(**SPEC))
        second = engine.run(TimingAnalysisProblem(**SPEC))
        assert (first.success, first.verdict) == (second.success, second.verdict)
        first_stats = first.details["engine"]["smt_job_statistics"]
        second_stats = second.details["engine"]["smt_job_statistics"]
        assert second.details["engine"]["session_reused"] is True
        # Every feasibility check of the repeated sweep is memo-answered.
        assert second_stats["check_memo_hits"] == second_stats["checks"]
        assert second_stats["checks"] > 0
        assert first_stats["check_memo_hits"] == 0
        # ...so the repeated job does strictly less encoding work too.
        assert (
            second_stats["clauses_generated"] <= first_stats["clauses_generated"]
        )
        # And the routing layer actually sent it to the warm session.
        assert engine.pool.statistics.routing_hits >= 1

    @pytest.mark.sequential_only
    def test_epoch_invalidation_on_base_scope_reseal(self):
        """A different CFG on the same session re-seals the base scope and
        must not be served the old base's memoized answers.

        ``bounded_linear_search`` with a different length has the *same
        shape key* (same program name, same word width) but a different
        CFG — the warm session is reused, the fingerprint mismatches and
        the base scope is re-sealed; the memo keys (assertions, frontier,
        layout) of the new base match none recorded under the old one.
        """
        engine = SciductionEngine(EngineConfig(workers=1, pool_size=1))
        first = engine.run(TimingAnalysisProblem(**SPEC))
        other = engine.run(
            TimingAnalysisProblem(
                program="bounded_linear_search",
                program_args={"length": 3, "word_width": 16},
                bound=250,
            )
        )
        assert other.success
        assert other.details["engine"]["session_reused"] is True
        other_stats = other.details["engine"]["smt_job_statistics"]
        # New fingerprint ⇒ new base: no stale answers match (different
        # assertions and frontier), so every check ran for real.
        assert other_stats["check_memo_hits"] == 0
        again = engine.run(TimingAnalysisProblem(**SPEC))
        assert (first.success, first.verdict) == (again.success, again.verdict)


class TestBaseScopeEncodeCache:
    def test_same_fingerprint_tenant_reuses_the_encodings(self):
        pool = SolverPool(EngineConfig())
        cfg = build_cfg(bounded_linear_search(3, 16))
        paths = list(enumerate_paths(cfg))

        lease = pool.acquire(shape="timing")
        first = PathConstraintBuilder(cfg, lease=lease)
        encodings = [first.encode(path) for path in paths]
        assert len(lease.base_cache) == len(paths)
        pool.release(lease)

        lease = pool.acquire(shape="timing")
        second = PathConstraintBuilder(cfg, lease=lease)
        assert second.base_scope_reused is True
        assert len(lease.base_cache) == len(paths)
        for path, earlier in zip(paths, encodings):
            again = second.encode(path)
            assert again.constraints is not earlier.constraints
            assert all(
                a is b for a, b in zip(again.constraints, earlier.constraints)
            )
        pool.release(lease)

    def test_reseal_under_another_fingerprint_starts_empty(self):
        pool = SolverPool(EngineConfig(pool_size=1))
        cfg = build_cfg(bounded_linear_search(4, 16))
        other_cfg = build_cfg(bounded_linear_search(3, 16))

        lease = pool.acquire(shape="timing")
        builder = PathConstraintBuilder(cfg, lease=lease)
        builder.encode(next(enumerate_paths(cfg)))
        assert lease.base_cache
        pool.release(lease)

        lease = pool.acquire(shape="timing")
        assert lease.reused
        other = PathConstraintBuilder(other_cfg, lease=lease)
        assert other.base_scope_reused is False
        assert lease.base_cache == {}
        pool.release(lease)

    def test_unsealed_lease_has_no_cache(self):
        pool = SolverPool(EngineConfig())
        lease = pool.acquire(shape="timing")
        assert lease.base_cache is None
        lease.base_session("cfg/unsealed")
        assert lease.base_cache is None
        pool.release(lease)

    @pytest.mark.sequential_only
    def test_per_job_statistics_match_a_run_without_the_cache(self, monkeypatch):
        """Cached encodings change no per-job count: the same job stream
        with every builder encoding afresh reports the same results,
        ``smt_job_statistics`` and deductive query counts."""
        from repro.api.pool import SolverLease

        problems = [
            TimingAnalysisProblem(**SPEC),
            TimingAnalysisProblem(**SPEC),
            TimingAnalysisProblem(**dict(SPEC, bound=180)),
        ]

        def run_stream():
            engine = SciductionEngine(EngineConfig(workers=1))
            try:
                return [
                    result_wire_canonical(result_to_dict(engine.run(problem)))
                    for problem in problems
                ]
            finally:
                engine.close()

        cached = run_stream()
        # A fresh dict per access: every builder starts with an empty cache.
        monkeypatch.setattr(SolverLease, "base_cache", property(lambda self: {}))
        uncached = run_stream()
        assert cached == uncached
        statistics = cached[1]["details"]["engine"]["smt_job_statistics"]
        assert statistics["checks"] > 0
