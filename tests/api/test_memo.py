"""The one check memo: store semantics, the client, solver and pool wiring.

The store itself (LRU bound, cross-worker hit accounting, first-writer
wins) is exercised directly.  :class:`CheckMemoClient` is exercised with
a :class:`SharedCheckMemo` standing in for its remote (the manager proxy
of a worker process has the same signature) and with failing remotes;
the network remote, the coordinator-hosted store a cluster node dials,
is covered by ``tests/cluster/test_shared_memo.py``.  The
solver integration runs the same query on independent solvers whose
clients share one remote store — the second solver must answer without
touching its SAT core.  Worker-process traffic is exercised end to end by
``TestEngineTraffic`` below and ``test_scheduler.py`` (rotated batches).
"""

from __future__ import annotations

import pytest

from repro.api.memo import REARM_AFTER_CALLS, CheckMemoClient, SharedCheckMemo
from repro.smt.solver import SmtResult, SmtSolver
from repro.smt.terms import bv_const, bv_var
from repro.smt.wire import check_wire_key, term_digest


def _query_solver(remote: SharedCheckMemo, client_id: str) -> SmtSolver:
    solver = SmtSolver()
    solver.set_memo_backend(CheckMemoClient(remote, client_id))
    return solver


def _multiply_query(solver: SmtSolver, width: int = 8) -> SmtResult:
    x = bv_var("x", width)
    solver.add((x * bv_const(3, width)).eq(bv_const(15, width)))
    return solver.check()


class _DeadRemote:
    def lookup(self, key, requester):
        raise ConnectionResetError("manager gone")

    def publish(self, *args):
        raise ConnectionResetError("manager gone")


class _FlakyRemote(SharedCheckMemo):
    """A store that fails its first ``failures`` calls."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self) -> None:
        self.calls += 1
        if self.calls <= self.failures:
            raise EOFError("manager restarting")

    def lookup(self, key, requester):
        self._maybe_fail()
        return super().lookup(key, requester)

    def publish(self, key, verdict, model_bits, publisher):
        self._maybe_fail()
        super().publish(key, verdict, model_bits, publisher)


class TestSharedCheckMemoStore:
    def test_lru_eviction_bound(self):
        store = SharedCheckMemo(capacity=4)
        for index in range(10):
            store.publish(f"key-{index}", "sat", [True], "w0")
        assert store.size() == 4
        statistics = store.statistics()
        assert statistics["evictions"] == 6
        assert statistics["publishes"] == 10
        # The four most recent keys survived, the old ones are gone.
        assert store.lookup("key-9", "w0") is not None
        assert store.lookup("key-5", "w0") is None

    def test_lookup_refreshes_recency(self):
        store = SharedCheckMemo(capacity=2)
        store.publish("a", "sat", None, "w0")
        store.publish("b", "sat", None, "w0")
        assert store.lookup("a", "w0") is not None  # refresh a
        store.publish("c", "sat", None, "w0")  # evicts b, not a
        assert store.lookup("a", "w0") is not None
        assert store.lookup("b", "w0") is None

    def test_cross_worker_hits_counted_per_publisher(self):
        store = SharedCheckMemo(capacity=8)
        store.publish("k", "unsat", None, "worker-0")
        assert store.lookup("k", "worker-0") == ("unsat", None)
        assert store.lookup("k", "worker-1") == ("unsat", None)
        statistics = store.statistics()
        assert statistics["hits"] == 2
        assert statistics["cross_worker_hits"] == 1

    def test_first_writer_wins(self):
        store = SharedCheckMemo(capacity=8)
        store.publish("k", "sat", [True], "w0")
        store.publish("k", "unsat", None, "w1")
        assert store.lookup("k", "w2") == ("sat", [True])
        assert store.statistics()["duplicate_publishes"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SharedCheckMemo(capacity=0)


class TestCheckMemoClient:
    def test_without_remote_the_local_store_answers(self):
        client = CheckMemoClient()
        assert client.lookup("k") is None
        client.publish("k", "sat", [True])
        assert client.lookup("k") == ("sat", [True], False)
        statistics = client.statistics()
        assert statistics["local_hits"] == 1
        assert statistics["publishes"] == 1
        assert statistics["remote_misses"] == 0
        assert statistics["local_cache"]["entries"] == 1

    def test_local_store_answers_before_the_remote(self):
        remote = SharedCheckMemo()
        client = CheckMemoClient(remote, "w0")
        client.publish("k", "unsat", None)
        assert remote.lookup("k", "other") == ("unsat", None)  # reached it
        lookups = remote.statistics()["lookups"]
        assert client.lookup("k") == ("unsat", None, False)
        assert remote.statistics()["lookups"] == lookups

    def test_remote_hit_is_copied_locally(self):
        remote = SharedCheckMemo()
        remote.publish("k", "sat", [False, True], "w0")
        client = CheckMemoClient(remote, "w1")
        assert client.lookup("k") == ("sat", [False, True], True)
        assert remote.statistics()["cross_worker_hits"] == 1
        assert client.lookup("k") == ("sat", [False, True], False)
        assert remote.statistics()["lookups"] == 1
        statistics = client.statistics()
        assert (statistics["remote_hits"], statistics["local_hits"]) == (1, 1)

    def test_dead_remote_fails_open(self):
        client = CheckMemoClient(_DeadRemote(), "w0")
        assert client.lookup("k") is None
        assert client.degraded()
        client.publish("k", "sat", None)  # must not raise
        # The local store still serves what this process decided.
        assert client.lookup("k") == ("sat", None, False)
        assert client.statistics()["degradations"] == 1

    def test_counter_based_rearm(self):
        remote = _FlakyRemote(failures=1)
        client = CheckMemoClient(remote, "w1")
        assert client.lookup("trip") is None  # the failing call
        assert client.degraded()
        remote.publish("warm", "unsat", None, "w0")
        calls = remote.calls
        for index in range(REARM_AFTER_CALLS - 1):
            assert client.lookup(f"cooldown-{index}") is None
        assert remote.calls == calls  # degraded calls skip the remote
        # The next call is the re-arm probe and reaches the store.
        assert client.lookup("warm") == ("unsat", None, True)
        assert not client.degraded()
        statistics = client.statistics()
        assert statistics["degraded_calls"] == REARM_AFTER_CALLS
        assert statistics["rearms"] == 1

    def test_failed_rearm_restarts_the_cooldown(self):
        client = CheckMemoClient(_DeadRemote(), "w0")
        client.lookup("trip")
        for index in range(REARM_AFTER_CALLS - 1):
            client.lookup(f"cooldown-{index}")
        assert client.lookup("probe") is None
        assert client.degraded()
        statistics = client.statistics()
        assert (statistics["rearms"], statistics["degradations"]) == (1, 2)


class TestWireKeys:
    def test_digest_is_structural_not_identity(self):
        cache_a: dict = {}
        cache_b: dict = {}
        x = bv_var("x", 8)
        formula = (x + bv_const(1, 8)).eq(bv_const(5, 8))
        again = (bv_var("x", 8) + bv_const(1, 8)).eq(bv_const(5, 8))
        assert term_digest(formula, cache_a) == term_digest(again, cache_b)

    def test_width_changes_the_key(self):
        def key(width: int) -> str:
            x = bv_var("x", width)
            formula = x.eq(bv_const(1, width))
            return check_wire_key((formula,), (), 10, {})

        assert key(8) != key(16)

    def test_frontier_changes_the_key(self):
        x = bv_var("x", 8)
        formula = x.eq(bv_const(1, 8))
        assert check_wire_key((formula,), (), 10, {}) != check_wire_key(
            (formula,), (), 11, {}
        )


class TestSolverIntegration:
    def test_second_solver_answers_from_shared_memo_without_search(self):
        store = SharedCheckMemo(capacity=64)
        first = _query_solver(store, "worker-0")
        assert _multiply_query(first) is SmtResult.SAT
        witness = first.model()["x"]

        second = _query_solver(store, "worker-1")
        assert _multiply_query(second) is SmtResult.SAT
        assert second.statistics.shared_memo_hits == 1
        assert second.statistics.check_memo_hits == 1
        # The SAT search never ran: no decisions, no conflicts.
        assert second.sat_statistics().decisions == 0
        assert second.model()["x"] == witness
        assert store.statistics()["cross_worker_hits"] == 1

    def test_shared_hit_is_cached_locally(self):
        store = SharedCheckMemo(capacity=64)
        assert _multiply_query(_query_solver(store, "w0")) is SmtResult.SAT
        solver = _query_solver(store, "w1")
        x = bv_var("x", 8)
        query = (x * bv_const(3, 8)).eq(bv_const(15, 8))
        solver.add(query)
        lookups_before = store.statistics()["lookups"]
        assert solver.check() is SmtResult.SAT
        assert store.statistics()["lookups"] == lookups_before + 1
        # The repeat answers locally, no second round trip.
        assert solver.check() is SmtResult.SAT
        assert store.statistics()["lookups"] == lookups_before + 1
        assert solver.statistics.check_memo_hits == 2
        assert solver.statistics.shared_memo_hits == 1

    def test_memo_hits_survive_an_intern_table_reset(self):
        from repro.smt.terms import clear_intern_table

        client = CheckMemoClient()
        first = SmtSolver()
        first.set_memo_backend(client)
        assert _multiply_query(first) is SmtResult.SAT
        old_x = bv_var("x", 8)
        clear_intern_table()
        # Keys are structural digests, so the rebuilt (new-generation)
        # query finds the verdict recorded for the old terms.
        assert bv_var("x", 8) is not old_x
        second = SmtSolver()
        second.set_memo_backend(client)
        assert _multiply_query(second) is SmtResult.SAT
        assert second.statistics.check_memo_hits == 1
        assert second.sat_statistics().decisions == 0
        assert second.model()["x"] == first.model()["x"]

    def test_unknown_answers_are_never_published(self):
        store = SharedCheckMemo(capacity=64)
        solver = SmtSolver()
        solver.set_job_limits(max_conflicts=0)
        client = CheckMemoClient(store, "w0")
        solver.set_memo_backend(client)
        x = bv_var("x", 8)
        # Hard enough to exhaust a zero-conflict budget.
        solver.add((x * x).eq(bv_const(49, 8)), x.ugt(bv_const(8, 8)))
        assert solver.check() is SmtResult.UNKNOWN
        assert store.statistics()["publishes"] == 0
        assert client.local.statistics()["publishes"] == 0


class TestPoolWiring:
    def test_pool_installs_its_backend_on_new_sessions(self):
        from repro.api.config import EngineConfig
        from repro.api.pool import SolverPool

        client = CheckMemoClient()
        pool = SolverPool(EngineConfig(), memo_backend=client)
        lease = pool.acquire(shape="s")
        assert lease.solver._memo_backend is client
        pool.release(lease)

    def test_pool_without_backend_gives_each_session_a_private_memo(self):
        from repro.api.config import EngineConfig
        from repro.api.pool import SolverPool

        pool = SolverPool(EngineConfig())
        first = pool.acquire(shape="a")
        second = pool.acquire(shape="b")
        backends = {id(first.solver._memo_backend), id(second.solver._memo_backend)}
        assert None not in (first.solver._memo_backend, second.solver._memo_backend)
        assert len(backends) == 2
        pool.release(second)
        pool.release(first)

    def test_engine_reports_shared_memo_statistics(self):
        from repro.api import DeobfuscationProblem, EngineConfig, SciductionEngine

        engine = SciductionEngine(EngineConfig(workers=1))
        engine.run(DeobfuscationProblem(task="multiply45", width=4, seed=0))
        statistics = engine.statistics()
        assert statistics["shared_memo"]["publishes"] > 0
        # run() never starts the worker fleet, so no manager store exists.
        assert statistics["shared_memo"]["manager_available"] is None
        assert "pool" in statistics and "scheduler" in statistics


class TestEngineTraffic:
    """The traffic the one memo serves, on sequential and parallel engines."""

    TIMING = {
        "kind": "timing-analysis",
        "program": "bounded_linear_search",
        "program_args": {"length": 4, "word_width": 16},
        "bound": 250,
    }
    DEOBFUSCATION = {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0}

    @staticmethod
    def _smt(result) -> dict:
        return result.details["engine"]["smt_job_statistics"]

    def test_repeat_on_a_recycled_session_answers_from_the_memo(self):
        from repro.api import EngineConfig, SciductionEngine

        engine = SciductionEngine(EngineConfig(pool_size=1))
        first = engine.run(dict(self.TIMING))
        engine.run(dict(self.DEOBFUSCATION))  # recycles the timing session
        again = engine.run(dict(self.TIMING))
        assert engine.pool.statistics.solvers_retired >= 1
        assert again.details["engine"]["session_reused"] is False
        assert (again.success, again.verdict) == (first.success, first.verdict)
        stats = self._smt(again)
        assert stats["checks"] == self._smt(first)["checks"] > 0
        assert stats["check_memo_hits"] == stats["checks"]
        # Served by this process's memo, not by a remote store.
        assert stats["shared_memo_hits"] == 0
        assert again.details["engine"]["sat_job_statistics"]["decisions"] == 0

    def test_worker_repeat_makes_no_second_manager_lookup(self):
        from repro.api import EngineConfig, SciductionEngine

        problems = [dict(self.TIMING), dict(self.DEOBFUSCATION)]
        with SciductionEngine(EngineConfig(workers=2, pool_size=1)) as engine:
            engine.run_batch([dict(problem) for problem in problems])
            # The per-batch rotation swaps the two shapes between the
            # workers: each answers the other's checks from the parent's
            # store.
            moved = engine.run_batch([dict(problem) for problem in problems])
            after_move = engine.statistics()["shared_memo"]
            assert after_move["cross_worker_hits"] > 0, after_move
            for result in moved:
                assert self._smt(result)["shared_memo_hits"] > 0
            # Rotated back: each worker's own memo still holds the checks
            # it decided in the first batch, although its session for the
            # shape was recycled, so no check reaches the manager.
            back = engine.run_batch([dict(problem) for problem in problems])
            after_back = engine.statistics()["shared_memo"]
            assert after_back["lookups"] == after_move["lookups"]
            for result in back:
                stats = self._smt(result)
                assert stats["check_memo_hits"] == stats["checks"] > 0
                assert stats["shared_memo_hits"] == 0

    def test_worker_memo_client_counters_reach_engine_statistics(self):
        import json

        from repro.api import EngineConfig, SciductionEngine
        from repro.api.results import result_to_dict

        problems = [dict(self.TIMING), dict(self.DEOBFUSCATION)]
        with SciductionEngine(EngineConfig(workers=2, pool_size=1)) as engine:
            first = engine.run_batch([dict(problem) for problem in problems])
            statistics = engine.statistics()
            assert statistics["shared_memo"]["manager_available"] is True
            workers = statistics["workers"]
            assert len(workers) == 2, workers
            for record in workers.values():
                memo = record["memo_client"]
                assert memo["degraded"] is False
                assert memo["degradations"] == 0
                assert memo["publishes"] > 0
                assert {"local_hits", "remote_hits"} <= set(memo)
            # Each worker reports its own measurement memo; only the one
            # that ran the timing job has looked anything up.
            platform = [record["platform_memo"] for record in workers.values()]
            assert sorted(memo["lookups"] > 0 for memo in platform) == [False, True]
            # The manager serving the shared store goes away: the next
            # batch moves each shape to the other worker, whose lookups
            # miss locally, fail on the dead proxy and degrade the client.
            engine._fleet._memo_manager.shutdown()
            moved = engine.run_batch([dict(problem) for problem in problems])
            assert [(r.success, r.verdict) for r in moved] == [
                (r.success, r.verdict) for r in first
            ]
            statistics = engine.statistics()
            for record in statistics["workers"].values():
                memo = record["memo_client"]
                assert memo["degraded"] is True, memo
                assert memo["degradations"] >= 1
            # The manager store's counters are gone from the sums, and the
            # section says so instead of silently shrinking.
            assert statistics["shared_memo"]["manager_available"] is False
            # Telemetry only: the counters never enter a result.
            for result in first + moved:
                assert "memo_client" not in json.dumps(result_to_dict(result))
                assert "platform_memo" not in json.dumps(result_to_dict(result))
