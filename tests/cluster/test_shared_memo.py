"""The coordinator-hosted check memo: RPC, auth, degraded mode, re-arm.

A node's memo client is the one :class:`~repro.api.memo.CheckMemoClient`
with a :class:`~repro.cluster.memoclient.RemoteMemoStore` as its remote;
the store dials the coordinator's cluster listener, where a connection
opened with ``hello`` (instead of ``register``) is served ``lookup`` /
``publish`` frames from the :class:`~repro.cluster.coordinator.ClusterEngine`'s
one :class:`~repro.api.memo.SharedCheckMemo`.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api.config import EngineConfig
from repro.api.memo import REARM_AFTER_CALLS, CheckMemoClient
from repro.api.results import result_to_dict
from repro.cluster.auth import TokenSet
from repro.cluster.coordinator import ClusterEngine
from repro.cluster.memoclient import RemoteMemoStore
from repro.cluster.node import NodeAgent
from repro.cluster.protocol import FramedSocket, ProtocolError
from repro.smt.solver import SmtResult, SmtSolver
from repro.smt.terms import bv_const, bv_var
from repro.testing import faults


def start_coordinator(**kwargs) -> ClusterEngine:
    return ClusterEngine(EngineConfig(), node_wait=5.0, **kwargs)


@pytest.fixture
def coordinator():
    engine = start_coordinator()
    yield engine
    engine.close()


def store_for(engine: ClusterEngine, client_id: str, token: str | None = None):
    return RemoteMemoStore(
        "127.0.0.1", engine.cluster_port, client_id=client_id, token=token
    )


def client_for(engine: ClusterEngine, client_id: str) -> CheckMemoClient:
    return CheckMemoClient(store_for(engine, client_id), client_id)


class TestRemoteMemoStore:
    def test_miss_publish_hit(self, coordinator):
        store = store_for(coordinator, "n1")
        try:
            assert store.lookup("k1", "n1") is None
            store.publish("k1", "unsat", None, "n1")
            assert store.lookup("k1", "n1") == ("unsat", None)
            store.publish("k2", "sat", [True, False, True], "n1")
            assert store.lookup("k2", "n1") == ("sat", [True, False, True])
        finally:
            store.close()

    def test_cross_client_hits_are_counted(self, coordinator):
        publisher = store_for(coordinator, "n1")
        requester = store_for(coordinator, "n2")
        try:
            publisher.publish("shared", "unsat", None, "n1")
            assert requester.lookup("shared", "n2") == ("unsat", None)
            stats = coordinator.cluster_statistics()["memo"]
            assert stats["cross_worker_hits"] == 1
            assert stats["publishes"] == 1
            assert stats["capacity"] == 65536
        finally:
            publisher.close()
            requester.close()

    def test_memo_connections_are_not_nodes(self, coordinator):
        store = store_for(coordinator, "n1")
        try:
            store.publish("k", "unsat", None, "n1")
            stats = coordinator.cluster_statistics()
            assert stats["live_nodes"] == [] and stats["nodes"] == {}
        finally:
            store.close()

    def test_reconnects_after_teardown(self, coordinator):
        store = store_for(coordinator, "n1")
        try:
            store.publish("k", "unsat", None, "n1")
            # Simulate a dropped connection: the next call re-dials.
            store._teardown()
            assert store.lookup("k", "n1") == ("unsat", None)
        finally:
            store.close()


class TestMalformedPublish:
    """Only entries a solver could have decided enter the store."""

    MALFORMED = [
        ("sat", None),
        ("unknown", None),
        ("unsat", [True]),
        ("sat", [1, 0]),
        ("sat", "true"),
        (None, None),
    ]

    @staticmethod
    def _ult_zero_check(remote) -> tuple[SmtSolver, SmtResult]:
        """``x <u 0``, which is UNSAT on its own."""
        solver = SmtSolver()
        solver.set_memo_backend(CheckMemoClient(remote, "n2"))
        x = bv_var("x", 4)
        solver.add(x.ult(bv_const(0, 4)))
        return solver, solver.check()

    def test_a_malformed_entry_is_refused_and_never_replayed(self, coordinator):
        class _KeyRecorder:
            def __init__(self):
                self.keys: list[str] = []

            def lookup(self, key, requester):
                self.keys.append(key)
                return None

            def publish(self, *args):
                pass

        recorder = _KeyRecorder()
        self._ult_zero_check(recorder)
        (key,) = recorder.keys
        forger = store_for(coordinator, "n1")
        try:
            for verdict, bits in self.MALFORMED:
                with pytest.raises(ProtocolError, match="'sat' with a list"):
                    forger.publish(key, verdict, bits, "n1")
            assert coordinator.memo.statistics()["publishes"] == 0
            # A node's check is answered by its own search, not the forgery.
            remote = store_for(coordinator, "n2")
            try:
                solver, verdict = self._ult_zero_check(remote)
            finally:
                remote.close()
            assert verdict is SmtResult.UNSAT
            assert solver.statistics.check_memo_hits == 0
        finally:
            forger.close()

    def test_refusal_is_a_structured_400_and_the_connection_stays(self, coordinator):
        link = FramedSocket.connect("127.0.0.1", coordinator.cluster_port)
        try:
            link.send({"op": "hello", "client": "n1"})
            assert link.recv() == {"ok": True}
            link.send(
                {"op": "publish", "key": "k", "verdict": "sat", "bits": None}
            )
            refusal = link.recv()
            assert (refusal["ok"], refusal["status"]) == (False, 400)
            link.send({"op": "lookup", "key": "k"})
            assert link.recv() == {"ok": True, "found": None}
        finally:
            link.close()


class TestMemoAuth:
    @pytest.fixture
    def authed(self):
        engine = start_coordinator(tokens=TokenSet.from_spec("ci:sekret"))
        yield engine
        engine.close()

    def test_good_token(self, authed):
        store = store_for(authed, "n1", token="ci:sekret")
        try:
            store.publish("k", "unsat", None, "n1")
            assert store.lookup("k", "n1") == ("unsat", None)
        finally:
            store.close()

    def test_bad_token_rejected(self, authed):
        store = store_for(authed, "n1", token="wrong")
        try:
            with pytest.raises(ProtocolError, match="hello failed"):
                store.lookup("k", "n1")
        finally:
            store.close()
        assert authed.memo.statistics()["lookups"] == 0

    def test_missing_token_rejected(self, authed):
        store = store_for(authed, "n1", token=None)
        try:
            with pytest.raises(ProtocolError):
                store.lookup("k", "n1")
        finally:
            store.close()


class TestNodeMemoClient:
    def test_read_through_cache(self, coordinator):
        publisher = store_for(coordinator, "n1")
        client = client_for(coordinator, "n2")
        try:
            publisher.publish("k", "unsat", None, "n1")
            assert client.lookup("k") == ("unsat", None, True)  # remote hit
            assert client.lookup("k") == ("unsat", None, False)  # local hit
            stats = client.statistics()
            assert stats["remote_hits"] == 1
            assert stats["local_hits"] == 1
            assert not stats["degraded"]
        finally:
            publisher.close()
            client.close()

    def test_publish_goes_both_ways(self, coordinator):
        client = client_for(coordinator, "n1")
        other = store_for(coordinator, "n2")
        try:
            client.publish("k", "sat", [True])
            # Reached the coordinator's store, and the local one.
            assert other.lookup("k", "n2") == ("sat", [True])
            assert client.lookup("k") == ("sat", [True], False)
            assert client.statistics()["local_hits"] == 1
        finally:
            client.close()
            other.close()

    def test_degrades_silently_when_coordinator_dies(self, coordinator):
        client = client_for(coordinator, "n1")
        try:
            client.publish("k", "unsat", None)
            coordinator.close()
            client.remote._teardown()
            # The failed call degrades the client; no exception escapes.
            assert client.lookup("other") is None
            assert client.degraded()
            # Degraded lookups still answer from the local cache.
            assert client.lookup("k") == ("unsat", None, False)
            stats = client.statistics()
            assert stats["degradations"] == 1
            assert stats["local_hits"] == 1
        finally:
            client.close()

    def test_degraded_calls_skip_the_network(self, coordinator):
        client = client_for(coordinator, "n1")
        try:
            coordinator.close()
            client.remote._teardown()
            client.lookup("x")  # trips the degradation
            for index in range(10):
                assert client.lookup(f"miss-{index}") is None
            stats = client.statistics()
            assert stats["degraded_calls"] == 10
            assert stats["rearms"] == 0
        finally:
            client.close()

    def test_rearm_after_cooldown_with_restarted_coordinator(self, coordinator):
        client = client_for(coordinator, "n1")
        try:
            port = coordinator.cluster_port
            coordinator.close()
            client.remote._teardown()
            client.lookup("trip")  # degrade
            assert client.degraded()
            # The coordinator comes back on the same port, with an empty
            # memo that another node then warms.
            revived = start_coordinator(port=port)
            try:
                publisher = store_for(revived, "n3")
                publisher.publish("warm", "unsat", None, "n3")
                publisher.close()
                # Burn through the cooldown: these calls are local-only.
                for index in range(REARM_AFTER_CALLS - 1):
                    client.lookup(f"cooldown-{index}")
                assert client.degraded()
                # The next call is the re-arm probe and reaches the store.
                assert client.lookup("warm") == ("unsat", None, True)
                assert not client.degraded()
                stats = client.statistics()
                assert stats["rearms"] == 1
                assert stats["remote_hits"] == 1
            finally:
                revived.close()
        finally:
            client.close()

    def test_failed_rearm_restarts_cooldown(self, coordinator):
        client = client_for(coordinator, "n1")
        try:
            coordinator.close()
            client.remote._teardown()
            client.lookup("trip")
            for index in range(REARM_AFTER_CALLS - 1):
                client.lookup(f"cooldown-{index}")
            # Probe fires against a still-dead coordinator: degrade again.
            assert client.lookup("probe") is None
            assert client.degraded()
            stats = client.statistics()
            assert stats["rearms"] == 1
            assert stats["degradations"] == 2
        finally:
            client.close()


class TestMemoFaultPoint:
    def test_memo_down_fault_drops_connections(self, coordinator):
        client = client_for(coordinator, "n1")
        try:
            client.publish("k", "unsat", None)
            with faults.injected({"memo.down": faults.Fault("raise", "EIO")}):
                # Force a fresh dial: the armed coordinator drops every
                # new memo connection before the hello is answered, and
                # the client degrades instead of raising into the caller.
                client.remote._teardown()
                assert client.lookup("anything") is None
                assert client.degraded()
            # Still answering locally while degraded.
            assert client.lookup("k") == ("unsat", None, False)
        finally:
            client.close()


class TestHandshakeFailureCleanup:
    """A hello that dies must close the freshly dialed link (RES01)."""

    def _store_with_fake_link(self, monkeypatch, link):
        monkeypatch.setattr(
            "repro.cluster.memoclient.FramedSocket.connect",
            staticmethod(lambda *args, **kwargs: link),
        )
        return RemoteMemoStore("127.0.0.1", 1, client_id="n1")

    def test_transport_failure_during_hello_closes_link(self, monkeypatch):
        class _DeadLink:
            closed = False

            def send(self, payload):
                raise OSError("connection reset")

            def close(self):
                self.closed = True

        link = _DeadLink()
        store = self._store_with_fake_link(monkeypatch, link)
        with pytest.raises(OSError):
            store.lookup("k", "n1")
        assert link.closed
        assert store._link is None  # the next call re-dials

    def test_rejected_hello_closes_link(self, monkeypatch):
        class _RefusingLink:
            closed = False

            def send(self, payload):
                pass

            def recv(self):
                return {"ok": False, "error": "bad token"}

            def close(self):
                self.closed = True

        link = _RefusingLink()
        store = self._store_with_fake_link(monkeypatch, link)
        with pytest.raises(ProtocolError, match="bad token"):
            store.lookup("k", "n1")
        assert link.closed
        assert store._link is None


class TestNodeMemoStatistics:
    """A node's memo-client counters reach the coordinator's ``/stats``."""

    TIMING = {
        "kind": "timing-analysis",
        "program": "bounded_linear_search",
        "program_args": {"length": 3, "word_width": 16},
        "bound": 250,
    }

    def test_counters_and_degradation_are_reported_per_node(self, coordinator):
        agent = NodeAgent(
            "alpha", ("127.0.0.1", coordinator.cluster_port), quiet=True
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while not coordinator.cluster_statistics()["live_nodes"]:
                assert time.monotonic() < deadline, "node never registered"
                time.sleep(0.02)
            coordinator.submit(dict(self.TIMING))
            first = coordinator.run_batch()
            entry = coordinator.cluster_statistics()["nodes"]["alpha"]
            memo = entry["memo_client"]
            assert memo["publishes"] > 0
            # The node's whole executor snapshot: pool counters and its
            # measurement memo's, like a worker's in engine statistics.
            assert entry["leases"] == 1
            assert entry["platform_memo"]["lookups"] > 0
            assert (memo["degraded"], memo["degradations"]) == (False, 0)
            # The node's publishes reached the coordinator's store.
            assert coordinator.cluster_statistics()["memo"]["publishes"] > 0
            # The memo connection drops: the node's next remote call
            # fails and its client degrades, which /stats now shows.
            with faults.injected({"memo.down": faults.Fault("raise", "EIO")}):
                # Another CFG, so its checks miss the node's local store.
                coordinator.submit(
                    dict(self.TIMING, program_args={"length": 4, "word_width": 16})
                )
                second = coordinator.run_batch()
            assert [r.success for r in first + second] == [True, True]
            memo = coordinator.cluster_statistics()["nodes"]["alpha"]["memo_client"]
            assert memo["degraded"] is True
            assert memo["degradations"] >= 1
            for result in first + second:
                assert "memo_client" not in json.dumps(result_to_dict(result))
        finally:
            coordinator.close()
            agent.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
