"""Memo service + node client: RPC, auth, degraded mode, counter-based re-arm.

A node's memo client is the one :class:`~repro.api.memo.CheckMemoClient`
with a :class:`~repro.cluster.memoclient.RemoteMemoStore` as its remote.
"""

from __future__ import annotations

import pytest

from repro.api.memo import REARM_AFTER_CALLS, CheckMemoClient
from repro.cluster.auth import TokenSet
from repro.cluster.memoclient import RemoteMemoStore
from repro.cluster.memod import MemoService
from repro.cluster.protocol import ProtocolError
from repro.testing import faults


@pytest.fixture
def memod():
    service = MemoService()
    service.start()
    yield service
    service.close()


def store_for(service: MemoService, client_id: str, token: str | None = None):
    return RemoteMemoStore(
        "127.0.0.1", service.port, client_id=client_id, token=token
    )


def client_for(service: MemoService, client_id: str) -> CheckMemoClient:
    return CheckMemoClient(store_for(service, client_id), client_id)


class TestRemoteMemoStore:
    def test_miss_publish_hit(self, memod):
        store = store_for(memod, "n1")
        try:
            assert store.lookup("k1", "n1") is None
            store.publish("k1", "unsat", None, "n1")
            assert store.lookup("k1", "n1") == ("unsat", None)
            store.publish("k2", "sat", [True, False, True], "n1")
            assert store.lookup("k2", "n1") == ("sat", [True, False, True])
        finally:
            store.close()

    def test_cross_client_hits_are_counted(self, memod):
        publisher = store_for(memod, "n1")
        requester = store_for(memod, "n2")
        try:
            publisher.publish("shared", "unsat", None, "n1")
            assert requester.lookup("shared", "n2") == ("unsat", None)
            stats = requester.statistics()
            assert stats["cross_worker_hits"] == 1
            assert stats["publishes"] == 1
            assert stats["service"]["connections"] == 2
        finally:
            publisher.close()
            requester.close()

    def test_ping(self, memod):
        store = store_for(memod, "n1")
        try:
            assert store.ping() is True
        finally:
            store.close()

    def test_ping_false_when_down(self, memod):
        store = store_for(memod, "n1")
        memod.close()
        try:
            assert store.ping() is False
        finally:
            store.close()

    def test_reconnects_after_teardown(self, memod):
        store = store_for(memod, "n1")
        try:
            store.publish("k", "unsat", None, "n1")
            # Simulate a dropped connection: the next call re-dials.
            store._teardown()
            assert store.lookup("k", "n1") == ("unsat", None)
        finally:
            store.close()


class TestMemodAuth:
    @pytest.fixture
    def authed(self):
        service = MemoService(tokens=TokenSet.from_spec("ci:sekret"))
        service.start()
        yield service
        service.close()

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
        assert authed.statistics()["service"]["auth_failures"] >= 1

    def test_missing_token_rejected(self, authed):
        store = store_for(authed, "n1", token=None)
        try:
            with pytest.raises(ProtocolError):
                store.lookup("k", "n1")
        finally:
            store.close()


class TestNodeMemoClient:
    def test_read_through_cache(self, memod):
        publisher = store_for(memod, "n1")
        client = client_for(memod, "n2")
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

    def test_publish_goes_both_ways(self, memod):
        client = client_for(memod, "n1")
        other = store_for(memod, "n2")
        try:
            client.publish("k", "sat", [True])
            assert other.lookup("k", "n2") == ("sat", [True])  # reached memod
            assert client.lookup("k") == ("sat", [True], False)  # and locally
            assert client.statistics()["local_hits"] == 1
        finally:
            client.close()
            other.close()

    def test_degrades_silently_when_service_dies(self, memod):
        client = client_for(memod, "n1")
        try:
            client.publish("k", "unsat", None)
            memod.close()
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

    def test_degraded_calls_skip_the_network(self, memod):
        client = client_for(memod, "n1")
        try:
            memod.close()
            client.remote._teardown()
            client.lookup("x")  # trips the degradation
            for index in range(10):
                assert client.lookup(f"miss-{index}") is None
            stats = client.statistics()
            assert stats["degraded_calls"] == 10
            assert stats["rearms"] == 0
        finally:
            client.close()

    def test_rearm_after_cooldown_with_restarted_service(self, memod):
        client = client_for(memod, "n1")
        publisher = store_for(memod, "n2")
        try:
            publisher.publish("warm", "unsat", None, "n2")
            port = memod.port
            memod.close()
            client.remote._teardown()
            client.lookup("trip")  # degrade
            assert client.degraded()
            # Service comes back on the same port.
            revived = MemoService(port=port)
            revived.start()
            try:
                publisher2 = store_for(revived, "n3")
                publisher2.publish("warm", "unsat", None, "n3")
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
                publisher2.close()
            finally:
                revived.close()
        finally:
            publisher.close()
            client.close()

    def test_failed_rearm_restarts_cooldown(self, memod):
        client = client_for(memod, "n1")
        try:
            memod.close()
            client.remote._teardown()
            client.lookup("trip")
            for index in range(REARM_AFTER_CALLS - 1):
                client.lookup(f"cooldown-{index}")
            # Probe fires against a still-dead service: degrade again.
            assert client.lookup("probe") is None
            assert client.degraded()
            stats = client.statistics()
            assert stats["rearms"] == 1
            assert stats["degradations"] == 2
        finally:
            client.close()


class TestMemodFaultPoint:
    def test_memod_down_fault_drops_connections(self, memod):
        client = client_for(memod, "n1")
        try:
            client.publish("k", "unsat", None)
            with faults.injected({"memod.down": faults.Fault("raise", "EIO")}):
                # Force a fresh dial: the armed service drops every new
                # connection before the hello completes, and the client
                # degrades instead of raising into the caller.
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

    def test_counters_and_degradation_are_reported_per_node(self, memod):
        import json
        import threading
        import time

        from repro.api.config import EngineConfig
        from repro.api.results import result_to_dict
        from repro.cluster.coordinator import ClusterEngine
        from repro.cluster.node import NodeAgent

        cluster = ClusterEngine(EngineConfig(), node_wait=10.0)
        agent = NodeAgent(
            "alpha",
            ("127.0.0.1", cluster.cluster_port),
            memod=("127.0.0.1", memod.port),
            quiet=True,
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while not cluster.cluster_statistics()["live_nodes"]:
                assert time.monotonic() < deadline, "node never registered"
                time.sleep(0.02)
            cluster.submit(dict(self.TIMING))
            first = cluster.run_batch()
            entry = cluster.cluster_statistics()["nodes"]["alpha"]
            memo = entry["memo_client"]
            assert memo["publishes"] > 0
            # The node's whole executor snapshot: pool counters and its
            # measurement memo's, like a worker's in engine statistics.
            assert entry["leases"] == 1
            assert entry["platform_memo"]["lookups"] > 0
            assert (memo["degraded"], memo["degradations"]) == (False, 0)
            # The memo service dies: the node's next remote call fails and
            # its client degrades, which /stats now shows.
            memod.close()
            agent.memo_client.remote._teardown()
            # Another CFG, so its checks miss the node's local store.
            cluster.submit(
                dict(self.TIMING, program_args={"length": 4, "word_width": 16})
            )
            second = cluster.run_batch()
            assert [r.success for r in first + second] == [True, True]
            memo = cluster.cluster_statistics()["nodes"]["alpha"]["memo_client"]
            assert memo["degraded"] is True
            assert memo["degradations"] >= 1
            for result in first + second:
                assert "memo_client" not in json.dumps(result_to_dict(result))
        finally:
            cluster.close()
            agent.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
