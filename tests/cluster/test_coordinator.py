"""Coordinator scatter/gather against scripted protocol nodes.

These tests drive :class:`ClusterEngine` with *fake* nodes — threads
speaking the framed protocol, answering canned wire-form results — so
sharding, gathering, journaling and failover are all exercised in one
process, deterministically, without solver work.  Real multi-process
solving (and byte-parity against it) lives in ``test_failover.py``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import JobState
from repro.api.problems import problem_from_dict
from repro.cluster.auth import TokenSet
from repro.cluster.coordinator import ClusterEngine
from repro.cluster.hashring import rendezvous_owner
from repro.cluster.node import PROTOCOL_VERSION
from repro.cluster.protocol import FramedSocket, ProtocolError
from repro.service import SciductionService
from repro.service.journal import JobJournal, decode_record, recover
from repro.testing import faults

PROBLEMS = [
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 5, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 6, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 5, "seed": 0},
]


class FakeNode:
    """A scripted protocol peer: registers, answers jobs with canned results.

    Args:
        name: node name to register as.
        port: the coordinator's cluster port.
        token: registration token, when the coordinator requires auth.
        die_on_job: job_id at whose arrival the node drops its connection
            without answering (simulating a crash mid-job).

    ``replies`` maps a job_id to the result-frame fields sent for it in
    place of the canned completed result (e.g. a malformed payload).
    """

    def __init__(
        self,
        name: str,
        port: int,
        token: str | None = None,
        die_on_job: int | None = None,
    ) -> None:
        self.name = name
        self.token = token
        self.die_on_job = die_on_job
        self.received: list[int] = []
        self.replies: dict[int, dict] = {}
        self.ack: dict | None = None
        self.link = FramedSocket.connect("127.0.0.1", port)
        self._thread: threading.Thread | None = None

    def register(self) -> dict:
        registration = {
            "op": "register",
            "node": self.name,
            "protocol": PROTOCOL_VERSION,
        }
        if self.token is not None:
            registration["token"] = self.token
        self.link.send(registration)
        self.ack = self.link.recv()
        return self.ack

    def serve(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name=f"fake-{self.name}", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                frame = self.link.recv()
            except (OSError, ProtocolError, ValueError):
                # ValueError: close() racing a blocked recv leaves the
                # buffered reader reporting "I/O on closed file".
                return
            if frame is None:
                return
            if frame.get("op") == "drain":
                self.link.close()
                return
            if frame.get("op") != "job":
                continue
            payload = frame["payload"]
            job_id = payload["job_id"]
            self.received.append(job_id)
            if self.die_on_job is not None and job_id == self.die_on_job:
                self.link.close()
                return
            if job_id in self.replies:
                try:
                    self.link.send(
                        {"op": "result", "job_id": job_id, **self.replies[job_id]}
                    )
                except (OSError, ProtocolError):
                    return
                continue
            try:
                self.link.send(
                    {
                        "op": "result",
                        "job_id": job_id,
                        "payload": {
                            "state": "completed",
                            "error": None,
                            "elapsed": 0.0,
                            "result": {
                                "success": True,
                                "verdict": True,
                                "iterations": 1,
                                "oracle_queries": 0,
                                "deductive_queries": 0,
                                "elapsed": 0.0,
                                "artifact_repr": None,
                                "details": {
                                    "outcome": "verified",
                                    "label": payload.get("label"),
                                    "engine": {"job_id": job_id},
                                },
                                "certificate": None,
                            },
                        },
                    }
                )
            except (OSError, ProtocolError):
                return

    def close(self) -> None:
        self.link.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


@pytest.fixture
def engine():
    instance = ClusterEngine(EngineConfig(), node_wait=5.0)
    yield instance
    instance.close()


def failure_wire(details: dict) -> dict:
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


def same_bytes(left: dict | None, right: dict) -> bool:
    return json.dumps(left) == json.dumps(right)


def wait_for_live(engine: ClusterEngine, count: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(engine.cluster_statistics()["live_nodes"]) >= count:
            return
        time.sleep(0.02)
    raise AssertionError(f"{count} nodes never registered")


class TestRegistration:
    def test_register_and_ack(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            assert node.register()["ok"] is True
            wait_for_live(engine, 1)
            stats = engine.cluster_statistics()
            assert stats["live_nodes"] == ["alpha"]
            assert stats["nodes"]["alpha"]["registrations"] == 1
        finally:
            node.close()

    def test_empty_name_rejected(self, engine):
        node = FakeNode("", engine.cluster_port)
        try:
            ack = node.register()
            assert ack["ok"] is False and ack["status"] == 400
        finally:
            node.close()

    def test_wrong_protocol_rejected(self, engine):
        link = FramedSocket.connect("127.0.0.1", engine.cluster_port)
        try:
            link.send({"op": "register", "node": "x", "protocol": 999})
            ack = link.recv()
            assert ack["ok"] is False and "protocol" in ack["error"]
        finally:
            link.close()

    def test_reregistration_bumps_generation(self, engine):
        first = FakeNode("alpha", engine.cluster_port)
        first.register()
        wait_for_live(engine, 1)
        second = FakeNode("alpha", engine.cluster_port)
        try:
            assert second.register()["ok"] is True
            wait_for_live(engine, 1)
            stats = engine.cluster_statistics()
            assert stats["nodes"]["alpha"]["registrations"] == 2
            assert stats["live_nodes"] == ["alpha"]
        finally:
            first.close()
            second.close()


class TestAuthenticatedRegistration:
    @pytest.fixture
    def authed(self):
        instance = ClusterEngine(
            EngineConfig(), tokens=TokenSet.from_spec("fleet:sekret")
        )
        yield instance
        instance.close()

    def test_good_token(self, authed):
        node = FakeNode("alpha", authed.cluster_port, token="fleet:sekret")
        try:
            assert node.register()["ok"] is True
        finally:
            node.close()

    def test_bad_token_gets_401(self, authed):
        node = FakeNode("alpha", authed.cluster_port, token="wrong")
        try:
            ack = node.register()
            assert ack["ok"] is False and ack["status"] == 401
        finally:
            node.close()

    def test_missing_token_gets_401(self, authed):
        node = FakeNode("alpha", authed.cluster_port)
        try:
            ack = node.register()
            assert ack["ok"] is False and ack["status"] == 401
        finally:
            node.close()


class TestScatterGather:
    def test_jobs_shard_by_rendezvous_and_return_in_order(self, engine):
        nodes = [
            FakeNode(name, engine.cluster_port) for name in ("alpha", "beta")
        ]
        try:
            for node in nodes:
                node.register()
                node.serve()
            wait_for_live(engine, 2)
            jobs = [
                engine.submit(problem, label=f"sg-{index}")
                for index, problem in enumerate(PROBLEMS)
            ]
            results = engine.run_batch()
            assert len(results) == len(jobs)
            # Submission order: each result carries its label back.
            for index, result in enumerate(results):
                assert result.details["label"] == f"sg-{index}"
                assert result.details["engine"]["node"] in ("alpha", "beta")
            # Every job landed on its shape's rendezvous owner.
            by_name = {node.name: node for node in nodes}
            live = sorted(by_name)
            for job in jobs:
                owner = rendezvous_owner(job.problem.shape_key(), live)
                assert job.job_id in by_name[owner].received
            stats = engine.cluster_statistics()
            assert stats["reshards"] == 0
            completed = sum(
                record["jobs_completed"] for record in stats["nodes"].values()
            )
            assert completed == len(jobs)
        finally:
            for node in nodes:
                node.close()

    def test_cancelled_jobs_are_not_dispatched(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            node.register()
            node.serve()
            wait_for_live(engine, 1)
            keep = engine.submit(PROBLEMS[0], label="keep")
            dropped = engine.submit(PROBLEMS[1], label="dropped")
            assert engine.cancel(dropped)
            results = engine.run_batch()
            assert len(results) == 1
            assert keep.job_id in node.received
            assert dropped.job_id not in node.received
            assert same_bytes(
                dropped.result_wire(), failure_wire({"outcome": "cancelled"})
            )
        finally:
            node.close()

    def test_malformed_node_result_fails_the_job(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            node.register()
            node.serve()
            wait_for_live(engine, 1)
            broken = engine.submit(PROBLEMS[0], label="broken")
            intact = engine.submit(PROBLEMS[1], label="intact")
            node.replies[broken.job_id] = {
                "payload": {"state": "completed", "error": None, "elapsed": 0.5}
            }
            results = engine.run_batch()
            assert broken.state is JobState.FAILED
            assert broken.error == "malformed result from node 'alpha': 'result'"
            # The node's outcome never arrived, so no engine stamp.
            assert same_bytes(broken.result_wire(), failure_wire({
                "outcome": "failed", "error": broken.error,
            }))
            assert intact.state is JobState.COMPLETED and results[1].success
        finally:
            node.close()

    def test_result_frame_without_a_dict_payload_fails_the_job(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            node.register()
            node.serve()
            wait_for_live(engine, 1)
            job = engine.submit(PROBLEMS[0])
            node.replies[job.job_id] = {"payload": "garbage"}
            engine.run_batch()
            assert job.state is JobState.FAILED
            assert job.error.startswith("malformed result from node 'alpha': ")
        finally:
            node.close()

    def test_node_error_frame_fails_the_job_like_a_worker_error(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            node.register()
            node.serve()
            wait_for_live(engine, 1)
            job = engine.submit(PROBLEMS[0], label="undecodable")
            follow_up = engine.submit(PROBLEMS[0], label="after")
            message = "unknown problem kind 'plugin-only' (registered: [])"
            node.replies[job.job_id] = {"error": message}
            results = engine.run_batch()
            assert job.state is JobState.FAILED and job.error == message
            # The wire a worker process gives for the same payload.
            assert same_bytes(job.result_wire(), failure_wire({
                "outcome": "failed",
                "error": message,
                "engine": {
                    "job_id": job.job_id,
                    "label": "undecodable",
                    "state": "failed",
                    "pooled": True,
                    "session_reused": False,
                },
            }))
            assert follow_up.state is JobState.COMPLETED and results[1].success
            assert engine.cluster_statistics()["nodes"]["alpha"]["jobs_completed"] == 2
        finally:
            node.close()

    def test_node_executor_snapshot_is_stored_as_received(self, engine):
        node = FakeNode("alpha", engine.cluster_port)
        try:
            node.register()
            node.serve()
            wait_for_live(engine, 1)
            before = engine.cluster_statistics()["nodes"]["alpha"]
            assert before["memo_client"] is None and "leases" not in before
            job = engine.submit(PROBLEMS[0])
            snapshot = {"leases": 3, "memo_client": None, "platform_memo": {"hits": 1}}
            node.replies[job.job_id] = {
                "payload": {
                    "state": "completed",
                    "error": None,
                    "elapsed": 0.0,
                    "result": failure_wire({"outcome": "cancelled"}),
                    "executor": snapshot,
                }
            }
            engine.run_batch()
            entry = engine.cluster_statistics()["nodes"]["alpha"]
            assert {key: entry[key] for key in snapshot} == snapshot
        finally:
            node.close()


class TestFailover:
    def test_node_death_reshards_onto_survivor(self, engine, tmp_path):
        engine.journal = JobJournal(tmp_path / "journal.wal")
        # Find a problem owned by "alpha" so we can kill alpha mid-job.
        jobs = [
            engine.submit(problem, label=f"fo-{index}")
            for index, problem in enumerate(PROBLEMS)
        ]
        victim_jobs = [
            job
            for job in jobs
            if rendezvous_owner(job.problem.shape_key(), ["alpha", "beta"])
            == "alpha"
        ]
        assert victim_jobs, "expected alpha to own at least one shape"
        alpha = FakeNode(
            "alpha", engine.cluster_port, die_on_job=victim_jobs[0].job_id
        )
        beta = FakeNode("beta", engine.cluster_port)
        try:
            for node in (alpha, beta):
                node.register()
                node.serve()
            wait_for_live(engine, 2)
            results = engine.run_batch()
            assert all(result.success for result in results)
            # The victim's job was re-sent to the survivor.
            assert victim_jobs[0].job_id in beta.received
            # Reshard history names the dead node and the orphaned jobs.
            stats = engine.cluster_statistics()
            assert stats["reshards"] >= 1
            assert stats["resharding_events"][0]["node"] == "alpha"
            assert victim_jobs[0].job_id in stats["resharding_events"][0]["jobs"]
            assert stats["nodes"]["alpha"]["alive"] is False
            # The WAL recorded both placements and the failover.
            journal_text = (tmp_path / "journal.wal").read_text()
            assert '"event":"assigned"' in journal_text.replace(" ", "")
            assert '"event":"resharded"' in journal_text.replace(" ", "")
        finally:
            alpha.close()
            beta.close()

    def test_no_nodes_fails_jobs_with_structured_result(self):
        instance = ClusterEngine(EngineConfig(), node_wait=0.5)
        try:
            instance.submit(PROBLEMS[0], label="unplaceable")
            results = instance.run_batch()
            assert len(results) == 1
            assert not results[0].success
            assert "no cluster nodes" in results[0].details["error"]
            (job,) = instance.jobs
            assert job.error == (
                "no cluster nodes available within 0.5s; the job was never placed"
            )
            assert same_bytes(job.result_wire(), failure_wire({
                "outcome": "failed",
                "error": job.error,
                "engine": {
                    "job_id": job.job_id,
                    "label": "unplaceable",
                    "state": "failed",
                    "pooled": True,
                    "session_reused": False,
                },
            }))
        finally:
            instance.close()

    def test_net_partition_fault_reshards(self, engine):
        alpha = FakeNode("alpha", engine.cluster_port)
        beta = FakeNode("beta", engine.cluster_port)
        try:
            for node in (alpha, beta):
                node.register()
                node.serve()
            wait_for_live(engine, 2)
            engine.submit(PROBLEMS[0], label="partitioned")
            # The first dispatch attempt hits the partition; the link is
            # treated as dead and the job reshards onto the other node.
            with faults.injected(
                {"net.partition": faults.Fault("raise", "EPIPE", when="1")}
            ):
                results = engine.run_batch()
            assert len(results) == 1
            assert results[0].success
            assert engine.cluster_statistics()["reshards"] >= 0
        finally:
            alpha.close()
            beta.close()


def http(url: str, method: str = "GET", body: dict | None = None) -> dict:
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


class TestServiceJobIds:
    def test_http_ids_run_through_the_cluster_after_a_cert_hit(self, tmp_path):
        engine = ClusterEngine(EngineConfig(), node_wait=5.0)
        service = SciductionService(
            engine=engine, port=0, quiet=True, data_dir=tmp_path
        )
        engine.journal = service.journal
        # The node owning B's shape dies on HTTP job 3, which is B once a
        # cert hit has taken id 2.
        victim = rendezvous_owner(
            problem_from_dict(PROBLEMS[1]).shape_key(), ["alpha", "beta"]
        )
        nodes = [
            FakeNode(name, engine.cluster_port, die_on_job=3 if name == victim else None)
            for name in ("alpha", "beta")
        ]
        try:
            for node in nodes:
                node.register()
                node.serve()
            wait_for_live(engine, 2)
            service.start()
            url = service.url

            def submit(problem: dict) -> dict:
                return http(f"{url}/jobs", "POST", {"problem": problem})

            first = submit(PROBLEMS[0])
            assert http(f"{url}/jobs/{first['job_id']}?wait=30")["done"]
            hit = submit(PROBLEMS[0])
            assert hit["from_certificate"] is True
            second = submit(PROBLEMS[1])
            assert [first["job_id"], hit["job_id"], second["job_id"]] == [1, 2, 3]
            assert http(f"{url}/jobs/3?wait=30")["state"] == "completed"

            results = {
                job_id: http(f"{url}/jobs/{job_id}/result") for job_id in (1, 2, 3)
            }
            for job_id in (1, 3):
                assert results[job_id]["details"]["engine"]["job_id"] == job_id
            # The cert hit serves job 1's result, byte for byte.
            assert json.dumps(results[2]) == json.dumps(results[1])
            stats = http(f"{url}/stats")["cluster"]
            assert stats["resharding_events"] == [{"node": victim, "jobs": [3]}]
        finally:
            service.shutdown()
            for node in nodes:
                node.close()
        lines = (tmp_path / "journal.wal").read_bytes().splitlines(keepends=True)
        records = [decode_record(line) for line in lines]
        assigned = [
            record["job"] for record in records if record["event"] == "assigned"
        ]
        assert sorted(set(assigned)) == [1, 3] and assigned.count(3) == 2
        assert [job.job_id for job in recover(tmp_path / "journal.wal").finished] == [
            1, 2, 3,
        ]

