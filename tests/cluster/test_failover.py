"""The kill-one-node drill: real processes, SIGKILL, byte-identical results.

End to end, with every role a real subprocess: a coordinator and two
nodes solve a skewed job stream; one node is SIGKILLed mid-batch; every
job must still reach a terminal state, the results must be canonically
byte-identical to the same stream run on the plain single-process
service, and the survivor must have taken cross-node memo hits (from the
coordinator's shared check memo) on checks the dead node published
before it died.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cluster.hashring import rendezvous_owner

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parents[2]

NODE_NAMES = ["alpha", "beta"]


def shape_of(problem: dict) -> str:
    if problem["kind"] == "deobfuscation":
        return f"deobfuscation/w{problem['width']}"
    raise AssertionError(f"unmapped problem kind {problem['kind']}")


def build_stream() -> tuple[list[dict], str]:
    """A stream skewed onto one node (the victim) plus filler for the other.

    Duplicated victim-shape problems are what make cross-node memo hits
    observable: the victim publishes the first copy's check verdicts, the
    survivor re-runs the orphaned copies and hits them remotely.
    """
    candidates = [
        {"kind": "deobfuscation", "task": "multiply45", "width": w, "seed": 0}
        for w in (4, 5, 6, 7)
    ]
    owners = {
        shape_of(problem): rendezvous_owner(shape_of(problem), NODE_NAMES)
        for problem in candidates
    }
    victim = owners[shape_of(candidates[0])]
    stream: list[dict] = []
    for problem in candidates:
        copies = 4 if owners[shape_of(problem)] == victim else 1
        stream.extend([dict(problem)] * copies)
    return stream, victim


def wait_port(path: Path, deadline: float = 30.0) -> int:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise AssertionError(f"port file {path} never appeared")


def request(url: str, method: str = "GET", body: dict | None = None) -> dict:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(req, timeout=120) as response:
        return json.loads(response.read())


def submit_stream(base: str, stream: list[dict], prefix: str) -> list[int]:
    # Distinct labels per job: identical (problem, label) submissions
    # would dedupe through the certificate store and skip execution.
    return [
        request(
            f"{base}/jobs",
            "POST",
            {"problem": problem, "label": f"{prefix}-{index}"},
        )["job_id"]
        for index, problem in enumerate(stream)
    ]


def wait_all(base: str, job_ids: list[int], timeout: float = 300.0) -> None:
    deadline = time.monotonic() + timeout
    for job_id in job_ids:
        while True:
            record = request(f"{base}/jobs/{job_id}?wait=30")
            if record["done"]:
                break
            assert time.monotonic() < deadline, f"job {job_id} never finished"


def canonical(record: dict) -> dict:
    """Strip fields that legitimately differ across topologies.

    Verdicts, artifacts, certificates and procedure-level details must
    be byte-identical; wall-clock timing and per-engine bookkeeping
    (which node ran it, whether its session was warm, solver-internal
    counters that memo hits short-circuit) may not.
    """
    wire = json.loads(json.dumps(record))
    wire.pop("elapsed", None)
    details = wire.get("details", {})
    # Clause/variable generation counts measure how much NEW solver state
    # a job built, which depends on session warmth: a resharded job runs
    # cold on the survivor while the reference ran it on a warm session.
    details.pop("smt_clauses_generated", None)
    details.pop("smt_variables_generated", None)
    engine = details.get("engine")
    if isinstance(engine, dict):
        for volatile in (
            "node",
            "session_reused",
            "sat_job_statistics",
            "smt_job_statistics",
        ):
            engine.pop(volatile, None)
    return wire


def collect(base: str, job_ids: list[int]) -> list[dict]:
    return [
        canonical(request(f"{base}/jobs/{job_id}/result"))
        for job_id in job_ids
    ]


def spawn(command: list[str], **env_extra: str) -> subprocess.Popen:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    environment.update(env_extra)
    return subprocess.Popen(
        command,
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )


def terminate(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


class Cluster:
    """One coordinator + N nodes, cleaned up on exit."""

    def __init__(self, tmp_path: Path, victim: str, slow_victim: bool) -> None:
        self.tmp_path = tmp_path
        self.processes: dict[str, subprocess.Popen] = {}
        self.processes["coordinator"] = spawn(
            [
                sys.executable, "-m", "repro.cluster.coordinator",
                "--port", "0",
                "--port-file", str(tmp_path / "http.port"),
                "--cluster-port", "0",
                "--cluster-port-file", str(tmp_path / "cluster.port"),
                "--data-dir", str(tmp_path / "coordinator-data"),
                "--node-wait", "60",
                "--quiet",
            ]
        )
        self.http_port = wait_port(tmp_path / "http.port")
        self.cluster_port = wait_port(tmp_path / "cluster.port")
        self.base = f"http://127.0.0.1:{self.http_port}"
        for name in NODE_NAMES:
            env_extra = {}
            if slow_victim and name == victim:
                # Stretch each of the victim's jobs so the SIGKILL lands
                # mid-batch deterministically enough to reshard work.
                env_extra["REPRO_FAULTS"] = "engine.slow:sleep:0.4"
            self.processes[name] = spawn(
                [
                    sys.executable, "-m", "repro.cluster.node",
                    "--coordinator", f"127.0.0.1:{self.cluster_port}",
                    "--name", name,
                    "--quiet",
                ],
                **env_extra,
            )
        self.wait_live(len(NODE_NAMES))

    def wait_live(self, count: int, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            stats = request(f"{self.base}/stats")
            if len(stats["cluster"]["live_nodes"]) >= count:
                return
            time.sleep(0.1)
        raise AssertionError(f"{count} nodes never became live")

    def stats(self) -> dict:
        return request(f"{self.base}/stats")

    def close(self) -> None:
        for process in self.processes.values():
            terminate(process)


@pytest.fixture
def reference_results(tmp_path):
    """The same stream run on the plain single-process service."""

    def _run(stream: list[dict], prefix: str) -> list[dict]:
        port_file = tmp_path / "reference.port"
        process = spawn(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0",
                "--port-file", str(port_file),
                "--quiet",
            ]
        )
        try:
            base = f"http://127.0.0.1:{wait_port(port_file)}"
            job_ids = submit_stream(base, stream, prefix)
            wait_all(base, job_ids)
            return collect(base, job_ids)
        finally:
            terminate(process)

    return _run


class TestKillOneNodeDrill:
    def test_sigkill_mid_batch_reshards_with_identical_results(
        self, tmp_path, reference_results
    ):
        stream, victim = build_stream()
        cluster = Cluster(tmp_path, victim, slow_victim=True)
        try:
            job_ids = submit_stream(cluster.base, stream, "drill")

            # Let the victim finish at least one job (publishing its
            # check verdicts to the coordinator's memo), then SIGKILL it
            # mid-batch.
            deadline = time.monotonic() + 120
            while True:
                completed = cluster.stats()["cluster"]["nodes"].get(
                    victim, {}
                ).get("jobs_completed", 0)
                if completed >= 1:
                    break
                assert time.monotonic() < deadline, "victim never completed a job"
                time.sleep(0.05)
            cluster.processes[victim].send_signal(signal.SIGKILL)
            cluster.processes[victim].wait(timeout=30)

            wait_all(cluster.base, job_ids)
            records = [
                request(f"{cluster.base}/jobs/{job_id}") for job_id in job_ids
            ]
            assert all(
                record["state"] == "completed" for record in records
            ), [record["state"] for record in records]

            stats = cluster.stats()["cluster"]
            assert stats["nodes"][victim]["alive"] is False
            assert stats["reshards"] >= 1, "the kill never orphaned a job"
            resharded = {
                job_id
                for event in stats["resharding_events"]
                for job_id in event["jobs"]
            }
            assert resharded <= set(job_ids)
            # The survivor answered re-run checks from the dead node's
            # published verdicts: the cluster memo did cross-node work.
            assert stats["memo"]["cross_worker_hits"] > 0

            drill = collect(cluster.base, job_ids)
            reference = reference_results(stream, "drill")
            assert drill == reference
        finally:
            cluster.close()

    def test_node_crash_fault_point_reshards(self, tmp_path):
        """The scripted crash (``node.crash`` exit) behaves like SIGKILL."""
        stream, victim = build_stream()
        cluster = Cluster(tmp_path, victim, slow_victim=False)
        # Re-arm the victim with a crash on its second job instead.
        terminate(cluster.processes[victim])
        cluster.processes[victim] = spawn(
            [
                sys.executable, "-m", "repro.cluster.node",
                "--coordinator", f"127.0.0.1:{cluster.cluster_port}",
                "--name", victim,
                "--quiet",
            ],
            REPRO_FAULTS="node.crash:exit:9:2",
        )
        try:
            cluster.wait_live(len(NODE_NAMES))
            job_ids = submit_stream(cluster.base, stream, "crashfault")
            wait_all(cluster.base, job_ids)
            records = [
                request(f"{cluster.base}/jobs/{job_id}") for job_id in job_ids
            ]
            assert all(record["state"] == "completed" for record in records)
            stats = cluster.stats()["cluster"]
            assert stats["reshards"] >= 1
            assert stats["nodes"][victim]["alive"] is False
        finally:
            cluster.close()


class TestGracefulDrain:
    def test_sigterm_drains_coordinator_and_nodes(self, tmp_path):
        stream, victim = build_stream()
        cluster = Cluster(tmp_path, victim, slow_victim=False)
        try:
            job_ids = submit_stream(cluster.base, stream[:4], "drain")
            wait_all(cluster.base, job_ids)
            coordinator = cluster.processes["coordinator"]
            coordinator.send_signal(signal.SIGTERM)
            assert coordinator.wait(timeout=60) == 0
            # The drain frame reached the nodes; they exit 0 on their own.
            for name in NODE_NAMES:
                assert cluster.processes[name].wait(timeout=60) == 0
        finally:
            cluster.close()
