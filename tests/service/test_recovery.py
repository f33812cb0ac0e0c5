"""Crash/restart recovery of the real service process.

The headline robustness test: ``python -m repro.service`` is started as
a real subprocess with a journal directory, killed with ``SIGKILL``
mid-batch, and restarted on the same directory — every accepted job must
reach a terminal state, with results canonically identical to an
uninterrupted run on a fresh directory.  A second test sends ``SIGTERM``
and asserts the graceful-drain contract: in-flight jobs finish, the
journal ends on a clean-shutdown marker, and a replay re-enqueues
nothing.

The in-process tests at the end boot services on hand-written journals
and pin what a data directory serves: a replayed request the engine
cannot decode fails alone, and cancelled and replayed outcomes are
served byte for byte.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import EngineConfig, JobState, result_to_dict
from repro.api.engine import failure_result
from repro.service import SciductionService
from repro.service.journal import JobJournal, recover
from repro.testing import faults

#: Distinct problem shapes (different widths / kinds), so neither
#: session reuse nor memo warmth differs between an interrupted run
#: (which may re-run only a suffix of the batch) and a clean one.
PROBLEMS = [
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 5, "seed": 0},
    {
        "kind": "timing-analysis",
        "program": "bounded_linear_search",
        "program_args": {"length": 3, "word_width": 16},
        "bound": 250,
    },
]

REPO_ROOT = Path(__file__).resolve().parents[2]


def spawn_service(data_dir: Path, port_file: Path) -> subprocess.Popen:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--port-file", str(port_file),
            "--data-dir", str(data_dir),
            "--quiet",
        ],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return process
        if process.poll() is not None:
            raise AssertionError(
                f"service died on startup:\n{process.stdout.read().decode()}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError("service never wrote its port file")


def service_url(port_file: Path) -> str:
    return f"http://127.0.0.1:{port_file.read_text().strip()}"


def request(url: str, method: str = "GET", body: dict | None = None) -> dict:
    req = urllib.request.Request(
        url,
        method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as response:
        return json.loads(response.read())


def submit_all(url: str) -> list[int]:
    return [
        request(f"{url}/jobs", "POST", {"problem": problem})["job_id"]
        for problem in PROBLEMS
    ]


def wait_all(url: str, job_ids: list[int], timeout: float = 240.0) -> None:
    deadline = time.monotonic() + timeout
    for job_id in job_ids:
        while True:
            record = request(f"{url}/jobs/{job_id}?wait=30")
            if record["done"]:
                break
            if time.monotonic() > deadline:
                raise AssertionError(f"job {job_id} never finished")


def canonical_result(result: dict) -> dict:
    """Strip the volatile field, wall-clock elapsed.  The engine-side job
    id stays: it is the HTTP id, so a restart keeps it."""
    normalized = json.loads(json.dumps(result))
    normalized.pop("elapsed", None)
    return normalized


def collect_results(url: str, job_ids: list[int]) -> list[dict]:
    return [
        canonical_result(request(f"{url}/jobs/{job_id}/result"))
        for job_id in job_ids
    ]


def terminate(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkill_mid_batch_loses_no_accepted_job(self, tmp_path):
        crash_dir = tmp_path / "crash"
        port_file = tmp_path / "port-a"
        process = spawn_service(crash_dir, port_file)
        try:
            url = service_url(port_file)
            job_ids = submit_all(url)
            # All three 202s are journaled; now the process dies hard,
            # mid-batch, with no chance to flush anything further.
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            terminate(process)

        # Restart on the same journal directory: every accepted job must
        # come back (finished from the journal or re-enqueued) and reach
        # a terminal state.
        port_file2 = tmp_path / "port-b"
        restarted = spawn_service(crash_dir, port_file2)
        try:
            url = service_url(port_file2)
            listed = request(f"{url}/jobs")["jobs"]
            assert {job["job_id"] for job in listed} >= set(job_ids)
            wait_all(url, job_ids)
            recovered = collect_results(url, job_ids)
            for job_id in job_ids:
                record = request(f"{url}/jobs/{job_id}")
                assert record["state"] == "completed"
        finally:
            terminate(restarted)

        # Reference: the same submissions, uninterrupted, on a fresh dir.
        clean_dir = tmp_path / "clean"
        port_file3 = tmp_path / "port-c"
        reference = spawn_service(clean_dir, port_file3)
        try:
            url = service_url(port_file3)
            reference_ids = submit_all(url)
            wait_all(url, reference_ids)
            expected = collect_results(url, reference_ids)
        finally:
            terminate(reference)

        assert recovered == expected

    def test_sigterm_drains_and_marks_clean_shutdown(self, tmp_path):
        data_dir = tmp_path / "drain"
        port_file = tmp_path / "port"
        process = spawn_service(data_dir, port_file)
        try:
            url = service_url(port_file)
            job_ids = submit_all(url)
            process.send_signal(signal.SIGTERM)
            # The drain finishes every accepted job before exiting.
            process.wait(timeout=240)
            assert process.returncode == 0
        finally:
            terminate(process)

        replay = recover(data_dir / "journal.wal")
        assert replay.clean_shutdown
        assert not replay.unfinished
        assert sorted(job.job_id for job in replay.finished) == sorted(job_ids)
        assert all(job.state == "completed" for job in replay.finished)
        assert replay.truncated_bytes == 0


def raw_get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=120) as response:
        return response.read()


def served_bytes(wire: dict) -> bytes:
    """The bytes the service sends for a wire-form body."""
    return json.dumps(wire, sort_keys=True).encode("utf-8")


def accepted(job_id: int, problem: dict) -> dict:
    return {
        "event": "accepted",
        "job": job_id,
        "request": {
            "problem": problem,
            "max_conflicts": None,
            "timeout": None,
            "label": None,
            "client": None,
        },
    }


def write_journal(data_dir: Path, *records: dict) -> None:
    journal = JobJournal(data_dir / "journal.wal")
    for record in records:
        journal.append(record)
    journal.close()


@pytest.fixture
def boot():
    """Start in-process services on data directories; shut all down after."""
    started: list[SciductionService] = []

    def start(data_dir: Path) -> SciductionService:
        service = SciductionService(
            EngineConfig(workers=1), port=0, quiet=True, data_dir=data_dir
        )
        service.start()
        started.append(service)
        return service

    yield start
    faults.reset()  # never shut down with an armed plan
    for service in started:
        service.shutdown()


class TestRecordedOutcomes:
    def test_undecodable_replayed_request_fails_alone(self, tmp_path, boot):
        # Over MAX_TIMING_PATHS: POST /jobs would refuse it, but a journal
        # can still hold it (written by hand or by another version).
        problem = dict(PROBLEMS[2], max_paths=99999)
        write_journal(tmp_path, accepted(1, problem))
        url = boot(tmp_path).url
        record = request(f"{url}/jobs/1?wait=10")
        assert (record["state"], record["done"]) == ("failed", True)
        assert "max_paths" in record["error"]
        expected = result_to_dict(failure_result(JobState.FAILED, record["error"]))
        assert raw_get(f"{url}/jobs/1/result") == served_bytes(expected)
        # The runner survived: a later job runs.
        job_id = request(f"{url}/jobs", "POST", {"problem": PROBLEMS[0]})["job_id"]
        assert job_id == 2
        assert request(f"{url}/jobs/{job_id}?wait=60")["state"] == "completed"
        assert request(f"{url}/healthz")["status"] == "ok"
        replay = recover(tmp_path / "journal.wal")
        assert [(job.job_id, job.state) for job in replay.finished] == [
            (1, "failed"),
            (2, "completed"),
        ]
        assert replay.finished[0].result == expected

    def test_cancelled_while_queued_serves_the_engine_wire(self, tmp_path, boot):
        url = boot(tmp_path).url
        with faults.injected({"engine.slow": faults.Fault("sleep", "2")}):
            blocker = request(f"{url}/jobs", "POST", {"problem": PROBLEMS[0]})
            deadline = time.monotonic() + 30
            while request(f"{url}/jobs/{blocker['job_id']}")["state"] != "running":
                assert time.monotonic() < deadline, "blocker never started"
                time.sleep(0.02)
            target = request(f"{url}/jobs", "POST", {"problem": PROBLEMS[1]})
            assert request(f"{url}/jobs/{target['job_id']}")["state"] == "queued"
            outcome = request(f"{url}/jobs/{target['job_id']}", "DELETE")
            assert outcome == {"cancelled": True}
        expected = served_bytes(result_to_dict(failure_result(JobState.CANCELLED)))
        assert raw_get(f"{url}/jobs/{target['job_id']}/result") == expected

    def test_replayed_finished_job_serves_its_journaled_wire(self, tmp_path, boot):
        wire = {
            "success": True,
            "verdict": True,
            "iterations": 3,
            "oracle_queries": 7,
            "deductive_queries": 2,
            "elapsed": 0.3333333333333333,
            "artifact_repr": "r0 = x * 45",
            "details": {"zeta": [1, 2.5, None], "alpha": {"b": "é", "a": 1e-07}},
            "certificate": None,
        }
        finished = {
            "event": "finished",
            "job": 1,
            "state": "completed",
            "error": None,
            "elapsed": 0.125,
            "result": wire,
        }
        write_journal(tmp_path, accepted(1, PROBLEMS[0]), finished)
        url = boot(tmp_path).url
        assert raw_get(f"{url}/jobs/1/result") == served_bytes(wire)
        record = request(f"{url}/jobs/1")
        assert (record["state"], record["done"], record["error"], record["elapsed"]) == (
            "completed", True, None, 0.125,
        )


class TestRunnerSurvival:
    def test_a_raising_batch_fails_alone(self, tmp_path, boot, monkeypatch):
        service = boot(tmp_path)
        url = service.url
        run_batch = service.engine.run_batch
        calls = []

        def raise_once():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("injected batch failure")
            return run_batch()

        monkeypatch.setattr(service.engine, "run_batch", raise_once)
        first = request(f"{url}/jobs", "POST", {"problem": PROBLEMS[0]})["job_id"]
        record = request(f"{url}/jobs/{first}?wait=10")
        assert (record["state"], record["done"]) == ("failed", True)
        assert record["error"] == "batch failed: RuntimeError: injected batch failure"
        expected = result_to_dict(failure_result(JobState.FAILED, record["error"]))
        assert raw_get(f"{url}/jobs/{first}/result") == served_bytes(expected)
        # The runner survived: a later job runs, and the service is healthy.
        second = request(f"{url}/jobs", "POST", {"problem": PROBLEMS[1]})["job_id"]
        assert request(f"{url}/jobs/{second}?wait=60")["state"] == "completed"
        health = request(f"{url}/healthz")
        assert (health["status"], health["runner"]) == ("ok", {"alive": True})
        replay = recover(tmp_path / "journal.wal")
        assert [(job.job_id, job.state) for job in replay.finished] == [
            (first, "failed"),
            (second, "completed"),
        ]
