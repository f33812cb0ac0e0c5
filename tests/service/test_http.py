"""End-to-end HTTP tests against an in-process service instance.

One module-scoped service (ephemeral port, workers=1) serves every test;
the jobs are the smallest instances of each problem kind.  The headline
assertion mirrors the service-smoke CI job: a job submitted over HTTP
returns the byte-identical wire form of the same spec run on an
in-process engine.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.api import EngineConfig, SciductionEngine, result_wire_canonical
from repro.service import SciductionService

DEOB = {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0}
TIMING = {
    "kind": "timing-analysis",
    "program": "bounded_linear_search",
    "program_args": {"length": 3, "word_width": 16},
    "bound": 250,
}


@pytest.fixture(scope="module")
def service():
    instance = SciductionService(EngineConfig(workers=1), port=0, quiet=True)
    instance.start()
    yield instance
    instance.shutdown()


def call(service, method: str, path: str, body: dict | None = None):
    request = urllib.request.Request(
        service.url + path,
        method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def submit_and_wait(service, body: dict, timeout: float = 120.0) -> tuple[int, dict]:
    status, submitted = call(service, "POST", "/jobs", body)
    assert status == 202, (status, submitted)
    job_id = submitted["job_id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, record = call(service, "GET", f"/jobs/{job_id}")
        assert status == 200
        if record["done"]:
            return job_id, record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestHttpSurface:
    def test_healthz_and_problem_kinds(self, service):
        status, health = call(service, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        # Durability is off for this in-memory service instance.
        assert health["journal"] == {"enabled": False}
        assert health["certstore"] == {"enabled": False}
        status, kinds = call(service, "GET", "/problems")
        assert status == 200
        assert {"deobfuscation", "timing-analysis", "switching-logic"} <= set(
            kinds["kinds"]
        )

    def test_submitted_job_matches_in_process_wire(self, service):
        job_id, record = submit_and_wait(
            service, {"problem": dict(DEOB), "label": "parity"}
        )
        assert record["state"] == "completed"
        assert record["label"] == "parity"
        status, result = call(service, "GET", f"/jobs/{job_id}/result")
        assert status == 200

        engine = SciductionEngine(EngineConfig(workers=1))
        engine.submit(dict(DEOB), label="parity")
        engine.run_batch()
        local = engine.jobs[0].result_wire()
        http_wire = result_wire_canonical(result)
        local_wire = result_wire_canonical(local)
        # Engine job ids differ between the long-lived service engine and
        # the fresh twin; everything else must match byte for byte.
        http_wire["details"]["engine"].pop("job_id")
        local_wire["details"]["engine"].pop("job_id")
        assert http_wire == local_wire

    def test_timing_job_over_http(self, service):
        job_id, record = submit_and_wait(service, {"problem": dict(TIMING)})
        assert record["state"] == "completed"
        status, result = call(service, "GET", f"/jobs/{job_id}/result")
        assert status == 200
        assert result["verdict"] is True

    def test_job_listing_and_record_fields(self, service):
        job_id, _ = submit_and_wait(service, {"problem": dict(DEOB)})
        status, listing = call(service, "GET", "/jobs")
        assert status == 200
        entry = next(j for j in listing["jobs"] if j["job_id"] == job_id)
        assert entry["kind"] == "deobfuscation"
        status, record = call(service, "GET", f"/jobs/{job_id}")
        assert record["problem"]["kind"] == "deobfuscation"
        assert record["elapsed"] >= 0.0

    def test_cancel_queued_job(self, service):
        # A slow blocker keeps the runner busy while the target queues.
        status, blocker = call(
            service,
            "POST",
            "/jobs",
            {"problem": {"kind": "deobfuscation", "task": "multiply45", "width": 8}},
        )
        assert status == 202
        status, target = call(service, "POST", "/jobs", {"problem": dict(DEOB)})
        assert status == 202
        status, outcome = call(
            service, "DELETE", f"/jobs/{target['job_id']}"
        )
        assert status == 200 and outcome["cancelled"] is True
        status, record = call(service, "GET", f"/jobs/{target['job_id']}")
        assert record["state"] == "cancelled"
        status, result = call(service, "GET", f"/jobs/{target['job_id']}/result")
        assert status == 200
        assert result["details"]["outcome"] == "cancelled"
        # Double-cancel answers 409; the blocker still completes.
        status, _ = call(service, "DELETE", f"/jobs/{target['job_id']}")
        assert status == 409
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            _, record = call(service, "GET", f"/jobs/{blocker['job_id']}")
            if record["done"]:
                break
            time.sleep(0.05)
        assert record["state"] == "completed"

    def test_result_conflict_while_open_and_404s(self, service):
        status, _ = call(service, "GET", "/jobs/999999")
        assert status == 404
        status, _ = call(service, "GET", "/jobs/999999/result")
        assert status == 404
        status, _ = call(service, "DELETE", "/jobs/999999")
        assert status == 404
        status, _ = call(service, "GET", "/nope")
        assert status == 404
        status, submitted = call(
            service,
            "POST",
            "/jobs",
            {"problem": {"kind": "deobfuscation", "task": "multiply45", "width": 8, "seed": 1}},
        )
        assert status == 202
        status, body = call(
            service, "GET", f"/jobs/{submitted['job_id']}/result"
        )
        # Either still open (409) or already finished on a fast machine.
        assert status in (409, 200)
        submit_and_wait(service, {"problem": dict(DEOB)})  # drain

    def test_malformed_submissions(self, service):
        status, error = call(service, "POST", "/jobs", {"problem": {"kind": "nope"}})
        assert status == 400 and "unknown problem kind" in error["error"]
        status, error = call(service, "POST", "/jobs", {"nope": 1})
        assert status == 400
        # json.dumps writes inf as Infinity, which the server's parser
        # reads back as inf (as it does 1e400).
        status, error = call(
            service, "POST", "/jobs", {"problem": dict(DEOB), "max_conflicts": float("inf")}
        )
        assert status == 400 and "finite" in error["error"]
        # A NaN integration step would spin the simulation oracle until
        # the job deadline; it is refused at submission instead.
        status, error = call(
            service,
            "POST",
            "/jobs",
            {"problem": {"kind": "switching-logic", "integration_step": float("nan")}},
        )
        assert status == 400 and "'integration_step' must be finite" in error["error"]
        # An unknown start state used to fail the job late with an empty
        # error; it is refused at submission instead.
        status, error = call(
            service,
            "POST",
            "/jobs",
            {"problem": {"kind": "timing-analysis", "start_state": "hot"}},
        )
        assert status == 400 and "'start_state' must be 'cold' or 'warm'" in error["error"]
        # A seeded example the oracle disagrees with used to steer
        # synthesis to a wrong program reported as a success.
        status, error = call(
            service,
            "POST",
            "/jobs",
            {"problem": {**DEOB, "examples": [[[1], [5]]]}},
        )
        assert status == 400 and "'examples'[0] disagrees with the oracle" in error["error"]

    def test_keepalive_survives_error_replies(self, service):
        """Error paths must drain unread request bodies: under HTTP/1.1
        keep-alive, leftover body bytes would be parsed as the next
        request line and corrupt the connection."""
        import socket

        connection = socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        )
        try:
            body = json.dumps({"problem": {"kind": "deobfuscation"}}).encode()
            connection.sendall(
                b"POST /wrong HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            time.sleep(0.2)
            connection.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            time.sleep(0.3)
            data = connection.recv(65536).decode()
        finally:
            connection.close()
        assert data.startswith("HTTP/1.1 404"), data[:200]
        assert '"status": "ok"' in data, data[:600]
        assert "Bad request syntax" not in data

    def test_malformed_content_length_is_a_400(self, service):
        import socket

        connection = socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        )
        try:
            connection.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n"
            )
            data = connection.recv(65536).decode()
        finally:
            connection.close()
        assert data.splitlines()[0].split()[1] == "400", data[:200]

    def test_stats_payload(self, service):
        status, stats = call(service, "GET", "/stats")
        assert status == 200
        assert stats["queue"].get("completed", 0) >= 1
        assert "pool" in stats["engine"]
        assert "shared_memo" in stats["engine"]
        assert stats["config"]["workers"] == 1

    def test_stats_histograms(self, service):
        # At least one job was submitted and harvested by earlier tests.
        submit_and_wait(service, {"problem": dict(DEOB)})
        status, stats = call(service, "GET", "/stats")
        assert status == 200

        depth = stats["queue_depth"]
        assert depth["count"] >= 1
        assert depth["max"] >= 1
        assert sum(depth["buckets"].values()) == depth["count"]

        latency = stats["job_latency"]
        assert "deobfuscation" in latency
        per_kind = latency["deobfuscation"]
        assert per_kind["count"] >= 1
        assert per_kind["sum"] >= 0.0
        assert sum(per_kind["buckets"].values()) == per_kind["count"]


class TestLongPollAndAdmission:
    def test_wait_long_polls_until_terminal(self, service):
        status, submitted = call(service, "POST", "/jobs", {"problem": dict(DEOB)})
        assert status == 202
        # One request, no client-side polling loop: the reply arrives
        # only once the job is terminal.
        status, record = call(
            service, "GET", f"/jobs/{submitted['job_id']}?wait=60"
        )
        assert status == 200
        assert record["done"] is True
        assert record["state"] == "completed"

    def test_wait_times_out_with_open_record(self, service):
        status, submitted = call(
            service,
            "POST",
            "/jobs",
            {"problem": {"kind": "deobfuscation", "task": "multiply45", "width": 8, "seed": 2}},
        )
        assert status == 202
        status, record = call(
            service, "GET", f"/jobs/{submitted['job_id']}?wait=0.05"
        )
        # The wait elapsed: a 200 either way, done reflects reality.
        assert status == 200
        assert record["job_id"] == submitted["job_id"]
        submit_and_wait(service, {"problem": dict(DEOB)})  # drain the queue

    def test_wait_validation(self, service):
        job_id, _ = submit_and_wait(service, {"problem": dict(DEOB)})
        status, error = call(service, "GET", f"/jobs/{job_id}?wait=abc")
        assert status == 400 and "wait" in error["error"]
        status, error = call(service, "GET", f"/jobs/{job_id}?wait=-1")
        assert status == 400
        status, _ = call(service, "GET", "/jobs/999999?wait=1")
        assert status == 404

    def test_delete_terminal_job_is_structured_409(self, service):
        job_id, record = submit_and_wait(service, {"problem": dict(DEOB)})
        assert record["state"] == "completed"
        status, error = call(service, "DELETE", f"/jobs/{job_id}")
        assert status == 409
        assert error["cancelled"] is False
        assert error["state"] == "completed"
        assert error["status"] == 409
        assert "completed" in error["error"]

    def test_client_accounting_in_stats(self, service):
        submit_and_wait(
            service, {"problem": dict(DEOB), "client": "ci-shard-1"}
        )
        status, stats = call(service, "GET", "/stats")
        assert status == 200
        counters = stats["clients"]["ci-shard-1"]
        assert counters["submitted"] >= 1
        assert counters["completed"] >= 1
        assert counters["rejected"] == 0
        # Admission state rides along even for an unbounded queue.
        assert stats["admission"]["max_pending"] is None
        assert stats["admission"]["draining"] is False

    def test_queue_full_answers_429_with_retry_after(self):
        from repro.service import SciductionService as Service

        bounded = Service(EngineConfig(workers=1), port=0, quiet=True, max_pending=0)
        bounded.start()
        try:
            status, error = call(
                bounded, "POST", "/jobs", {"problem": dict(DEOB), "client": "burst"}
            )
            assert status == 429
            assert error["retry_after"] >= 1
            assert "full" in error["error"]
            request = urllib.request.Request(
                bounded.url + "/jobs",
                method="POST",
                data=json.dumps({"problem": dict(DEOB)}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            assert caught.value.code == 429
            assert int(caught.value.headers["Retry-After"]) >= 1
            status, stats = call(bounded, "GET", "/stats")
            assert stats["admission"]["rejected"] >= 2
            assert stats["admission"]["max_pending"] == 0
            assert stats["clients"]["burst"]["rejected"] == 1
        finally:
            bounded.shutdown()

    def test_draining_service_refuses_new_work(self):
        from repro.service import SciductionService as Service

        draining = Service(EngineConfig(workers=1), port=0, quiet=True)
        draining.start()
        try:
            job_id, record = submit_and_wait(draining, {"problem": dict(DEOB)})
            draining.queue.begin_drain()
            status, error = call(
                draining, "POST", "/jobs", {"problem": dict(DEOB)}
            )
            assert status == 503
            assert "shutting down" in error["error"]
            # Existing records stay readable during the drain.
            status, record = call(draining, "GET", f"/jobs/{job_id}")
            assert status == 200 and record["done"]
        finally:
            draining.shutdown()
