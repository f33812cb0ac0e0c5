#!/usr/bin/env python3
"""Service smoke check: HTTP results must equal in-process results.

Drives a running ``repro.service`` instance booted on a fresh data
directory (boot it separately, e.g.
``python -m repro.service --port 0 --port-file port.txt --data-dir svc``)
through the full zoo:

1. submits one job of **each registered problem kind** over HTTP, waits
   for it, and asserts the wire-form result is byte-identical (modulo
   wall-clock fields) to running the same spec on an in-process
   :class:`~repro.api.engine.SciductionEngine` with the same
   configuration and submission order;
2. resubmits the first spec: it must be answered **from the certificate
   store** with a result byte-identical to the first run's;
3. exercises **cancellation**: a queued job behind a slow one is
   DELETEd, must report ``cancelled`` with the engine's structured
   cancelled result;
4. sanity-checks ``/stats``, ``/problems`` and error responses.

Exits non-zero on any mismatch.  Usage::

    python benchmarks/check_service_smoke.py --base-url http://127.0.0.1:8080
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # standalone execution support
    sys.path.insert(0, str(_ROOT / "src"))

from repro.api import EngineConfig, SciductionEngine, result_wire_canonical

#: One small instance per problem kind (every paper application).
SMOKE_JOBS = (
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {
        "kind": "timing-analysis",
        "program": "bounded_linear_search",
        "program_args": {"length": 3, "word_width": 16},
        "bound": 250,
    },
    {
        "kind": "switching-logic",
        "system": "transmission",
        "omega_step": 0.5,
        "integration_step": 0.05,
        "horizon": 40.0,
    },
)


def call(base_url: str, method: str, path: str, body: dict | None = None):
    request = urllib.request.Request(
        base_url + path,
        method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_until_healthy(base_url: str, deadline_seconds: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            status, _ = call(base_url, "GET", "/healthz")
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError):
            pass
        time.sleep(0.2)
    raise RuntimeError(f"service at {base_url} never became healthy")


def wait_for_job(base_url: str, job_id: int, timeout_seconds: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout_seconds
    while time.monotonic() < deadline:
        status, record = call(base_url, "GET", f"/jobs/{job_id}")
        assert status == 200, (status, record)
        if record["done"]:
            return record
        time.sleep(0.1)
    raise RuntimeError(f"job {job_id} did not finish within {timeout_seconds}s")


def check_kind_parity(base_url: str) -> dict:
    """HTTP-submitted jobs must return the in-process engine's exact wire.

    Returns the first job's served result, as received.
    """
    # Submit sequentially (each waits for the previous) so the service
    # engine sees the same job order — and therefore the same warm-pool
    # evolution — as the in-process twin below.
    http_wires = []
    served = []
    for spec in SMOKE_JOBS:
        status, submitted = call(base_url, "POST", "/jobs", {"problem": dict(spec)})
        assert status == 202, (status, submitted)
        record = wait_for_job(base_url, submitted["job_id"])
        status, result = call(base_url, "GET", f"/jobs/{submitted['job_id']}/result")
        assert status == 200, (status, result)
        served.append(result)
        http_wires.append((record["state"], result_wire_canonical(result)))

    engine = SciductionEngine(EngineConfig(workers=1))
    for spec in SMOKE_JOBS:
        engine.run(dict(spec))
    local_wires = [
        (job.state.value, result_wire_canonical(job.result_wire()))
        for job in engine.jobs
    ]
    for index, (http, local) in enumerate(zip(http_wires, local_wires)):
        kind = SMOKE_JOBS[index]["kind"]
        assert http == local, (
            f"{kind}: HTTP wire differs from in-process wire\n"
            f"HTTP:  {json.dumps(http, sort_keys=True)[:2000]}\n"
            f"local: {json.dumps(local, sort_keys=True)[:2000]}"
        )
        print(f"  [ok] {kind}: HTTP result byte-identical to in-process run")
    return served[0]


def check_certificate_replay(base_url: str, first_result: dict) -> None:
    """A resubmitted spec is answered from the certificate store, unchanged."""
    status, submitted = call(
        base_url, "POST", "/jobs", {"problem": dict(SMOKE_JOBS[0])}
    )
    assert status == 202, (status, submitted)
    assert submitted["from_certificate"] is True, submitted
    status, result = call(base_url, "GET", f"/jobs/{submitted['job_id']}/result")
    assert status == 200, (status, result)
    assert json.dumps(result, sort_keys=True) == json.dumps(
        first_result, sort_keys=True
    ), "certificate-store result differs from the first run's"
    print("  [ok] resubmitted spec served from the certificate store, byte-identical")


def check_cancellation(base_url: str) -> None:
    """A job queued behind a slow one must be cancellable over HTTP."""
    slow = {"kind": "deobfuscation", "task": "multiply45", "width": 8, "seed": 0}
    status, blocker = call(
        base_url, "POST", "/jobs", {"problem": slow, "timeout": 60.0}
    )
    assert status == 202, (status, blocker)
    # A spec no earlier check ran: the certificate store cannot answer it.
    target_spec = {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 1}
    status, target = call(base_url, "POST", "/jobs", {"problem": target_spec})
    assert status == 202, (status, target)
    status, outcome = call(base_url, "DELETE", f"/jobs/{target['job_id']}")
    assert status == 200 and outcome.get("cancelled") is True, (status, outcome)
    status, record = call(base_url, "GET", f"/jobs/{target['job_id']}")
    assert record["state"] == "cancelled", record
    status, result = call(base_url, "GET", f"/jobs/{target['job_id']}/result")
    assert status == 200 and result["details"]["outcome"] == "cancelled", result
    print("  [ok] queued job cancelled over HTTP with structured result")
    # Cancelling it again must be a 409, unknown ids a 404.
    status, _ = call(base_url, "DELETE", f"/jobs/{target['job_id']}")
    assert status == 409, status
    status, _ = call(base_url, "DELETE", "/jobs/999999")
    assert status == 404, status
    # Let the blocker finish so shutdown is clean.
    record = wait_for_job(base_url, blocker["job_id"])
    assert record["state"] in {"completed", "timed-out"}, record
    print(f"  [ok] blocker resolved as {record['state']}")


def check_stats_and_errors(base_url: str) -> None:
    status, kinds = call(base_url, "GET", "/problems")
    assert status == 200 and set(kinds["kinds"]) >= {
        "deobfuscation",
        "timing-analysis",
        "switching-logic",
    }, kinds
    status, stats = call(base_url, "GET", "/stats")
    assert status == 200, stats
    for key in ("queue", "engine", "config"):
        assert key in stats, stats
    assert stats["queue"].get("completed", 0) >= len(SMOKE_JOBS), stats["queue"]
    status, error = call(base_url, "POST", "/jobs", {"problem": {"kind": "nope"}})
    assert status == 400, (status, error)
    status, error = call(base_url, "GET", "/jobs/424242")
    assert status == 404, (status, error)
    print("  [ok] /stats, /problems and error responses")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-url",
        required=True,
        help="base URL of a running repro.service instance",
    )
    arguments = parser.parse_args(argv)
    base_url = arguments.base_url.rstrip("/")
    wait_until_healthy(base_url)
    print(f"service smoke against {base_url}")
    first_result = check_kind_parity(base_url)
    check_certificate_replay(base_url, first_result)
    check_cancellation(base_url)
    check_stats_and_errors(base_url)
    print("service smoke passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
