#!/usr/bin/env python3
"""Cluster load generator: end-to-end latency percentiles over HTTP.

Boots the full cluster topology (a coordinator and two nodes, every
role a real subprocess on an ephemeral port), then drives it with a
skewed job stream from concurrent clients the way a production caller
fleet would: each client submits one job and long-polls it to a
terminal state, and the submit→done wall time is that job's end-to-end
latency.  The report records p50/p95/p99 latency, throughput, and the
cluster's own counters (per-node completion, and the publishes and
hits of the coordinator's shared check memo).

The numbers are wall-clock and machine-dependent, so they are merged
into ``BENCH_perf.json`` under the ``cluster`` key as *information* —
the regression gate (``check_regression.py``) does not compare them.

Usage::

    python benchmarks/bench_cluster_load.py [--jobs 24] [--clients 8] \
        [--output BENCH_perf.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from tempfile import TemporaryDirectory

REPO_ROOT = Path(__file__).resolve().parent.parent

NODE_NAMES = ["alpha", "beta"]

#: The stream cycles these shapes; duplicates keep per-node sessions
#: warm and exercise the shared memo, the width skew makes one node's
#: shard heavier than the other's (the scheduler-stream shape the
#: work-stealing benchmark also uses).
SHAPE_CYCLE = [
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 5, "seed": 0},
    {"kind": "deobfuscation", "task": "multiply45", "width": 6, "seed": 0},
]


def call(base: str, method: str, path: str, body: dict | None = None) -> dict:
    request = urllib.request.Request(
        base + path,
        method=method,
        data=None if body is None else json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def wait_port(path: Path, deadline: float = 30.0) -> int:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise RuntimeError(f"port file {path} never appeared")


def spawn(command: list[str]) -> subprocess.Popen:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(command, env=environment, cwd=str(REPO_ROOT))


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def run_client(base: str, problem: dict, label: str) -> float:
    """Submit one job, long-poll it to a terminal state, return latency."""
    start = time.monotonic()
    job_id = call(base, "POST", "/jobs",
                  {"problem": problem, "label": label})["job_id"]
    while not call(base, "GET", f"/jobs/{job_id}?wait=30")["done"]:
        pass
    record = call(base, "GET", f"/jobs/{job_id}")
    assert record["state"] == "completed", (job_id, record["state"])
    return time.monotonic() - start


def run_load(base: str, jobs: int, clients: int) -> dict:
    stream = [
        (dict(SHAPE_CYCLE[index % len(SHAPE_CYCLE)]), f"load-{index}")
        for index in range(jobs)
    ]
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        latencies = list(
            pool.map(lambda entry: run_client(base, *entry), stream)
        )
    wall = time.monotonic() - started
    latencies.sort()
    return {
        "jobs": jobs,
        "clients": clients,
        "wall_seconds": round(wall, 3),
        "throughput_jobs_per_second": round(jobs / wall, 3),
        "latency_seconds": {
            "p50": round(percentile(latencies, 0.50), 3),
            "p95": round(percentile(latencies, 0.95), 3),
            "p99": round(percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=24,
                        help="total jobs in the stream")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent submitting clients")
    parser.add_argument("--output", type=Path, default=None,
                        help="merge the report into this BENCH_perf.json")
    arguments = parser.parse_args(argv)

    with TemporaryDirectory(prefix="cluster-bench-") as scratch:
        state = Path(scratch)
        processes: dict[str, subprocess.Popen] = {}
        try:
            processes["coordinator"] = spawn(
                [sys.executable, "-m", "repro.cluster.coordinator",
                 "--port", "0", "--port-file", str(state / "http.port"),
                 "--cluster-port", "0",
                 "--cluster-port-file", str(state / "cluster.port"),
                 "--data-dir", str(state / "coordinator-data"),
                 "--quiet"]
            )
            base = f"http://127.0.0.1:{wait_port(state / 'http.port')}"
            cluster_port = wait_port(state / "cluster.port")
            for name in NODE_NAMES:
                processes[name] = spawn(
                    [sys.executable, "-m", "repro.cluster.node",
                     "--coordinator", f"127.0.0.1:{cluster_port}",
                     "--name", name, "--quiet"]
                )
            while len(call(base, "GET", "/stats")["cluster"]["live_nodes"]) \
                    < len(NODE_NAMES):
                time.sleep(0.1)

            report = run_load(base, arguments.jobs, arguments.clients)

            cluster = call(base, "GET", "/stats")["cluster"]
            report["nodes"] = {
                name: {
                    "jobs_completed": record["jobs_completed"],
                    "shapes": record["shapes"],
                }
                for name, record in cluster["nodes"].items()
            }
            report["memo"] = {
                key: cluster["memo"][key]
                for key in ("publishes", "hits", "cross_worker_hits")
            }
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)

    print(json.dumps(report, indent=2, sort_keys=True))
    if arguments.output is not None:
        merged = (
            json.loads(arguments.output.read_text())
            if arguments.output.exists()
            else {}
        )
        # Only the cluster block is rewritten (its keys sorted); every
        # other block keeps its bytes and key order.
        merged["cluster"] = json.loads(json.dumps(report, sort_keys=True))
        arguments.output.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"merged under 'cluster' into {arguments.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
