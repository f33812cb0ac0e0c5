#!/usr/bin/env python3
"""Quickstart: the sciduction engine as a multi-node cluster.

Boots the full cluster topology from ``docs/CLUSTER.md`` — one
coordinator and two node agents, every role a real subprocess on an
ephemeral port — then drives it over the same HTTP
surface the single-process service exposes:

1. a small job stream submitted over the wire, sharded across the two
   nodes by problem shape (rendezvous hashing),
2. the ``/stats`` cluster section — per-node liveness, owned shapes,
   completed-job counts, the shared check memo's counters,
3. a graceful drain: SIGTERM to the coordinator, nodes exit 0.

Run with::

    python examples/cluster_quickstart.py [--width 4]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

NODE_NAMES = ["alpha", "beta"]


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=4, help="base deobfuscation width")
    arguments = parser.parse_args()

    state = Path(".cluster-quickstart")
    state.mkdir(exist_ok=True)
    for stale in state.glob("*.port"):
        stale.unlink()
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
        print(f"coordinator listening on {base} (cluster port {cluster_port})")
        for name in NODE_NAMES:
            processes[name] = spawn(
                [sys.executable, "-m", "repro.cluster.node",
                 "--coordinator", f"127.0.0.1:{cluster_port}",
                 "--name", name, "--quiet"]
            )
        while len(call(base, "GET", "/stats")["cluster"]["live_nodes"]) < 2:
            time.sleep(0.1)
        print(f"nodes registered: {call(base, 'GET', '/stats')['cluster']['live_nodes']}")

        # Two problem shapes land on different nodes; the duplicate rides
        # its shape's warm session on whichever node owns it.
        stream = [
            {"kind": "deobfuscation", "task": "multiply45",
             "width": arguments.width, "seed": 0},
            {"kind": "deobfuscation", "task": "multiply45",
             "width": arguments.width + 1, "seed": 0},
            {"kind": "deobfuscation", "task": "multiply45",
             "width": arguments.width, "seed": 0},
        ]
        job_ids = [
            call(base, "POST", "/jobs",
                 {"problem": spec, "label": f"quickstart-{index}"})["job_id"]
            for index, spec in enumerate(stream)
        ]
        for job_id in job_ids:
            while not call(base, "GET", f"/jobs/{job_id}?wait=30")["done"]:
                pass
            result = call(base, "GET", f"/jobs/{job_id}/result")
            engine = result["details"]["engine"]
            print(
                f"  job {job_id}: verdict={result['verdict']}"
                f" on node {engine['node']!r}"
            )
            assert result["success"] is True

        cluster = call(base, "GET", "/stats")["cluster"]
        for name in NODE_NAMES:
            record = cluster["nodes"][name]
            print(
                f"  node {name}: jobs_completed={record['jobs_completed']}"
                f" shapes={record['shapes']}"
            )
        memo = cluster["memo"]
        print("  memo:", {key: memo[key]
                          for key in ("publishes", "hits", "cross_worker_hits")})

        # Graceful drain: the coordinator forwards the drain to its
        # nodes; everything exits 0 on its own.
        processes["coordinator"].send_signal(signal.SIGTERM)
        assert processes["coordinator"].wait(timeout=60) == 0
        for name in NODE_NAMES:
            assert processes[name].wait(timeout=60) == 0
        print("drained: coordinator and nodes exited 0")
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
    print("done.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
