"""The node agent's executor loop, driven over a socket pair.

No coordinator process: the test feeds job frames straight into
:meth:`NodeAgent._execute_loop` and reads the result frames it sends on
the other end of a ``socketpair``.
"""

from __future__ import annotations

import queue
import socket
import threading
from dataclasses import asdict

from repro.api.pool import PoolStatistics
from repro.cluster.node import NodeAgent
from repro.cluster.protocol import FramedSocket

UNKNOWN = {
    "job_id": 1,
    "problem": {"kind": "no-such-kind"},
    "max_conflicts": None,
    "timeout": None,
    "label": None,
}
DEOB = {
    "job_id": 2,
    "problem": {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 0},
    "max_conflicts": None,
    "timeout": None,
    "label": "after",
}


def test_undecodable_payload_fails_the_job_and_the_node_keeps_serving():
    # No coordinator is registered with: only the executor loop runs.
    agent = NodeAgent("alpha", ("127.0.0.1", 9), quiet=True)
    near, far = socket.socketpair()
    far.settimeout(30.0)
    node_side, coordinator_side = FramedSocket(near), FramedSocket(far)
    inbox: queue.Queue = queue.Queue()
    executor = threading.Thread(
        target=agent._execute_loop,
        args=(node_side, inbox, threading.Event()),
        daemon=True,
    )
    executor.start()
    try:
        inbox.put({"op": "job", "payload": dict(UNKNOWN)})
        inbox.put({"op": "job", "payload": dict(DEOB)})
        failed = coordinator_side.recv()
        completed = coordinator_side.recv()
        assert executor.is_alive()
    finally:
        inbox.put(None)
        executor.join(timeout=10.0)
        node_side.close()
        coordinator_side.close()
        agent.close()
    assert set(failed) == {"op", "job_id", "error"}
    assert (failed["op"], failed["job_id"]) == ("result", 1)
    assert failed["error"].startswith("unknown problem kind 'no-such-kind'")
    assert (completed["op"], completed["job_id"]) == ("result", 2)
    response = completed["payload"]
    assert response["state"] == "completed"
    assert response["result"]["details"]["engine"]["label"] == "after"
    assert response["node"] == "alpha"
    # The executor snapshot rides along, outside the result.
    executor_keys = set(asdict(PoolStatistics())) | {"memo_client", "platform_memo"}
    assert set(response["executor"]) == executor_keys
    assert response["executor"]["leases"] == 1
    # Every node's memo client has the coordinator's store as its remote;
    # nothing listens at this endpoint, so its calls degrade, fail-open.
    memo = response["executor"]["memo_client"]
    assert memo["publishes"] > 0 and memo["remote_hits"] == 0
    assert "executor" not in response["result"]["details"]
