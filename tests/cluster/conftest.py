"""Cluster-suite fixtures: lock instrumentation over the cluster layer.

The coordinator nests its cluster lock against the engine's state lock
(never holding both — that discipline is the design), its shared check
memo guards its store, and the memo client guards its degraded-mode
counters.  Running the in-process suites under the lock-order detector
turns any regression into a test failure instead of a distributed
deadlock.  The node agent (job/heartbeat state) and the framed socket
(send serialization) are instrumented too, so every cluster lock is
under the detector.
"""

from __future__ import annotations

import pytest

import repro.api.engine as engine_module
import repro.api.memo as memo_module
import repro.cluster.coordinator as coordinator_module
import repro.cluster.memoclient as memoclient_module
import repro.cluster.node as node_module
import repro.cluster.protocol as protocol_module
import repro.service.queue as queue_module
from repro.analysis import lockcheck
from repro.testing import faults


@pytest.fixture(scope="module", autouse=True)
def _lockcheck_instrumentation():
    with lockcheck.instrument(
        engine_module, memo_module, queue_module,
        coordinator_module, memoclient_module, node_module,
        protocol_module,
    ) as registry:
        yield
    assert not registry.violations, "\n".join(registry.violations)


@pytest.fixture(autouse=True)
def _disarm_faults():
    # A test that arms fault injection and fails mid-way must not leak
    # the plan into the next test.
    yield
    faults.reset()
