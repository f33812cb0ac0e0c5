"""The node agent: ``python -m repro.cluster.node``.

One persistent :class:`~repro.api.engine.SciductionEngine` (forced to
``workers=1`` — cluster parallelism lives *across* nodes, and a node
running its shapes sequentially on warm pooled sessions is exactly what
byte-parity requires) behind the framed protocol:

* the agent **dials the coordinator** and registers under its node name;
  job frames are executed in submission order by a single executor
  thread and answered with the engine's exact wire-form results (plus
  its executor snapshot), or with an ``error`` result frame for a job
  the node cannot start (e.g. an unknown problem kind);
* a **heartbeat thread** sends liveness frames on a fixed interval (the
  coordinator exposes the observed age in ``/stats``; death *detection*
  is the connection drop itself, which is immediate and unambiguous);
* **graceful drain**: on a ``drain`` frame the agent finishes every job
  already accepted, answers ``drained``, and exits 0;
* **re-registration**: a lost coordinator connection (coordinator
  restart, network blip) is retried with a fixed backoff until it
  succeeds — the node keeps its warm engine, so re-registered nodes
  answer repeated shapes from their session history;
* the engine's solver pool uses a
  :class:`~repro.api.memo.CheckMemoClient` whose remote is the
  coordinator's shared check memo, reached over a second connection to
  the same endpoint (:class:`~repro.cluster.memoclient.RemoteMemoStore`):
  node-local store in front, silent degraded mode with re-arm.

The ``node.crash`` fault point is probed before every job execution, so
tests can ``REPRO_FAULTS="node.crash:exit:9:3"`` a node to die exactly
like ``kill -9`` mid-batch.
"""

from __future__ import annotations

import argparse
import os
import queue
import threading
from typing import Any

from repro.api.config import EngineConfig
from repro.api.engine import SciductionEngine
from repro.api.memo import CheckMemoClient
from repro.cluster.auth import TokenSet, ensure_bind_allowed
from repro.cluster.memoclient import RemoteMemoStore
from repro.cluster.protocol import (
    OP_DRAIN,
    OP_DRAINED,
    OP_HEARTBEAT,
    OP_JOB,
    OP_PING,
    OP_PONG,
    OP_REGISTER,
    OP_RESULT,
    FramedSocket,
    ProtocolError,
)
from repro.core.exceptions import ReproError
from repro.testing import faults
from repro.testing.faults import fault_point

#: Protocol revision a node offers at registration.
PROTOCOL_VERSION = 1


def parse_endpoint(value: str) -> tuple[str, int]:
    """Parse ``host:port`` (the port is required)."""
    host, separator, port = value.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ReproError(f"expected host:port, got {value!r}")
    return host, int(port)


class NodeAgent:
    """One node's lifecycle: connect, register, serve, drain.

    Args:
        name: this node's cluster-unique name (its memo client id and
            per-client accounting identity).
        coordinator: the coordinator's cluster endpoint.
        config: engine configuration (``workers`` is forced to 1).
        tokens: auth tokens; the first is presented at registration and
            in the memo connection's hello.
        heartbeat_interval: seconds between liveness frames.
        reconnect_backoff: seconds between re-registration attempts.
    """

    def __init__(
        self,
        name: str,
        coordinator: tuple[str, int],
        config: EngineConfig | None = None,
        tokens: TokenSet | None = None,
        heartbeat_interval: float = 2.0,
        reconnect_backoff: float = 0.5,
        quiet: bool = False,
    ) -> None:
        self.name = name
        self.coordinator = coordinator
        self.tokens = tokens or TokenSet()
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_backoff = reconnect_backoff
        self.quiet = quiet
        # Dialing out to a non-loopback coordinator without a token is
        # refused for the same reason binding one is: the peer could not
        # have authenticated us.
        ensure_bind_allowed(coordinator[0], self.tokens, "node (coordinator link)")
        base = config or EngineConfig()
        self.engine = SciductionEngine(
            EngineConfig.from_dict(dict(base.to_dict(), workers=1))
        )
        self.memo_client = CheckMemoClient(
            RemoteMemoStore(
                coordinator[0],
                coordinator[1],
                client_id=name,
                token=self.tokens.first_token(),
            ),
            client_id=name,
        )
        self.engine.pool.set_memo_backend(self.memo_client)
        self._stop = threading.Event()
        self._drained = False

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Ask the agent to exit after the current job (test hook)."""
        self._stop.set()

    def run(self) -> int:
        """Serve until drained (0) or stopped; re-registers on link loss."""
        while not self._stop.is_set():
            try:
                link = FramedSocket.connect(
                    self.coordinator[0], self.coordinator[1]
                )
            except OSError:
                if self._stop.wait(self.reconnect_backoff):
                    break
                continue
            try:
                if not self._register(link):
                    return 1
                self._serve(link)
            finally:
                link.close()
            if self._drained:
                return 0
            # Connection lost without a drain: back off, re-register.
            if self._stop.wait(self.reconnect_backoff):
                break
        return 0

    def _register(self, link: FramedSocket) -> bool:
        registration: dict[str, Any] = {
            "op": OP_REGISTER,
            "node": self.name,
            "protocol": PROTOCOL_VERSION,
        }
        token = self.tokens.first_token()
        if token is not None:
            registration["token"] = token
        try:
            link.send(registration)
            ack = link.recv()
        except (OSError, ProtocolError):
            return True  # transient: treated as a lost link, retried
        if ack is None:
            return True
        if not ack.get("ok"):
            # A structured rejection (bad token, duplicate name …) is
            # fatal — retrying with the same credentials cannot help.
            self._log(f"registration rejected: {ack.get('error')}")
            self._stop.set()
            return False
        self._log(f"registered with coordinator as {self.name!r}")
        return True

    def _serve(self, link: FramedSocket) -> None:
        """Pump frames until the link dies or a drain completes."""
        inbox: "queue.Queue[dict[str, Any] | None]" = queue.Queue()
        done = threading.Event()
        executor = threading.Thread(
            target=self._execute_loop,
            args=(link, inbox, done),
            name=f"{self.name}-executor",
            daemon=True,
        )
        executor.start()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(link, done),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            while True:
                try:
                    frame = link.recv()
                except (OSError, ProtocolError):
                    break
                if frame is None:
                    break
                op = frame.get("op")
                if op in (OP_JOB, OP_DRAIN):
                    # The drain frame rides the inbox as itself (not a
                    # bare sentinel): an EOF racing in behind it must not
                    # be able to mask the drain request.
                    inbox.put(frame)
                elif op == OP_PING:
                    try:
                        link.send(
                            {"op": OP_PONG, "seq": frame.get("seq"), "node": self.name}
                        )
                    except (OSError, ProtocolError):
                        break
                # Unknown ops are ignored: a newer coordinator may speak
                # additions this node does not know.
        finally:
            done.set()
            inbox.put(None)
            executor.join(timeout=60.0)
            heartbeat.join(timeout=5.0)

    def _execute_loop(
        self,
        link: FramedSocket,
        inbox: "queue.Queue[dict[str, Any] | None]",
        done: threading.Event,
    ) -> None:
        while True:
            frame = inbox.get()
            if frame is None:
                return  # link torn down without a drain; nothing to answer
            if frame.get("op") == OP_DRAIN:
                # Graceful drain: everything accepted has been executed.
                self._drained = True
                try:
                    link.send({"op": OP_DRAINED, "node": self.name})
                except (OSError, ProtocolError):
                    pass
                link.close()
                return
            payload = frame.get("payload")
            if not isinstance(payload, dict):
                continue
            # Fault site: an armed `exit` here kills this node with no
            # cleanup, mid-batch — the coordinator's reshard path is
            # exactly what gets exercised.
            fault_point("node.crash")
            try:
                response = self.engine.run_wire(payload)
            except Exception as error:  # noqa: BLE001 — the node keeps serving
                # An unrunnable job (e.g. a problem kind registered only
                # in the coordinator process, or version skew): the
                # coordinator fails it as it does a worker's error.
                self._log(f"job {payload.get('job_id')} not started: {error}")
                outcome: dict[str, Any] = {"error": str(error)}
            else:
                response["node"] = self.name
                response["executor"] = self.engine.executor_statistics(
                    self.memo_client
                )
                outcome = {"payload": response}
            try:
                link.send(
                    {"op": OP_RESULT, "job_id": payload.get("job_id"), **outcome}
                )
            except (OSError, ProtocolError):
                return  # link died; the coordinator reshards this job

    def _heartbeat_loop(self, link: FramedSocket, done: threading.Event) -> None:
        while not done.wait(self.heartbeat_interval):
            try:
                link.send({"op": OP_HEARTBEAT, "node": self.name})
            except (OSError, ProtocolError):
                return

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[{self.name}] {message}", flush=True)

    def close(self) -> None:
        self._stop.set()
        self.memo_client.close()
        self.engine.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.node",
        description="Run one sciduction node against a cluster coordinator.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        help="coordinator cluster endpoint, host:port",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="cluster-unique node name (default: node-<pid>)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="warm solver sessions kept by this node's pool",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=2.0,
        help="seconds between heartbeat frames",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="token presented at registration (falls back to REPRO_AUTH_TOKEN)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress agent logs"
    )
    arguments = parser.parse_args(argv)
    faults.install_from_env()
    config_kwargs: dict[str, Any] = {}
    if arguments.pool_size is not None:
        config_kwargs["pool_size"] = arguments.pool_size
    agent = NodeAgent(
        name=arguments.name or f"node-{os.getpid()}",
        coordinator=parse_endpoint(arguments.coordinator),
        config=EngineConfig(**config_kwargs),
        tokens=TokenSet.from_env(arguments.auth_token),
        heartbeat_interval=arguments.heartbeat,
        quiet=arguments.quiet,
    )
    try:
        return agent.run()
    except KeyboardInterrupt:
        return 0
    finally:
        agent.close()


if __name__ == "__main__":
    raise SystemExit(main())
