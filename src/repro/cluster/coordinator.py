"""The cluster coordinator: ``python -m repro.cluster.coordinator``.

:class:`ClusterEngine` subclasses :class:`~repro.api.engine.SciductionEngine`
and replaces *how batches execute* while keeping every other contract —
submission, cancellation, pruning, the job-handle surface the service
queue drives — unchanged.  The PR-5 HTTP front end, journal, certificate
store and admission control are reused verbatim: the coordinator process
is simply ``SciductionService(engine=ClusterEngine(...))``.

Sharding preserves byte-parity by construction:

* every job's shape (``ProblemSpec.shape_key()``) is owned by exactly
  one live node, chosen by deterministic rendezvous hashing
  (:mod:`repro.cluster.hashring`) over the sorted live-node names;
* a node receives its jobs in submission order, and its engine runs
  them sequentially on shape-routed pooled sessions — exactly the
  per-shape history the sequential engine produces, so verdicts,
  artifacts and certificates are byte-identical to a single-node run
  (per-job *statistics* may differ between topologies, as they already
  may between worker counts);
* on node death (connection drop, which covers ``kill -9``, network
  partitions and crashes alike) the dead node's unfinished jobs are
  re-sharded onto the survivors *in submission order* and re-sent; the
  scoped-lease guarantee (verdicts are independent of which session a
  job lands on) keeps the re-run byte-identical too.

The cluster's one shared check memo lives here too: a node's memo
client dials the same cluster listener, and a connection whose first
frame is ``hello`` (instead of ``register``) is served ``lookup`` /
``publish`` frames from one :class:`~repro.api.memo.SharedCheckMemo`.
A node re-running a job the dead node had started answers its checks
from the verdicts the dead node published.

Durability: assignments (``assigned``) and failover (``resharded``)
are journaled through the service's write-ahead journal, naming jobs by
their HTTP ids (the service queue builds every engine job under the id
``POST /jobs`` returned).  Replay folds them as history — they are
neither acceptances nor finishes, so a restarted coordinator
re-enqueues exactly the accepted-but-unfinished jobs, with the WAL
recording where each attempt had been placed.
"""

from __future__ import annotations

import argparse
import socket
import threading
import time
from pathlib import Path
from typing import Any

from repro.analysis.annotations import guarded_by
from repro.api.config import EngineConfig
from repro.api.engine import Job, JobState, SciductionEngine
from repro.api.memo import SharedCheckMemo
from repro.cluster.auth import TokenSet, ensure_bind_allowed
from repro.cluster.hashring import rendezvous_owner
from repro.cluster.node import PROTOCOL_VERSION
from repro.cluster.protocol import (
    OP_DRAIN,
    OP_DRAINED,
    OP_HEARTBEAT,
    OP_HELLO,
    OP_JOB,
    OP_LOOKUP,
    OP_PONG,
    OP_PUBLISH,
    OP_REGISTER,
    OP_RESULT,
    FramedSocket,
    ProtocolError,
)
from repro.service.journal import JobJournal
from repro.service.server import SciductionService
from repro.testing import faults
from repro.testing.faults import fault_point

#: Journal events written by the coordinator (folded as history by
#: replay: they are neither acceptances nor finishes).
EVENT_ASSIGNED = "assigned"
EVENT_RESHARDED = "resharded"

#: How long the dispatch loop sleeps waiting for results/registrations
#: before re-scanning (a backstop — every event also notifies).
_DISPATCH_WAIT_SLICE = 0.25

#: LRU bound of the cluster's shared check memo.
CLUSTER_MEMO_CAPACITY = 65536


def _error(message: str, status: int = 400) -> dict[str, Any]:
    return {"ok": False, "error": message, "status": status}


def _well_formed_entry(verdict: Any, bits: Any) -> bool:
    """Whether a published memo entry is one a solver could have decided:
    ``sat`` with its model bits, or ``unsat`` with none."""
    if verdict == "unsat":
        return bits is None
    return (
        verdict == "sat"
        and isinstance(bits, list)
        and all(isinstance(bit, bool) for bit in bits)
    )


class _NodeLink:
    """One registered node's connection, as the coordinator sees it."""

    def __init__(self, name: str, link: FramedSocket, generation: int) -> None:
        self.name = name
        self.link = link
        #: Re-registrations bump the generation; a stale link's death
        #: must not kill its successor.
        self.generation = generation

    def send_job(self, payload: dict[str, Any]) -> None:
        # Fault site: an armed `raise` here severs the coordinator→node
        # path mid-dispatch — the observable behavior of a network
        # partition — and drives the reshard path deterministically.
        fault_point("net.partition")
        self.link.send({"op": OP_JOB, "payload": payload})


@guarded_by(
    "_cluster_lock",
    "_links", "_node_stats", "_events", "_reshard_log", "_generations",
    aliases=("_cluster_wakeup",),
)
class ClusterEngine(SciductionEngine):
    """An engine whose batches execute on registered remote nodes.

    Args:
        config: engine configuration; ``workers`` is ignored here (the
            nodes own the solving), but the config still ships to
            ``/stats`` and governs problem validation.
        host: cluster listener bind address.
        port: cluster listener port (0 = ephemeral, see
            :attr:`cluster_port`).
        tokens: auth tokens nodes must present at registration and in
            a memo connection's hello.
        node_wait: seconds a batch waits for at least one live node (and
            for a replacement when every node died mid-batch) before
            failing the affected jobs with a structured result.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tokens: TokenSet | None = None,
        node_wait: float = 30.0,
    ) -> None:
        super().__init__(config)
        self.tokens = tokens or TokenSet()
        ensure_bind_allowed(host, self.tokens, "coordinator")
        self.node_wait = node_wait
        #: Set by the hosting service once its journal exists; the
        #: coordinator appends assignment/reshard records through it.
        self.journal: JobJournal | None = None
        #: The check memo every node's memo client shares.
        self.memo = SharedCheckMemo(CLUSTER_MEMO_CAPACITY)
        self._cluster_lock = threading.Lock()
        self._cluster_wakeup = threading.Condition(self._cluster_lock)
        #: Live links by node name.
        self._links: dict[str, _NodeLink] = {}
        #: Per-node observability (survives death/re-registration).
        self._node_stats: dict[str, dict[str, Any]] = {}
        #: Events for the dispatch loop: ("result", node, frame) and
        #: ("dead", node); registrations just notify.
        self._events: list[tuple[Any, ...]] = []
        #: Reshard history for ``/stats``.
        self._reshard_log: list[dict[str, Any]] = []
        self._generations = 0
        self._cluster_closed = False
        self._listener = socket.create_server((host, port))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()

    # -- listener side -----------------------------------------------------

    @property
    def cluster_host(self) -> str:
        return str(self._listener.getsockname()[0])

    @property
    def cluster_port(self) -> int:
        return int(self._listener.getsockname()[1])

    def _accept_loop(self) -> None:
        while not self._cluster_closed:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._register_connection,
                args=(FramedSocket(connection),),
                name="cluster-conn",
                daemon=True,
            ).start()

    def _register_connection(self, link: FramedSocket) -> None:
        """Start a node link (``register``) or a memo connection (``hello``)."""
        try:
            frame = link.recv()
        except (OSError, ProtocolError):
            link.close()
            return
        if frame is not None and frame.get("op") == OP_HELLO:
            self._serve_memo(link, frame)
            return
        if frame is None or frame.get("op") != OP_REGISTER:
            link.close()
            return
        name = frame.get("node")
        if not isinstance(name, str) or not name:
            self._reject(link, "registration needs a non-empty node name", 400)
            return
        if frame.get("protocol") != PROTOCOL_VERSION:
            self._reject(
                link,
                f"protocol {frame.get('protocol')!r} is not {PROTOCOL_VERSION}",
                400,
            )
            return
        if self.tokens.required():
            if self.tokens.identify(frame.get("token")) is None:
                self._reject(link, "authentication failed", 401)
                return
        with self._cluster_wakeup:
            previous = self._links.get(name)
            self._generations += 1
            generation = self._generations
            node = _NodeLink(name, link, generation)
            self._links[name] = node
            stats = self._node_stats.setdefault(
                name,
                {
                    "registrations": 0,
                    "heartbeats": 0,
                    "jobs_completed": 0,
                    "shapes": {},
                    "last_heartbeat": None,
                    "executor": None,
                },
            )
            stats["registrations"] += 1
            stats["alive"] = True
            stats["last_heartbeat"] = time.monotonic()  # analysis: allow[WC01] heartbeat-age observability stamp; never a scheduling input
            self._cluster_wakeup.notify_all()
        if previous is not None:
            previous.link.close()
        try:
            link.send({"ok": True, "coordinator": "sciduction"})
        except (OSError, ProtocolError):
            self._node_lost(node)
            return
        threading.Thread(
            target=self._reader_loop,
            args=(node,),
            name=f"cluster-read-{name}",
            daemon=True,
        ).start()

    def _serve_memo(self, link: FramedSocket, hello: dict[str, Any]) -> None:
        """Answer one memo connection's frames, its hello first."""
        request: dict[str, Any] | None = hello
        authenticated = False
        try:
            while request is not None:
                # Fault site: an armed `raise` here drops the connection
                # mid-conversation, which is what an unreachable memo
                # looks like to a node; it drives the degraded-mode path.
                fault_point("memo.down")
                response, authenticated = self._memo_reply(
                    request, authenticated
                )
                link.send(response)
                request = link.recv()
        except (ProtocolError, OSError):
            return
        finally:
            link.close()

    def _memo_reply(
        self, request: dict[str, Any], authenticated: bool
    ) -> tuple[dict[str, Any], bool]:
        """One memo request → (response, new authenticated state)."""
        op = request.get("op")
        if op == OP_HELLO:
            if self.tokens.required():
                if self.tokens.identify(request.get("token")) is None:
                    return _error("authentication failed", 401), False
            return {"ok": True}, True
        if not authenticated:
            return _error("authenticate with a hello frame first", 401), False
        if op not in (OP_LOOKUP, OP_PUBLISH):
            return _error(f"unknown op {op!r}"), True
        key = request.get("key")
        client = str(request.get("client", "anonymous"))
        if not isinstance(key, str):
            return _error("'key' must be a string"), True
        if op == OP_LOOKUP:
            found = self.memo.lookup(key, client)
            return {
                "ok": True,
                "found": None if found is None else [found[0], found[1]],
            }, True
        verdict = request.get("verdict")
        bits = request.get("bits")
        # The one place entries enter over the wire: a malformed entry
        # would be replayed as a check verdict on every node.
        if not _well_formed_entry(verdict, bits):
            return _error(
                "a published entry is 'sat' with a list of booleans "
                "or 'unsat' with null bits"
            ), True
        self.memo.publish(key, verdict, bits, client)
        return {"ok": True}, True

    @staticmethod
    def _reject(link: FramedSocket, message: str, status: int) -> None:
        try:
            link.send(_error(message, status))
        except (OSError, ProtocolError):
            pass
        link.close()

    def _reader_loop(self, node: _NodeLink) -> None:
        """Pump one node's frames into the event queue until it dies."""
        while True:
            try:
                frame = node.link.recv()
            except (OSError, ProtocolError):
                break
            if frame is None:
                break
            op = frame.get("op")
            if op == OP_RESULT:
                with self._cluster_wakeup:
                    self._events.append(("result", node.name, frame))
                    self._cluster_wakeup.notify_all()
            elif op == OP_HEARTBEAT:
                with self._cluster_wakeup:
                    stats = self._node_stats.get(node.name)
                    if stats is not None:
                        stats["heartbeats"] += 1
                        stats["last_heartbeat"] = time.monotonic()  # analysis: allow[WC01] heartbeat-age observability stamp; never a scheduling input
            elif op in (OP_DRAINED, OP_PONG):
                # Acknowledged drains and ping replies carry no state to
                # fold; the drain path watches the connection close and
                # pong consumers read the reply inline.
                pass
            # Unknown ops are ignored: a newer node may speak additions
            # this coordinator does not know.
        self._node_lost(node)

    def _node_lost(self, node: _NodeLink) -> None:
        """Fold one link's death (idempotent; stale generations no-op)."""
        node.link.close()
        with self._cluster_wakeup:
            current = self._links.get(node.name)
            if current is not None and current.generation == node.generation:
                del self._links[node.name]
                stats = self._node_stats.get(node.name)
                if stats is not None:
                    stats["alive"] = False
                self._events.append(("dead", node.name))
                self._cluster_wakeup.notify_all()

    # -- engine overrides --------------------------------------------------

    def prestart_workers(self) -> None:
        """No worker fleet to fork — the nodes are separate processes."""

    def run_wire(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Refuse local execution: a coordinator never solves in-process."""
        raise NotImplementedError("the coordinator does not execute jobs")

    def _run_jobs(self, batch: list[Job]) -> None:
        """Scatter the batch to the live nodes; gather their results.

        All failure modes are folded into structured per-job results — a
        batch never raises, even with zero registered nodes.
        """
        # Jobs not yet accepted by a live node, in submission order.
        pending: list[Job] = []
        # job_id → (job, owning node name) while a node holds the job.
        in_flight: dict[int, tuple[Job, str]] = {}
        open_jobs: dict[int, Job] = {}
        for job in batch:
            if not self._claim(job):
                continue  # cancelled while queued; result already set
            pending.append(job)
            open_jobs[job.job_id] = job
        nodeless_deadline: float | None = None
        while open_jobs:
            with self._cluster_wakeup:
                events = self._events[:]
                self._events.clear()
                live = sorted(self._links)
            dead_nodes: list[str] = []
            for event in events:
                if event[0] == "result":
                    _, node_name, frame = event
                    job_id = frame.get("job_id")
                    entry = in_flight.pop(int(job_id), None) if job_id is not None else None
                    if entry is None:
                        continue
                    job, _owner = entry
                    self._complete_remote(job, frame, node_name)
                    open_jobs.pop(job.job_id, None)
                elif event[0] == "dead":
                    dead_nodes.append(event[1])
            for node_name in dead_nodes:
                orphaned = sorted(
                    job_id
                    for job_id, (_job, owner) in in_flight.items()
                    if owner == node_name
                )
                if not orphaned:
                    continue
                for job_id in orphaned:
                    job, _owner = in_flight.pop(job_id)
                    pending.append(job)
                pending.sort(key=lambda job: job.job_id)
                self._record_reshard(node_name, orphaned)
            if pending and live:
                pending = self._dispatch_pending(pending, live, in_flight)
                nodeless_deadline = None
            elif pending and not live:
                # Every node is gone (or none ever registered): bounded
                # wait for a (re-)registration, then fail what remains.
                now = time.monotonic()  # analysis: allow[WC01] node-wait deadline anchor; bounds failover waiting, never a solver input
                if nodeless_deadline is None:
                    nodeless_deadline = now + self.node_wait
                elif now >= nodeless_deadline:
                    for job_id in sorted(open_jobs):
                        if job_id in in_flight:
                            continue
                        self._fail_unplaceable(open_jobs.pop(job_id))
                    pending = []
                    continue
            if not open_jobs:
                break
            with self._cluster_wakeup:
                if not self._events:
                    self._cluster_wakeup.wait(_DISPATCH_WAIT_SLICE)

    def _dispatch_pending(
        self,
        pending: list[Job],
        live: list[str],
        in_flight: dict[int, tuple[Job, str]],
    ) -> list[Job]:
        """Send every pending job to its rendezvous owner.

        Returns the jobs that could not be sent (their target died under
        us — they stay pending and reshard on the next scan).
        """
        unsent: list[Job] = []
        links: dict[str, _NodeLink] = {}
        with self._cluster_lock:
            for name in live:
                node = self._links.get(name)
                if node is not None:
                    links[name] = node
        for job in pending:
            shape = job.problem.shape_key()
            owner = rendezvous_owner(shape, live)
            node = links.get(owner)
            if node is None:
                unsent.append(job)
                continue
            if self.journal is not None:
                self.journal.append_soft(
                    {
                        "event": EVENT_ASSIGNED,
                        "job": job.job_id,
                        "node": owner,
                        "shape": shape,
                    }
                )
            with self._cluster_lock:
                stats = self._node_stats.get(owner)
                if stats is not None:
                    stats["shapes"][shape] = True
            try:
                node.send_job(job.payload())
            except (OSError, ProtocolError):
                # The link died mid-dispatch (or a net.partition fault
                # fired): fold the death; the job reshards next scan.
                self._node_lost(node)
                unsent.append(job)
                continue
            in_flight[job.job_id] = (job, owner)
        return unsent

    def _complete_remote(self, job: Job, frame: dict[str, Any], node_name: str) -> None:
        """Fold one node's result frame into the job handle."""
        payload = frame.get("payload")
        if "error" in frame:
            # The node could not start the job (e.g. a problem kind it
            # does not know): the worker's unrunnable-job failure.
            job.fail(JobState.FAILED, str(frame["error"]))
        else:
            try:
                # Attribute the execution where the engine stamps its own
                # metadata (details.engine) — observability only, stripped
                # by parity comparisons exactly like job_id.
                engine_details = payload["result"].get("details", {}).get("engine")
                if isinstance(engine_details, dict):
                    engine_details["node"] = node_name
                job.fold_response(payload)
            except (KeyError, ValueError, TypeError, AttributeError) as error:
                job.fail(
                    JobState.FAILED,
                    f"malformed result from node {node_name!r}: {error}",
                    stamp=False,
                )
        with self._cluster_lock:
            stats = self._node_stats.get(node_name)
            if stats is not None:
                stats["jobs_completed"] += 1
                if isinstance(payload, dict):
                    stats["executor"] = payload.get("executor")

    def _record_reshard(self, node_name: str, job_ids: list[int]) -> None:
        if self.journal is not None:
            self.journal.append_soft(
                {"event": EVENT_RESHARDED, "node": node_name, "jobs": job_ids}
            )
        with self._cluster_lock:
            self._reshard_log.append({"node": node_name, "jobs": job_ids})

    def _fail_unplaceable(self, job: Job) -> None:
        job.fail(
            JobState.FAILED,
            f"no cluster nodes available within {self.node_wait}s; "
            "the job was never placed",
        )

    # -- reporting ---------------------------------------------------------

    def cluster_statistics(self) -> dict[str, Any]:
        """The ``/stats`` cluster section: topology, failover, memo.

        Each node entry carries the node's executor snapshot as of its
        last finished job (see
        :meth:`~repro.api.engine.SciductionEngine.executor_statistics`):
        its pool counters, ``memo_client`` and ``platform_memo``.
        Before the node's first job only ``memo_client`` is there, as
        None.  ``memo`` holds the shared check memo's counters.
        """
        with self._cluster_lock:
            now = time.monotonic()  # analysis: allow[WC01] heartbeat-age observability read; never a scheduling input
            nodes = {}
            for name in sorted(self._node_stats):
                stats = self._node_stats[name]
                last = stats.get("last_heartbeat")
                nodes[name] = {
                    "alive": bool(stats.get("alive")),
                    "registrations": stats["registrations"],
                    "heartbeats": stats["heartbeats"],
                    "heartbeat_age": (
                        None if last is None else round(now - last, 3)
                    ),
                    "jobs_completed": stats["jobs_completed"],
                    "shapes": sorted(stats["shapes"]),
                    **(stats["executor"] or {"memo_client": None}),
                }
            record: dict[str, Any] = {
                "nodes": nodes,
                "live_nodes": sorted(self._links),
                "reshards": len(self._reshard_log),
                "resharding_events": list(self._reshard_log),
                "auth_required": self.tokens.required(),
            }
        record["memo"] = self.memo.statistics()
        return record

    # -- lifecycle ---------------------------------------------------------

    def drain_nodes(self) -> None:
        """Ask every live node to finish its queue and exit (best effort)."""
        with self._cluster_lock:
            links = [self._links[name] for name in sorted(self._links)]
        for node in links:
            try:
                node.link.send({"op": OP_DRAIN})
            except (OSError, ProtocolError):
                pass

    def close(self) -> None:
        """Drain nodes, stop the listener, release links (idempotent)."""
        if not self._cluster_closed:
            self._cluster_closed = True
            self.drain_nodes()
            # shutdown() before close(): a thread blocked in accept()
            # holds a kernel reference that keeps a merely-closed
            # listener serving; shutting it down unblocks immediately.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
            self._accept_thread.join(timeout=5.0)
            with self._cluster_lock:
                links = [self._links[name] for name in sorted(self._links)]
                self._links.clear()
            for node in links:
                node.link.close()
        super().close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.coordinator",
        description="Serve sciduction jobs over HTTP, sharded across nodes.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="HTTP bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--cluster-host",
        default="127.0.0.1",
        help="cluster (node protocol) bind address",
    )
    parser.add_argument(
        "--cluster-port",
        type=int,
        default=0,
        help="cluster (node protocol) bind port (0 = ephemeral)",
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound HTTP port here once listening",
    )
    parser.add_argument(
        "--cluster-port-file",
        type=Path,
        default=None,
        help="write the bound cluster port here once listening",
    )
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="journal + certificate-store directory (enables crash safety)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission bound on queued jobs (429 past it)",
    )
    parser.add_argument(
        "--node-wait",
        type=float,
        default=30.0,
        help="seconds to wait for a live node before failing unplaceable jobs",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="accepted token spec (falls back to REPRO_AUTH_TOKEN)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    arguments = parser.parse_args(argv)
    faults.install_from_env()
    tokens = TokenSet.from_env(arguments.auth_token)
    ensure_bind_allowed(arguments.host, tokens, "coordinator HTTP front end")
    engine = ClusterEngine(
        EngineConfig(),
        host=arguments.cluster_host,
        port=arguments.cluster_port,
        tokens=tokens,
        node_wait=arguments.node_wait,
    )
    service = SciductionService(
        engine.config,
        host=arguments.host,
        port=arguments.port,
        quiet=arguments.quiet,
        data_dir=arguments.data_dir,
        max_pending=arguments.max_pending,
        engine=engine,
        auth=tokens,
    )
    engine.journal = service.journal
    return service.run_cli(
        f"sciduction coordinator listening on {service.url} "
        f"(cluster {engine.cluster_host}:{engine.cluster_port})",
        [
            (arguments.port_file, service.port),
            (arguments.cluster_port_file, engine.cluster_port),
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
