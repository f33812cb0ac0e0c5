"""The external check-memo service: ``python -m repro.cluster.memod``.

One :class:`~repro.api.memo.SharedCheckMemo` behind a framed TCP
listener, so *every node in the cluster* shares one store of decided
check verdicts — the cross-node analogue of PR 5's cross-worker memo.
Keys are the process-independent :mod:`repro.smt.wire` structural
digests (layout signature + assertion/extras/frontier digest), so two
nodes that assert the same formulas from the same sealed base scope
produce the same key even though their term objects live on different
machines; the soundness argument is unchanged from the in-process store.

Request/response ops (one frame each way, over
:mod:`repro.cluster.protocol`):

``hello``    ``{"op": "hello", "client": id, "token": t?}`` — must be the
             connection's first frame; authenticates when a token set is
             configured (401-style structured error otherwise).
``lookup``   ``{"op": "lookup", "key": k}`` →
             ``{"ok": true, "found": [verdict, bits] | null}``
``publish``  ``{"op": "publish", "key": k, "verdict": v, "bits": b}``
``stats``    counter snapshot of the store plus service-level counters.
``ping``     liveness probe.

The service is stateless beyond the LRU store: a memod restart merely
costs warm entries (clients degrade to local-only and re-arm; see
:class:`~repro.api.memo.CheckMemoClient`).  The
``memod.down`` fault point sits in the per-request loop so tests can
kill connections — or the whole handler — deterministically.
"""

from __future__ import annotations

import argparse
import socket
import threading
from pathlib import Path
from typing import Any

from repro.analysis.annotations import guarded_by
from repro.api.memo import SharedCheckMemo
from repro.cluster.auth import TokenSet, ensure_bind_allowed
from repro.cluster.protocol import (
    OP_HELLO,
    OP_LOOKUP,
    OP_PING,
    OP_PUBLISH,
    OP_STATS,
    FramedSocket,
    ProtocolError,
)
from repro.testing import faults
from repro.testing.faults import fault_point

#: Default LRU capacity of the served store.
DEFAULT_CAPACITY = 65536


def _error(message: str, status: int = 400) -> dict[str, Any]:
    return {"ok": False, "error": message, "status": status}


@guarded_by("_lock", "_connections", "_auth_failures", "_requests")
class MemoService:
    """The threaded TCP server wrapping one shared memo store.

    Args:
        host: bind address (non-loopback requires a token set).
        port: bind port (0 = ephemeral; read back from :attr:`port`).
        capacity: LRU bound of the served store.
        tokens: accepted auth tokens (empty set = open, loopback only).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = DEFAULT_CAPACITY,
        tokens: TokenSet | None = None,
    ) -> None:
        self.tokens = tokens or TokenSet()
        ensure_bind_allowed(host, self.tokens, "memo service")
        self.store = SharedCheckMemo(capacity)
        self._listener = socket.create_server((host, port))
        self._lock = threading.Lock()
        self._connections = 0
        self._auth_failures = 0
        self._requests = 0
        self._closed = False
        self._accept_thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._listener.getsockname()[0])

    @property
    def port(self) -> int:
        return int(self._listener.getsockname()[1])

    def start(self) -> None:
        """Serve in the background (one thread per connection)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="memod-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                with self._lock:
                    self._connections += 1
                threading.Thread(
                    target=self._serve_connection,
                    args=(FramedSocket(connection),),
                    name="memod-conn",
                    daemon=True,
                ).start()
            except Exception:
                # Thread creation fails under thread exhaustion; the
                # accepted socket must not outlive the failed handoff
                # (RES01).
                connection.close()
                raise

    def _serve_connection(self, link: FramedSocket) -> None:
        authenticated = not self.tokens.required()
        try:
            while True:
                # Fault site: an armed `raise` here drops the connection
                # mid-conversation — exactly what a dead memod looks like
                # to a client, driving its degraded-mode path.
                fault_point("memod.down")
                request = link.recv()
                if request is None:
                    return
                response, authenticated = self._handle(request, authenticated)
                link.send(response)
        except (ProtocolError, OSError):
            return
        finally:
            link.close()

    def _handle(
        self, request: dict[str, Any], authenticated: bool
    ) -> tuple[dict[str, Any], bool]:
        """One request → (response, new authenticated state)."""
        with self._lock:
            self._requests += 1
        op = request.get("op")
        if op == OP_HELLO:
            if self.tokens.required():
                identity = self.tokens.identify(request.get("token"))
                if identity is None:
                    with self._lock:
                        self._auth_failures += 1
                    return _error("authentication failed", 401), False
            return {"ok": True}, True
        if not authenticated:
            with self._lock:
                self._auth_failures += 1
            return _error("authenticate with a hello frame first", 401), False
        if op == OP_PING:
            return {"ok": True}, True
        if op == OP_LOOKUP:
            key = request.get("key")
            client = str(request.get("client", "anonymous"))
            if not isinstance(key, str):
                return _error("'key' must be a string"), True
            found = self.store.lookup(key, client)
            return {
                "ok": True,
                "found": None if found is None else [found[0], found[1]],
            }, True
        if op == OP_PUBLISH:
            key = request.get("key")
            verdict = request.get("verdict")
            bits = request.get("bits")
            client = str(request.get("client", "anonymous"))
            if not isinstance(key, str) or not isinstance(verdict, str):
                return _error("'key' and 'verdict' must be strings"), True
            if bits is not None and not isinstance(bits, list):
                return _error("'bits' must be a list of booleans or null"), True
            self.store.publish(key, verdict, bits, client)
            return {"ok": True}, True
        if op == OP_STATS:
            return {"ok": True, "statistics": self.statistics()}, True
        return _error(f"unknown op {op!r}"), True

    def statistics(self) -> dict[str, Any]:
        """Store counters plus service-level connection counters."""
        with self._lock:
            service = {
                "connections": self._connections,
                "auth_failures": self._auth_failures,
                "requests": self._requests,
            }
        record = self.store.statistics()
        record["service"] = service
        return record

    def close(self) -> None:
        """Stop accepting and close the listener (idempotent).

        Per-connection threads exit on their next read (clients see the
        close as a degraded service and fall back to local-only mode).
        """
        if self._closed:
            return
        self._closed = True
        # shutdown() before close(): a thread blocked in accept() holds
        # a kernel reference that keeps a merely-closed listener serving;
        # shutting the socket down unblocks it immediately.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.memod",
        description="Serve the shared check memo to sciduction nodes.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=DEFAULT_CAPACITY,
        help="LRU bound on stored check verdicts",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="accepted token spec (falls back to REPRO_AUTH_TOKEN)",
    )
    arguments = parser.parse_args(argv)
    faults.install_from_env()
    service = MemoService(
        host=arguments.host,
        port=arguments.port,
        capacity=arguments.capacity,
        tokens=TokenSet.from_env(arguments.auth_token),
    )
    service.start()
    print(
        f"sciduction memo service listening on {service.host}:{service.port}",
        flush=True,
    )
    if arguments.port_file is not None:
        arguments.port_file.write_text(f"{service.port}\n")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
