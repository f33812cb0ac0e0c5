"""Node-side transport to the coordinator's shared check memo.

:class:`RemoteMemoStore` speaks the memo frames (``hello``, then
``lookup``/``publish``) to the coordinator's cluster listener with the
same ``lookup``/``publish`` signature as
:class:`~repro.api.memo.SharedCheckMemo`, so a node installs it as the
remote of its one :class:`~repro.api.memo.CheckMemoClient` — the same
client a worker process puts in front of its parent's store.  The client
keeps the node-local store in front of the network and makes every
failure here fail-open (local-only answers, counter-based re-arm); this
class just raises.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.cluster.protocol import (
    OP_HELLO,
    OP_LOOKUP,
    OP_PUBLISH,
    FramedSocket,
    ProtocolError,
)


class RemoteMemoStore:
    """Blocking framed RPC to one coordinator's memo (errors raise).

    Connection state is lazy: the first call dials and authenticates;
    any failure tears the connection down so the next call re-dials.
    Thread-safe — one request/response exchange at a time.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        token: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.token = token
        self.timeout = timeout
        self._lock = threading.Lock()
        self._link: FramedSocket | None = None

    def _connected(self) -> FramedSocket:
        if self._link is None:
            hello: dict[str, Any] = {"op": OP_HELLO, "client": self.client_id}
            if self.token is not None:
                hello["token"] = self.token
            link = FramedSocket.connect(self.host, self.port, self.timeout)
            try:
                link.send(hello)
                response = link.recv()
                if response is None or not response.get("ok"):
                    message = "connection closed during hello" \
                        if response is None \
                        else str(response.get("error", "hello rejected"))
                    raise ProtocolError(
                        f"memo hello failed: {message}"
                    )
            except Exception:
                # The handshake died before this link was published to
                # self._link — nobody else can close it (RES01).
                link.close()
                raise
            self._link = link
        return self._link

    def _call(self, request: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            try:
                link = self._connected()
                link.send(request)  # analysis: allow[BLK01] single-outstanding-request RPC: the lock pairs this send with its reply by design
                response = link.recv()  # analysis: allow[BLK01] single-outstanding-request RPC: the lock pairs the reply with its send by design
            except (OSError, ProtocolError):
                self._teardown()
                raise
            if response is None:
                self._teardown()
                raise ProtocolError("memo connection closed")
            if not response.get("ok"):
                raise ProtocolError(
                    str(response.get("error", "memo call refused"))
                )
            return response

    def _teardown(self) -> None:
        if self._link is not None:
            self._link.close()
            self._link = None

    def lookup(
        self, key: str, requester: str
    ) -> tuple[str, list[bool] | None] | None:
        response = self._call({"op": OP_LOOKUP, "key": key, "client": requester})
        found = response.get("found")
        if found is None:
            return None
        verdict, bits = found
        return str(verdict), None if bits is None else list(bits)

    def publish(
        self,
        key: str,
        verdict: str,
        model_bits: list[bool] | None,
        publisher: str,
    ) -> None:
        self._call(
            {
                "op": OP_PUBLISH,
                "key": key,
                "verdict": verdict,
                "bits": model_bits,
                "client": publisher,
            }
        )

    def close(self) -> None:
        with self._lock:
            self._teardown()
