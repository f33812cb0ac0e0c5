"""Length-prefixed JSON frame protocol shared by all cluster roles.

One frame on the wire::

    b"RC1\\n" | length:u32be | crc32:u32be | <compact sorted-keys JSON>

The body is canonical JSON (sorted keys, no whitespace) so a frame is a
pure function of its payload — the same discipline the journal and the
HTTP layer already follow.  The CRC covers the body; the magic pins the
protocol revision (bump it on any incompatible change).

Failure taxonomy, mirroring the journal's torn-tail handling:

* a clean EOF *between* frames is a normal connection close —
  :func:`read_frame` returns None;
* an EOF *inside* a frame is a torn frame (the peer died mid-write) —
  :class:`TornFrameError`;
* bad magic, a checksum mismatch, an oversized length or a non-object
  body is corruption or a protocol-confused peer —
  :class:`ProtocolError`.  Neither is ever silently skipped: a framed
  stream has no resynchronization point, so the connection is the unit
  of failure.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import IO, Any

from repro.core.exceptions import ReproError

#: Protocol revision magic; the trailing newline keeps accidental HTTP
#: or journal traffic from parsing as a frame header.
MAGIC = b"RC1\n"

#: ``length | crc32`` header that follows the magic.
_HEADER = struct.Struct(">II")

#: Frames above this size are rejected on both sides (job payloads and
#: results are small; this bounds memory per connection).
MAX_FRAME_BYTES = 16 * 1024 * 1024


#: The cluster op vocabulary — one constant per frame kind.  Every
#: frame-construction and dispatch site in the cluster modules uses
#: these names; the PROTO01 lint holds both to :data:`PROTOCOL_OPS`.
OP_REGISTER = "register"
OP_JOB = "job"
OP_RESULT = "result"
OP_HEARTBEAT = "heartbeat"
OP_DRAIN = "drain"
OP_DRAINED = "drained"
OP_PING = "ping"
OP_PONG = "pong"
OP_HELLO = "hello"
OP_LOOKUP = "lookup"
OP_PUBLISH = "publish"


@dataclass(frozen=True)
class OpSpec:
    """One declared frame kind of the cluster wire vocabulary.

    ``senders``/``receivers`` name cluster modules (``coordinator``,
    ``node``, ``memoclient``); the PROTO01 lint checks every
    construction site against ``senders``+``required`` and proves each
    receiver dispatches on exactly its declared ops.  ``optional``
    documents fields a peer may include but no receiver requires.

    Reply frames carrying no ``"op"`` key (the coordinator's
    registration ack, the ``{"ok": …}`` answers to memo requests) are
    outside the vocabulary on purpose: they answer exactly one request
    on the same connection and are never dispatched on.
    """

    name: str
    required: tuple[str, ...]
    senders: tuple[str, ...]
    receivers: tuple[str, ...]
    optional: tuple[str, ...] = ()


#: The declared vocabulary — the single source of truth for PROTO01.
PROTOCOL_OPS: tuple[OpSpec, ...] = (
    OpSpec(OP_REGISTER, ("node", "protocol"), ("node",), ("coordinator",),
           optional=("token",)),
    OpSpec(OP_JOB, ("payload",), ("coordinator",), ("node",)),
    # Exactly one of ``payload`` (the engine's wire-form outcome) and
    # ``error`` (the job could not be started on the node).
    OpSpec(OP_RESULT, ("job_id",), ("node",), ("coordinator",),
           optional=("payload", "error")),
    OpSpec(OP_HEARTBEAT, ("node",), ("node",), ("coordinator",)),
    OpSpec(OP_DRAIN, (), ("coordinator",), ("node",)),
    OpSpec(OP_DRAINED, ("node",), ("node",), ("coordinator",)),
    OpSpec(OP_PING, (), ("coordinator",), ("node",), optional=("seq",)),
    OpSpec(OP_PONG, ("node",), ("node",), ("coordinator",),
           optional=("seq",)),
    # A memo connection's first frame, where a node link's is
    # ``register``; the coordinator serves lookups and publishes on it.
    OpSpec(OP_HELLO, ("client",), ("memoclient",), ("coordinator",),
           optional=("token",)),
    OpSpec(OP_LOOKUP, ("key",), ("memoclient",), ("coordinator",),
           optional=("client",)),
    OpSpec(OP_PUBLISH, ("key", "verdict", "bits"), ("memoclient",),
           ("coordinator",), optional=("client",)),
)

#: Registry by op name (what the checker and the tests consume).
OPS_BY_NAME: dict[str, OpSpec] = {spec.name: spec for spec in PROTOCOL_OPS}

#: Constant-name → op-name table so the lint can resolve ``OP_*``
#: references at dispatch and construction sites.
OP_CONSTANTS: dict[str, str] = {
    "OP_REGISTER": OP_REGISTER,
    "OP_JOB": OP_JOB,
    "OP_RESULT": OP_RESULT,
    "OP_HEARTBEAT": OP_HEARTBEAT,
    "OP_DRAIN": OP_DRAIN,
    "OP_DRAINED": OP_DRAINED,
    "OP_PING": OP_PING,
    "OP_PONG": OP_PONG,
    "OP_HELLO": OP_HELLO,
    "OP_LOOKUP": OP_LOOKUP,
    "OP_PUBLISH": OP_PUBLISH,
}


class ProtocolError(ReproError):
    """A corrupt or protocol-confused frame (connection must be dropped)."""


class TornFrameError(ProtocolError):
    """The stream ended mid-frame — the peer died while writing."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one payload to its canonical frame bytes.

    Raises:
        ProtocolError: the encoded body exceeds :data:`MAX_FRAME_BYTES`.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return MAGIC + _HEADER.pack(len(body), zlib.crc32(body)) + body


def _read_exact(stream: IO[bytes], count: int) -> bytes:
    """Read exactly ``count`` bytes, tolerating short reads from sockets."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: IO[bytes]) -> dict[str, Any] | None:
    """Read one frame from a binary stream.

    Returns:
        The decoded payload, or None on a clean EOF at a frame boundary.

    Raises:
        TornFrameError: EOF landed inside a frame.
        ProtocolError: bad magic, checksum mismatch, oversized length,
            or a body that is not a JSON object.
    """
    magic = _read_exact(stream, len(MAGIC))
    if not magic:
        return None
    if len(magic) < len(MAGIC):
        raise TornFrameError("stream ended inside the frame magic")
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    header = _read_exact(stream, _HEADER.size)
    if len(header) < _HEADER.size:
        raise TornFrameError("stream ended inside the frame header")
    length, checksum = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    body = _read_exact(stream, length)
    if len(body) < length:
        raise TornFrameError(
            f"stream ended inside the frame body ({len(body)}/{length} bytes)"
        )
    if zlib.crc32(body) != checksum:
        raise ProtocolError("frame checksum mismatch")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class FramedSocket:
    """One connected socket speaking frames, safe for concurrent senders.

    Receiving stays single-consumer (each side dedicates one reader
    thread per connection); sending is serialized by a lock so a
    heartbeat thread and a result-sending thread never interleave
    bytes of two frames.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._socket = sock
        self._reader: IO[bytes] = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._closed = False

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: float | None = 10.0
    ) -> "FramedSocket":
        """Dial ``host:port`` and wrap the connection.

        The connect timeout bounds only the dial; the established socket
        is switched back to blocking (frame reads block until the peer
        writes or dies).
        """
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            sock.settimeout(None)
            return cls(sock)
        except OSError:
            # settimeout or the makefile() in __init__ failing would
            # otherwise leak the freshly dialed socket (RES01).
            sock.close()
            raise

    def send(self, payload: dict[str, Any]) -> None:
        """Send one frame (atomic with respect to concurrent senders)."""
        frame = encode_frame(payload)
        with self._send_lock:
            self._socket.sendall(frame)  # analysis: allow[BLK01] the send lock exists to serialize exactly this write; nothing else ever waits on it

    def recv(self) -> dict[str, Any] | None:
        """Receive one frame; None on a clean close (see :func:`read_frame`)."""
        try:
            return read_frame(self._reader)
        except ValueError:
            # close() racing a blocked recv leaves the buffered reader
            # raising "I/O operation on closed file" — a local close is
            # a clean end of stream, not corruption.
            return None

    def close(self) -> None:
        """Close both directions (idempotent; unblocks a pending recv)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        self._socket.close()

    @property
    def closed(self) -> bool:
        return self._closed
