"""Content-hashed certificate store: the disk tier below the check memo.

The in-memory :class:`~repro.api.memo.SharedCheckMemo` short-circuits
repeated *checks* within one engine's lifetime; this store
short-circuits repeated *jobs* across restarts.  Every successfully
completed job's wire-form result (including its conditional-soundness
certificate) is persisted keyed by the content hash of its canonical
wire-form submission — problem spec plus the budget knobs that shape the
outcome.  A re-submitted job whose submission hashes the same is
answered straight from disk, with no engine call at all; ``/stats``
counts the hits so the bypass is observable.

Layout (under the store directory)::

    certs/<hh>/<fingerprint>.json

where ``<hh>`` is the first two hex digits of the SHA-256 fingerprint
(fan-out keeps directory listings sane at scale) and the JSON file holds
``{"fingerprint", "request", "state", "result", "elapsed"}``.

Writes are atomic (temp file + ``os.replace``) and fsync'd, so a crash
mid-write can never leave a half cert that a later boot would serve; a
reader that does find a corrupt file treats it as a miss.  Write
failures (e.g. disk full) degrade the store — the job still completes
and is served from memory, the failure is counted, and ``/healthz``
reports the store unavailable until a write succeeds again.

Only ``"completed"`` outcomes are persisted: failures may be
environmental and timeouts depend on wall-clock scheduling, so replaying
either from cache would be wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.analysis.annotations import guarded_by
from repro.testing.faults import fault_point


def canonical_submission(request: dict) -> dict:
    """The part of a wire-form submission that shapes its result bytes.

    Budgets gate outcomes, and the label is echoed into the result
    details, so both belong with the problem spec; the accounting
    ``client`` tag does not.
    """
    return {
        key: request.get(key)
        for key in ("problem", "max_conflicts", "timeout", "label")
    }


def submission_fingerprint(request: dict) -> str:
    """Content hash of :func:`canonical_submission`."""
    body = json.dumps(
        canonical_submission(request), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@guarded_by(
    "_lock", "_available", "_hits", "_misses", "_writes",
    "_write_errors", "_read_errors",
)
class CertStore:
    """Persistent result store keyed by submission fingerprint.

    Args:
        directory: store root (created on first use).
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._available = True
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._write_errors = 0
        self._read_errors = 0

    def _path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> dict | None:
        """The stored record for ``fingerprint``, or None (counted)."""
        path = self._path(fingerprint)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        except OSError:
            with self._lock:
                self._read_errors += 1
            return None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            # A corrupt cert is a miss, never an error to the client.
            with self._lock:
                self._read_errors += 1
            return None
        if not isinstance(record, dict) or "result" not in record:
            with self._lock:
                self._read_errors += 1
            return None
        with self._lock:
            self._hits += 1
        return record

    def put(self, fingerprint: str, record: dict) -> bool:
        """Persist ``record`` atomically; returns whether it stuck.

        Failure never raises — the store degrades (see
        :meth:`available`) and the caller carries on serving the result
        from memory.
        """
        path = self._path(fingerprint)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            fault_point("certstore.write")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as handle:
                handle.write(body.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except OSError:
            with self._lock:
                self._write_errors += 1
                self._available = False
            try:
                temp.unlink()
            except OSError:
                pass
            return False
        with self._lock:
            self._writes += 1
            self._available = True
        return True

    def available(self) -> bool:
        """Whether the last write succeeded (True before any write)."""
        with self._lock:
            return self._available

    def statistics(self) -> dict:
        """JSON-ready counters for ``/stats``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "write_errors": self._write_errors,
                "read_errors": self._read_errors,
                "available": self._available,
            }
