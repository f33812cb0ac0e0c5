"""One check memo per process.

:class:`~repro.smt.solver.SmtSolver` answers a repeated ``check`` from a
memo instead of re-running the SAT search, but it holds no memo of its
own: it keys every decided check structurally and consults the one
backend installed with
:meth:`~repro.smt.solver.SmtSolver.set_memo_backend`.  This module is
that backend:

* :class:`SharedCheckMemo` is the store — a bounded LRU mapping from the
  *wire form* of a check (the blaster's declaration-layout signature
  plus a structural digest of the asserted formulas, the ``extra``
  assumptions and the solver's variable frontier) to the decided verdict
  plus the recorded model bits.
* :class:`CheckMemoClient` is the one client: a process-local
  :class:`SharedCheckMemo` in front of an optional *remote* store with
  the same ``lookup``/``publish`` signature.  The remote is None for a
  sequential engine (one client serves every pooled session) and for a
  private solver or session (one client each); it is the manager proxy
  of the parent's store in a worker process (:func:`start_shared_memo`)
  and a :class:`~repro.cluster.memoclient.RemoteMemoStore` on a cluster
  node, dialing the one store its coordinator hosts.  A lookup tries the
  local store first, so a repeated check costs no round trip; a remote
  hit is copied into the local store, and every publish goes to both.
  The remote is fail-open: a failed call is counted, the client answers
  local-only, and the remote is retried after :data:`REARM_AFTER_CALLS`
  skipped calls (a counter, not a clock, so the back-off is
  deterministic and free of wall-clock reads).
* :func:`check_wire_key` builds the digest part of the key.  Keys are
  content-addressed — hash-consed terms are digested structurally, so
  two workers that assert the same formulas from the same variable
  layout produce the same key even though their term objects live in
  different processes.

A check's verdict is a pure function of the asserted formulas, and the
recorded model bits are exactly what the deterministic search would
recompute — *provided* the variable layout matches, which the layout
signature and frontier in the key guarantee: a hit's model bits decode
under the live layout exactly as under the recorded one, whichever
session, base-scope epoch or process recorded them.  UNKNOWN
(budget-limited) answers are never published.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from multiprocessing.managers import BaseManager
from typing import Any

from repro.analysis.annotations import guarded_by
from repro.smt.wire import check_wire_key, term_digest  # noqa: F401 — re-export

#: Entry bound of every process-local store and of the manager-served
#: store of a parallel engine.
MEMO_CAPACITY = 4096

# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class SharedMemoStatistics:
    """Counters describing one :class:`SharedCheckMemo` over its lifetime."""

    lookups: int = 0
    hits: int = 0
    #: Hits whose entry was published by a *different* client than the
    #: requester — a verdict decided on worker A short-circuiting the
    #: same check on worker B.
    cross_worker_hits: int = 0
    publishes: int = 0
    #: Publishes dropped because the key was already present.
    duplicate_publishes: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@guarded_by("_lock", "_entries", "_statistics")
class SharedCheckMemo:
    """Bounded LRU store of decided check answers.

    Entries map :func:`check_wire_key` keys to
    ``(verdict, model_bits, publisher)`` where ``verdict`` is the
    :class:`~repro.smt.solver.SmtResult` value string and ``model_bits``
    is the recorded SAT model (None for UNSAT).  The store is
    thread-safe; under a ``multiprocessing`` manager every method call is
    additionally serialized by the proxy layer.

    Args:
        capacity: maximum number of entries; the least-recently-used
            entry is evicted past the bound.
    """

    def __init__(self, capacity: int = MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("shared memo capacity must be at least 1")
        self._capacity = capacity
        self._entries: OrderedDict[str, tuple[str, list[bool] | None, str]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._statistics = SharedMemoStatistics()

    def lookup(self, key: str, requester: str) -> tuple[str, list[bool] | None] | None:
        """The stored ``(verdict, model_bits)`` for ``key``, or None.

        A hit refreshes the entry's recency; a hit on an entry published
        by a different client is additionally counted as a cross-worker
        hit.
        """
        with self._lock:
            self._statistics.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            verdict, model_bits, publisher = entry
            self._statistics.hits += 1
            if publisher != requester:
                self._statistics.cross_worker_hits += 1
            return verdict, model_bits

    def publish(
        self,
        key: str,
        verdict: str,
        model_bits: list[bool] | None,
        publisher: str,
    ) -> None:
        """Record a decided answer (first writer wins; LRU-bounded)."""
        with self._lock:
            if key in self._entries:
                self._statistics.duplicate_publishes += 1
                self._entries.move_to_end(key)
                return
            self._entries[key] = (verdict, model_bits, publisher)
            self._statistics.publishes += 1
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._statistics.evictions += 1

    def size(self) -> int:
        """Number of stored entries."""
        with self._lock:
            return len(self._entries)

    def capacity(self) -> int:
        """The LRU bound."""
        return self._capacity

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def statistics(self) -> dict:
        """JSON-ready counter snapshot (includes current size)."""
        with self._lock:
            record = self._statistics.as_dict()
            record["entries"] = len(self._entries)
            record["capacity"] = self._capacity
            return record


#: Remote calls skipped after a transport failure before re-arming.
#: Counter-based (one skip per memo consultation), so a client serving a
#: long batch retries every so often without ever reading a clock.
REARM_AFTER_CALLS = 64


@guarded_by("_lock", "_cooldown", "_counters")
class CheckMemoClient:
    """The memo backend of a solver: a local store over an optional remote.

    Duck-typed to :meth:`repro.smt.solver.SmtSolver.set_memo_backend`:
    ``lookup(key)`` and ``publish(key, verdict, bits)``.  Everything is
    fail-open: no remote outage or protocol error ever raises into a
    solving job.

    Args:
        remote: a store with :class:`SharedCheckMemo`'s ``lookup`` /
            ``publish`` signature (a manager proxy or a
            :class:`~repro.cluster.memoclient.RemoteMemoStore`), or None.
        client_id: stamped into every store call; the stores count a hit
            on an entry another client published as a cross-worker hit.
    """

    def __init__(self, remote: Any = None, client_id: str = "local") -> None:
        self.remote = remote
        self.client_id = client_id
        self.local = SharedCheckMemo(MEMO_CAPACITY)
        self._lock = threading.Lock()
        #: Remote calls still to skip before the next reconnect attempt
        #: (0 = armed).
        self._cooldown = 0
        self._counters = {
            "local_hits": 0,
            "remote_hits": 0,
            "remote_misses": 0,
            "publishes": 0,
            "degraded_calls": 0,
            "degradations": 0,
            "rearms": 0,
        }

    def _count(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    def _remote_allowed(self) -> bool:
        """Whether this call may touch the remote (else: degraded skip).

        Decrements the cooldown; the call that brings it to zero is
        allowed through as the re-arm probe.
        """
        if self.remote is None:
            return False
        with self._lock:
            if self._cooldown == 0:
                return True
            self._cooldown -= 1
            self._counters["degraded_calls"] += 1
            if self._cooldown > 0:
                return False
        # Cooldown just expired: this call is the probe.  A success
        # below counts as the re-arm; a failure restarts the cooldown.
        self._count("rearms")
        return True

    def _degrade(self) -> None:
        with self._lock:
            self._cooldown = REARM_AFTER_CALLS
            self._counters["degradations"] += 1

    def lookup(self, key: str) -> tuple[str, list[bool] | None, bool] | None:
        """``(verdict, model_bits, remote)`` for ``key``, or None.

        ``remote`` is True when the hit was served by the remote store
        (the solver counts those as ``shared_memo_hits``).
        """
        found = self.local.lookup(key, self.client_id)
        if found is not None:
            self._count("local_hits")
            return found[0], found[1], False
        if not self._remote_allowed():
            return None
        try:
            found = self.remote.lookup(key, self.client_id)
        except Exception:
            self._degrade()
            return None
        if found is None:
            self._count("remote_misses")
            return None
        self._count("remote_hits")
        verdict, bits = found
        self.local.publish(key, verdict, bits, "remote")
        return verdict, bits, True

    def publish(
        self, key: str, verdict: str, model_bits: list[bool] | None
    ) -> None:
        """Record a decided answer locally, then on the remote."""
        self._count("publishes")
        # Local first: even a degraded client keeps serving what this
        # process decided.
        self.local.publish(key, verdict, model_bits, self.client_id)
        if not self._remote_allowed():
            return
        try:
            self.remote.publish(key, verdict, model_bits, self.client_id)
        except Exception:
            self._degrade()

    def degraded(self) -> bool:
        """Whether remote calls are currently being skipped."""
        with self._lock:
            return self._cooldown > 0

    def statistics(self) -> dict[str, Any]:
        """JSON-ready counters (plus the local store's own counters)."""
        with self._lock:
            record: dict[str, Any] = dict(self._counters)
            record["degraded"] = self._cooldown > 0
        record["local_cache"] = self.local.statistics()
        return record

    def close(self) -> None:
        """Close the remote's connection, if it has one."""
        close = getattr(self.remote, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# Manager plumbing (parallel engines)
# ---------------------------------------------------------------------------


class _MemoManager(BaseManager):
    """Manager serving one :class:`SharedCheckMemo` to worker processes."""


_MemoManager.register("SharedCheckMemo", SharedCheckMemo)


def start_shared_memo(context: Any | None = None) -> tuple[_MemoManager, Any]:
    """Start a manager process hosting a :class:`SharedCheckMemo`.

    Returns ``(manager, proxy)``; the proxy is picklable and is handed to
    worker processes through their initializer, the manager must be kept
    alive (and eventually ``shutdown()``) by the caller.
    """
    manager = _MemoManager(ctx=context)
    manager.start()
    proxy = manager.SharedCheckMemo(MEMO_CAPACITY)  # type: ignore[attr-defined]
    return manager, proxy
