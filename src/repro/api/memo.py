"""Shared cross-worker check-memo service.

:class:`~repro.smt.solver.SmtSolver` memoizes decided ``check`` answers
*per solver*: a warm shape-routed session answers a repeated query
without running the SAT search.  That memo dies with its solver — a
verdict decided by worker A is recomputed from scratch when the same
check arrives on worker B (a stolen shape queue, a re-planned batch on a
long-lived service, a session recycled past the pool bound).

This module lifts the memo out of the solver into a process-shared
store:

* :class:`SharedCheckMemo` is the store itself — a bounded LRU mapping
  from the *wire form* of a check (a structural digest of the asserted
  formulas, the ``extra`` assumptions and the solver's variable
  frontier) to the decided verdict plus the recorded model bits.  It
  lives in the parent process: sequential engines hold it directly,
  parallel engines serve it to their workers through a
  ``multiprocessing`` manager (:func:`start_shared_memo`).
* :class:`MemoClient` is the per-worker handle installed on a
  :class:`~repro.api.pool.SolverPool`: every solver the pool creates
  consults it *after* its own in-memory memo misses (read-through — a
  shared hit is copied into the local memo so the round trip is paid
  once per worker), and publishes every decided answer back.
* :func:`check_wire_key` builds the store key.  Keys are
  content-addressed — hash-consed terms are digested structurally, so
  two workers that assert the same formulas from the same variable
  frontier produce the same key even though their term objects live in
  different processes.

Soundness is the same argument as the solver-local memo: a check's
verdict is a pure function of the asserted formulas, and the recorded
model bits are exactly what the deterministic search would recompute —
*provided* the variable layout matches, which the frontier component of
the key guarantees for the deterministic same-shape job replays the
engine's scheduler produces (a shape's jobs always run on one worker, in
submission order, each on a freshly sealed base scope or one the pool's
release-time reset returned to its seal-time watermark; the
:mod:`repro.api.pool` docstring states what that reset keeps).
UNKNOWN (budget-limited) answers are never published.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.managers import BaseManager
from typing import Any

from repro.analysis.annotations import guarded_by
from repro.smt.wire import check_wire_key, term_digest  # noqa: F401 — re-export

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
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "cross_worker_hits": self.cross_worker_hits,
            "publishes": self.publishes,
            "duplicate_publishes": self.duplicate_publishes,
            "evictions": self.evictions,
        }


@guarded_by("_lock", "_entries", "_statistics")
class SharedCheckMemo:
    """Bounded LRU store of decided check answers, shared across workers.

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

    def __init__(self, capacity: int = 4096) -> None:
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


@dataclass
class MemoClient:
    """One worker's handle on a (possibly manager-served) shared memo.

    This is the ``memo_backend`` consumed by
    :meth:`~repro.smt.solver.SmtSolver.set_memo_backend`: it stamps every
    store call with the worker's client id (which is how the store
    distinguishes cross-worker hits from same-worker ones) and absorbs
    transport failures — a dead manager degrades the shared memo to a
    no-op instead of poisoning in-flight jobs.
    """

    store: SharedCheckMemo  # or a manager proxy with the same methods
    client_id: str
    #: Set after the first transport failure; all later calls short-circuit.
    broken: bool = field(default=False, compare=False)

    def lookup(self, key: str) -> tuple[str, list[bool] | None] | None:
        if self.broken:
            return None
        try:
            return self.store.lookup(key, self.client_id)
        except Exception:
            self.broken = True
            return None

    def publish(self, key: str, verdict: str, model_bits: list[bool] | None) -> None:
        if self.broken:
            return
        try:
            self.store.publish(key, verdict, model_bits, self.client_id)
        except Exception:
            self.broken = True


# ---------------------------------------------------------------------------
# Manager plumbing (parallel engines)
# ---------------------------------------------------------------------------


class _MemoManager(BaseManager):
    """Manager serving one :class:`SharedCheckMemo` to worker processes."""


_MemoManager.register("SharedCheckMemo", SharedCheckMemo)


def start_shared_memo(
    capacity: int, context: Any | None = None
) -> tuple[_MemoManager, Any]:
    """Start a manager process hosting a :class:`SharedCheckMemo`.

    Returns ``(manager, proxy)``; the proxy is picklable and is handed to
    worker processes through their initializer, the manager must be kept
    alive (and eventually ``shutdown()``) by the caller.
    """
    manager = _MemoManager(ctx=context)
    manager.start()
    proxy = manager.SharedCheckMemo(capacity)  # type: ignore[attr-defined]
    return manager, proxy
