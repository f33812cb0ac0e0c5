"""Deterministic fault injection for the engine and service layers.

The robustness machinery (write-ahead journal, certificate store,
crash-retry budgets, admission control) is exactly the code that never
runs on the happy path — so nothing exercised it until something broke
in production.  This module gives tests a way to *drive* those paths
deterministically:

* production code calls :func:`fault_point` at named injection sites
  (``"journal.write"``, ``"certstore.write"``, ``"worker.crash"``,
  ``"engine.crash"``, ``"engine.slow"``, and — in the cluster layer —
  ``"node.crash"`` before each node-side job execution, ``"memo.down"``
  in the coordinator's memo connection loop, and ``"net.partition"`` before
  each coordinator→node job send).  With no plan installed the
  call is one dictionary probe — the sites are free in production;
* tests arm the sites with :func:`injected` (in-process) or via the
  ``REPRO_FAULTS`` environment variable (subprocess services and forked
  worker processes inherit the armed plan);
* triggers are deterministic — a fault fires on an exact hit count, from
  a hit count onwards, or always — never on timers or randomness, so a
  failing fault test replays exactly.

Actions:

``raise``
    Raise :class:`FaultError` (an ``OSError``) at the site; the value
    names an errno (``"ENOSPC"``, ``"EIO"``) or is free-form message
    text.  This is how disk-full and I/O-error paths are simulated.
``exit``
    ``os._exit(value)`` — the process dies with no cleanup, exactly like
    a segfaulted worker.  Only meaningful at sites that run inside
    worker processes.
``sleep``
    ``time.sleep(value)`` seconds — simulates a slow engine without
    slowing the solver code itself.

Example::

    with faults.injected({"journal.write": faults.Fault("raise", "EIO")}):
        ...  # every journal append now fails with EIO

    REPRO_FAULTS="worker.crash:exit:13:1;engine.slow:sleep:0.2" \
        python -m repro.service --port 0
"""

from __future__ import annotations

import errno as errno_module
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping


class FaultError(OSError):
    """An injected I/O failure (an ``OSError`` so real handlers catch it)."""

    def __init__(self, point: str, value: str = "") -> None:
        code = getattr(errno_module, value, 0) if value else 0
        message = f"injected fault at {point!r}" + (f": {value}" if value else "")
        if code:
            super().__init__(code, message)
        else:
            super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class Fault:
    """One armed injection: what to do at a site, and when.

    Attributes:
        action: ``"raise"`` / ``"exit"`` / ``"sleep"`` (see module docs).
        value: errno name or message for ``raise``, exit code for
            ``exit``, seconds for ``sleep``.
        when: ``"*"`` fires on every hit, ``"N"`` on exactly the Nth hit
            (1-based), ``"N+"`` on the Nth hit and every later one.
    """

    action: str
    value: str = ""
    when: str = "*"

    def __post_init__(self) -> None:
        if self.action not in ("raise", "exit", "sleep"):
            raise ValueError(f"unknown fault action {self.action!r}")
        spec = self.when
        if spec != "*":
            digits = spec[:-1] if spec.endswith("+") else spec
            if not digits.isdigit() or int(digits) < 1:
                raise ValueError(f"bad fault trigger {self.when!r}")

    def fires(self, hit: int) -> bool:
        """Whether the fault fires on 1-based hit number ``hit``."""
        if self.when == "*":
            return True
        if self.when.endswith("+"):
            return hit >= int(self.when[:-1])
        return hit == int(self.when)


_LOCK = threading.Lock()
_PLAN: dict[str, Fault] | None = None
_HITS: dict[str, int] = {}


def install(plan: Mapping[str, Fault]) -> None:
    """Arm ``plan`` (point name → fault), replacing any previous plan."""
    global _PLAN
    with _LOCK:
        _PLAN = dict(plan)
        _HITS.clear()


def reset() -> None:
    """Disarm every injection point and clear hit counters."""
    global _PLAN
    with _LOCK:
        _PLAN = None
        _HITS.clear()


def hits(point: str) -> int:
    """How many times an armed ``point`` has been probed."""
    with _LOCK:
        return _HITS.get(point, 0)


@contextmanager
def injected(plan: Mapping[str, Fault]) -> Iterator[None]:
    """Arm ``plan`` for the duration of a ``with`` block, then disarm."""
    install(plan)
    try:
        yield
    finally:
        reset()


def parse_plan(spec: str) -> dict[str, Fault]:
    """Parse a ``REPRO_FAULTS`` specification string.

    Grammar: semicolon-separated ``point:action[:value[:when]]`` entries,
    e.g. ``"journal.write:raise:EIO:2+;engine.slow:sleep:0.2"``.
    """
    plan: dict[str, Fault] = {}
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(f"bad REPRO_FAULTS entry {entry!r}")
        point, action = parts[0], parts[1]
        value = parts[2] if len(parts) > 2 else ""
        when = parts[3] if len(parts) > 3 else "*"
        plan[point] = Fault(action, value, when)
    return plan


def install_from_env(variable: str = "REPRO_FAULTS") -> bool:
    """Arm the plan named by ``variable`` (no-op when unset).

    Returns whether a plan was installed.  Called by service entry
    points so subprocess tests can arm faults across the process
    boundary; forked worker processes inherit the armed plan (and the
    hit counters as of the fork) automatically.
    """
    spec = os.environ.get(variable)
    if not spec:
        return False
    install(parse_plan(spec))
    return True


def fault_point(point: str) -> None:
    """Probe injection site ``point``; acts only when a plan arms it.

    Raises:
        FaultError: when an armed ``raise`` fault fires here.
    """
    if _PLAN is None:
        return
    with _LOCK:
        plan = _PLAN
        if plan is None:  # pragma: no cover — disarmed between checks
            return
        fault = plan.get(point)
        if fault is None:
            return
        _HITS[point] = hit = _HITS.get(point, 0) + 1
        if not fault.fires(hit):
            return
    if fault.action == "raise":
        raise FaultError(point, fault.value)
    if fault.action == "exit":
        os._exit(int(fault.value or 1))
    time.sleep(float(fault.value or 0.0))
