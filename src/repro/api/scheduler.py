"""Work-stealing scheduler for parallel batch execution.

PR 4's parallel executor assigned each problem shape to a worker once
(least-loaded at first appearance) and then never moved it.  That static
plan balances job *counts*, not job *durations*: on a skewed stream —
one shape with a few slow jobs next to shapes with many fast ones — the
fast workers drain and idle while the slow worker still has whole shape
queues it has not even started.

This module replaces the static plan with the same plan *plus work
stealing*:

* jobs are grouped into per-shape FIFO queues (submission order within a
  shape is preserved — a shape's session history is what makes parallel
  results byte-identical to sequential, see
  :meth:`repro.api.pool.SolverPool.acquire`);
* shapes are assigned to workers exactly as before (deterministic
  least-loaded at first appearance, with a per-batch rotation offset
  breaking ties so long-lived engines spread shapes over their workers
  across batches);
* workers are fed **one job at a time** from their own shapes (lowest
  submission index first, i.e. the same FIFO order the static executor
  used);
* a worker that runs out of its own jobs **steals a whole un-started
  shape queue** from another worker — never part of one, and never a
  shape whose first job has already been dispatched.  Stealing at shape
  granularity keeps every shape's full job sequence on a single worker,
  in submission order, which is exactly the invariant that makes the
  results (including per-job solver statistics) byte-identical to the
  sequential run; only *which* worker runs the sequence changes, and
  that is unobservable in the wire form.

The scheduler is transport-agnostic: the engine supplies callbacks for
claiming a job (which is also where cancellation is honoured), for
submitting it to a worker process, and for folding the outcome back into
the job handle.  Tests drive it with fake transports to pin the stealing
decisions deterministically.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable


@dataclass
class SchedulerStatistics:
    """Counters over a scheduler's lifetime (all batches)."""

    batches: int = 0
    #: Jobs handed to worker processes (cancelled jobs are never dispatched).
    dispatched: int = 0
    #: Whole shape-queues moved to an idle worker.
    steals: int = 0
    #: Jobs contained in stolen shape-queues at steal time.
    stolen_jobs: int = 0
    #: Worker processes retired after a crash.
    crashed_workers: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ShapePlan:
    """Per-shape FIFO queues plus the shape→worker ownership map.

    Args:
        items: ``(shape_key, job)`` pairs in submission order.
        workers: number of workers to plan over.
        rotation: deterministic tie-break offset — worker
            ``rotation % workers`` is preferred when planned loads are
            equal.  The engine advances it once per batch so a repeated
            stream on a long-lived engine lands its shapes on different
            workers over time (which is what turns the shared check memo
            into a cross-worker cache instead of a per-worker one).
    """

    def __init__(
        self,
        items: Iterable[tuple[str, Any]],
        workers: int,
        rotation: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        #: shape → deque of (submission index, job), FIFO.
        self.queues: dict[str, deque] = {}
        #: shape → owning worker index.
        self.owner: dict[str, int] = {}
        #: Shapes whose first job has been dispatched (unstealable).
        self.started: set[str] = set()
        #: Worker → shapes it owns, in first-assignment order.
        self.worker_shapes: list[list[str]] = [[] for _ in range(workers)]
        loads = [0] * workers
        for sequence, (shape, job) in enumerate(items):
            queue = self.queues.get(shape)
            if queue is None:
                self.queues[shape] = queue = deque()
                worker = min(
                    range(workers),
                    key=lambda index: (loads[index], (index - rotation) % workers),
                )
                self.owner[shape] = worker
                self.worker_shapes[worker].append(shape)
            queue.append((sequence, job))
            loads[self.owner[shape]] += 1
        self.steals = 0
        self.stolen_jobs = 0

    def remaining(self) -> int:
        """Jobs not yet popped from any queue."""
        return sum(len(queue) for queue in self.queues.values())

    def next_job(self, worker: int) -> Any:
        """Pop the next job for ``worker`` (stealing if it has none), or None.

        Own shapes are served in global submission order (the head with
        the smallest submission index), matching the FIFO the static
        executor used.  Popping a shape's first job marks the shape
        started, which permanently pins its remaining jobs to ``worker``.
        """
        shape = self._next_own_shape(worker)
        if shape is None and self._steal_for(worker):
            shape = self._next_own_shape(worker)
        if shape is None:
            return None
        self.started.add(shape)
        return self.queues[shape].popleft()[1]

    def _next_own_shape(self, worker: int) -> str | None:
        best: str | None = None
        for shape in self.worker_shapes[worker]:
            queue = self.queues[shape]
            if queue and (best is None or queue[0][0] < self.queues[best][0][0]):
                best = shape
        return best

    def _steal_for(self, thief: int) -> bool:
        """Move the largest stealable shape queue to ``thief``.

        Stealable = non-empty, not started, owned by another worker.
        The largest queue maximizes the rebalancing win; ties break on
        first appearance (deterministic dict order).  Whole queues move —
        per-shape submission order is preserved because the queue itself
        is untouched, only its owner changes.
        """
        best: str | None = None
        for shape, queue in self.queues.items():
            if not queue or shape in self.started or self.owner[shape] == thief:
                continue
            if best is None or len(queue) > len(self.queues[best]):
                best = shape
        if best is None:
            return False
        victim = self.owner[best]
        self.worker_shapes[victim].remove(best)
        self.worker_shapes[thief].append(best)
        self.owner[best] = thief
        self.steals += 1
        self.stolen_jobs += len(self.queues[best])
        return True


class WorkStealingScheduler:
    """Drives one batch over worker processes with work stealing.

    The scheduler owns the dispatch loop only; everything stateful about
    jobs and workers is delegated:

    Args:
        transport: worker-process access — ``submit(worker, job) ->
            Future`` and ``retire(worker)`` (kill and forget a crashed
            worker's process; the next submit to that index builds a
            fresh one).
        claim: called before dispatch; returns False to skip the job
            (the engine uses this to honour cancellations and atomically
            transition PENDING → RUNNING).
        complete: ``complete(job, kind, value)`` with ``kind`` one of
            ``"payload"`` (worker result dictionary), ``"error"``
            (exception raised by the worker call), ``"crashed"`` (retry
            exhausted), ``"cancelled"`` (future cancelled externally).
        retry_crash: asked once per crash whether the job should be
            retried on a fresh worker; returning False routes the job to
            ``complete(..., "crashed", ...)``.
    """

    def __init__(
        self,
        transport: Any,
        claim: Callable[[Any], bool],
        complete: Callable[[Any, str, Any], None],
        retry_crash: Callable[[Any], bool],
        statistics: SchedulerStatistics | None = None,
    ) -> None:
        self._transport = transport
        self._claim = claim
        self._complete = complete
        self._retry_crash = retry_crash
        self.statistics = statistics or SchedulerStatistics()

    def run_batch(
        self,
        items: Iterable[tuple[str, Any]],
        workers: int,
        rotation: int = 0,
    ) -> ShapePlan:
        """Run ``items`` (``(shape, job)`` pairs, submission order) to completion."""
        plan = ShapePlan(items, workers, rotation)
        self.statistics.batches += 1
        inflight: dict[Future, tuple[int, object]] = {}

        def dispatch(worker: int) -> None:
            while True:
                job = plan.next_job(worker)
                if job is None:
                    return
                if not self._claim(job):
                    continue  # cancelled while queued; result already set
                try:
                    future = self._transport.submit(worker, job)
                except Exception as error:  # noqa: BLE001 — folded, never raised
                    # e.g. the worker fleet was closed mid-batch: the job
                    # still gets a structured failure instead of the
                    # batch raising, per the run_batch contract.
                    self._complete(job, "error", error)
                    continue
                inflight[future] = (worker, job)
                self.statistics.dispatched += 1
                return

        for worker in range(workers):
            dispatch(worker)
        while inflight:
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                worker, job = inflight.pop(future)
                resubmitted = False
                try:
                    payload = future.result()
                except CancelledError:
                    self._complete(job, "cancelled", None)
                except BrokenProcessPool:
                    self.statistics.crashed_workers += 1
                    self._transport.retire(worker)
                    if self._retry_crash(job):
                        try:
                            retry_future = self._transport.submit(worker, job)
                        except Exception:  # noqa: BLE001 — fleet closed
                            self._complete(job, "crashed", None)
                        else:
                            inflight[retry_future] = (worker, job)
                            resubmitted = True
                    else:
                        self._complete(job, "crashed", None)
                except Exception as error:  # noqa: BLE001 — folded, never raised
                    self._complete(job, "error", error)
                else:
                    self._complete(job, "payload", payload)
                if not resubmitted:
                    dispatch(worker)
        plan_steals = plan.steals
        self.statistics.steals += plan_steals
        self.statistics.stolen_jobs += plan.stolen_jobs
        return plan
