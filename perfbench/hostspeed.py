"""Host speed probe: a fixed pure-Python workload timed alongside a run.

    python3 perfbench/hostspeed.py OUT.json

Runs until SIGTERM, then writes its samples to ``OUT.json``.  Every
``INTERVAL_S`` it runs ``reference_work`` once and records when (the
system-wide monotonic clock) and the CPU time it took (thread CPU time,
so time spent waiting for a core does not count).  The work uses
nothing from ``src/``, so a change to the program never changes the
probe.

The shared 2-core host this benchmark was tuned on changes speed by up
to 1.8x within seconds, for both cores at once, so a probe on one core
tracks the speed of a busy process on the other.  Running the same nine
OGIS jobs three times in a row, a job's latency varied by 5-27%
(coefficient of variation) from run to run; its latency divided by the
probe's mean sample over the job's time varied by 1-14%.  ``run.py``
divides every measured interval by ``window_factor`` of the samples
around it, which states the time at the probe's nominal speed.  A mean,
not a median: the host flips between a fast and a slow speed, and an
interval's time follows the share of it spent slow.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import sys
import time
from pathlib import Path

#: Seconds between two samples; one sample costs about 5 ms of CPU.
INTERVAL_S = 0.05
#: Shortest window a factor is taken over: shorter intervals are
#: widened around their middle, so that they hold enough samples.
MIN_WINDOW_S = 1.0
#: About the sample CPU time on an unloaded 2-core x86-64 cloud VM
#: (CPython 3.11).  Only the ratio to it matters.
NOMINAL_S = 0.005


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: "_Cell | None") -> None:
        self.value = value
        self.link = link


def reference_work() -> int:
    """Dict, list, attribute and integer work, in the program's proportions."""
    table: dict = {}
    stack: list = []
    head = None
    total = 0
    for index in range(6000):
        key = (index * 7919) & 511
        table[key] = table.get(key, 0) + index
        if index & 3:
            stack.append(key)
        elif stack:
            total ^= stack.pop()
        head = _Cell(index, head if index & 15 else None)
        total += head.value % 13
    return total + len(table)


def speed_factor(durations: list) -> float:
    """How much slower than nominal the host ran (1.0 = nominal)."""
    if not durations:
        raise ValueError("no host speed samples")
    ordered = sorted(durations)
    trim = len(ordered) // 20
    middle = ordered[trim : len(ordered) - trim]
    return statistics.fmean(middle) / NOMINAL_S


def window_factor(samples: list, began: float, ended: float) -> float:
    """``speed_factor`` of the samples taken while ``[began, ended]`` ran."""
    middle = (began + ended) / 2
    half = max(ended - began, MIN_WINDOW_S) / 2
    durations = [took for when, took in samples if abs(when - middle) <= half]
    if len(durations) < 5:  # the probe was starved: fall back to the whole run
        durations = [took for _, took in samples]
    return speed_factor(durations)


def main() -> int:
    out = Path(sys.argv[1])
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    gc.disable()
    reference_work()  # warm-up, not recorded
    samples = []
    while not stopping:
        when = time.monotonic()
        began = time.thread_time()
        reference_work()
        samples.append((when, time.thread_time() - began))
        time.sleep(INTERVAL_S)
    out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
