"""One in-process engine, run as a closed loop over a list of wire specs.

    python3 perfbench/engine_child.py --jobs JOBS.json --out OUT.json \
        (--seconds S [--block B] | --count N | --setup-only) [--trace SPANS.jsonl]

Started by ``run.py`` in a fresh process for every measurement (pooled
engines freeze warm sessions and fill process-global intern tables, so
nothing may carry over between runs).  Prints ``ready`` once the engine
is built; the parent times set-up from spawn to that line.  Then runs
the specs one at a time through ``SciductionEngine.run_wire`` with the
default ``EngineConfig``, until ``--seconds`` have passed or ``--count``
jobs are done, and writes per-job
records, peak RSS and, with ``--trace``, the layer aggregates to
``--out``.  The deadline is checked only between blocks of ``--block``
jobs, so a timed run is always whole blocks: the same mix of specs
however fast the host runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from records import job_record  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--block", type=int, default=1)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    arguments = parser.parse_args()

    from repro.api import EngineConfig, SciductionEngine

    tracer = None
    if arguments.trace is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    engine = SciductionEngine(EngineConfig())
    print("ready", flush=True)
    if arguments.setup_only:
        return 0

    specs = json.loads(arguments.jobs.read_text())
    limit = arguments.count if arguments.count is not None else len(specs)
    records = []
    start = time.perf_counter()
    deadline = start + arguments.seconds if arguments.seconds is not None else None
    for index, spec in enumerate(specs[:limit]):
        at_boundary = index % arguments.block == 0
        if deadline is not None and at_boundary and time.perf_counter() >= deadline:
            break
        payload = {
            "job_id": index,
            "problem": spec,
            "max_conflicts": None,
            "timeout": None,
            "label": None,
        }
        began = time.monotonic()
        if tracer is None:
            response = engine.run_wire(payload)
        else:
            with tracer.job(index):
                response = engine.run_wire(payload)
        finished = time.monotonic()
        record = job_record(
            response["state"], response["result"], finished - began, response["elapsed"]
        )
        record["began"], record["finished"] = began, finished
        records.append(record)
    else:
        if deadline is not None:
            raise SystemExit("job list ran out before the deadline; lengthen the stream")
    wall = time.perf_counter() - start
    output = {
        "jobs": records,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        output["trace"] = tracer.summary()
        tracer.write_spans(arguments.trace)
    arguments.out.write_text(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
