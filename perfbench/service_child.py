"""``python -m repro.service`` with the benchmark's span wrappers inside.

    python3 perfbench/service_child.py [--trace SPANS.jsonl --summary OUT.json] \
        -- <repro.service arguments>

Without ``--trace`` this is exactly the service's own entry point.  With
it, the layer wrappers are installed in this process before
``repro.service.__main__.main`` runs, and the layer aggregates and span
records are written out once the service has drained (SIGTERM).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--summary", type=Path)
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    arguments = parser.parse_args()
    service_args = arguments.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    from repro.service import __main__ as service_main

    tracer = None
    if arguments.trace is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    status = service_main.main(service_args)
    if tracer is not None:
        tracer.write_spans(arguments.trace)
        arguments.summary.write_text(json.dumps(tracer.summary()))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
