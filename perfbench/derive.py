"""Re-derive the catalogue's expected answers by exhaustive simulation.

    PYTHONPATH=src python3 perfbench/derive.py

For every timing task in ``catalogue.WCET`` the compiled program is run
on the simulated platform over every control-relevant input (every
value of the bits its branches read, with the data words at the
boundaries of their range), at every word width the benchmark streams
use.  Cycle counts depend only on the path taken, so the maximum is the
true worst-case execution time.  For every deobfuscation cell, the
obfuscated oracle is checked against the reference semantics over the
whole input space, so a correct synthesis result has verdict True.

Prints one line per entry and exits 1 if any catalogue value is wrong.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalogue import OGIS_CELLS, WCET, task_key  # noqa: E402

from repro import ogis  # noqa: E402
from repro.cfg import programs  # noqa: E402
from repro.platform.measurement import MeasurementHarness  # noqa: E402

WIDTHS = range(16, 32)


def _inputs(program: str, args: dict, width: int) -> list[dict]:
    mask = (1 << width) - 1
    if program == "figure4_toy":
        return [{"flag": f, "x": x} for f in (0, 1, 2, 3) for x in (0, 1, mask)]
    if program == "saturating_add":
        limit = (1 << (width - 1)) - 1
        edges = (0, 1, 2, limit - 1, limit, limit + 1, mask)
        return [{"a": a, "b": b} for a in edges for b in edges]
    if program == "absolute_difference":
        edges = (0, 1, 2, mask)
        return [{"a": a, "b": b} for a in edges for b in edges]
    if program == "conditional_cascade":
        return [{"x": x} for x in range(1 << args["depth"])]
    if program == "bounded_linear_search":
        cases = []
        for needle in (0, 1, 2):
            for nibbles in itertools.product((0, 1, 2), repeat=args["length"]):
                haystack = sum(value << (4 * i) for i, value in enumerate(nibbles))
                cases.append({"haystack": haystack & mask, "needle": needle})
        return cases
    if program == "modular_exponentiation":
        return [
            {"base": base, "exponent": exponent}
            for base in (0, 3)
            for exponent in range(1 << args["exponent_bits"])
        ]
    raise ValueError(f"no input enumeration for {program}")


def _parse(key: str) -> tuple[str, dict]:
    program, _, rest = key.partition("(")
    args = {}
    for item in filter(None, rest.rstrip(")").split(",")):
        name, _, value = item.partition("=")
        args[name] = int(value)
    return program, args


def main() -> int:
    wrong = 0
    for key, expected in WCET.items():
        program, args = _parse(key)
        assert task_key(program, args) == key
        found = set()
        for width in WIDTHS:
            harness = MeasurementHarness.from_program(
                getattr(programs, program)(word_width=width, **args)
            )
            found.add(max(harness.measure(case) for case in _inputs(program, args, width)))
        ok = found == {expected}
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} wcet {key}: "
              f"catalogue {expected}, simulated {sorted(found)}")
    tasks = {
        "multiply45": (ogis.multiply45_obfuscated, ogis.multiply45_reference, 1),
        "interchange": (ogis.interchange_obfuscated, ogis.interchange_reference, 2),
    }
    for task, width in OGIS_CELLS:
        obfuscated, reference, arity = tasks[task]
        space = itertools.product(range(1 << width), repeat=arity)
        ok = all(
            tuple(obfuscated(values, width)) == tuple(reference(values, width))
            for values in space
        )
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} oracle {task} w{width}: obfuscated == reference")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
