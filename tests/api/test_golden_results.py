"""Golden pins for deobfuscation and timing-analysis results.

``data/golden_results.json`` holds wire-form specs — the three
deobfuscation tasks at width 4 (plus one resumed from seeded examples),
``modular_exponentiation`` with bounds above and below its WCET of 391
cycles, one distribution sweep and one warm-start job — and the
canonical wire result of each (the result dictionary without its
wall-clock ``elapsed``), produced by running the specs in order on one
engine.  Running them in order on one engine also pins what the solver
pool carries from job to job.  Any change to the OGIS loop, GameTime,
the procedure driver or the solver stack underneath that alters a
verdict, an artifact, a certificate or a search count shows up here.

After a deliberate change, re-record with
``PYTHONPATH=src python tests/api/test_golden_results.py``.
"""

import json
from pathlib import Path

from repro.api import SciductionEngine
from repro.api.results import result_to_dict, result_wire_canonical

GOLDEN = Path(__file__).parent / "data" / "golden_results.json"

SPECS = [
    {"kind": "deobfuscation", "task": "interchange", "width": 4, "seed": 3},
    {"kind": "deobfuscation", "task": "multiply45", "width": 4, "seed": 12},
    {"kind": "deobfuscation", "task": "multiply45_insufficient", "width": 4},
    {
        "kind": "deobfuscation",
        "task": "multiply45",
        "width": 4,
        "examples": [[[3], [7]], [[5], [1]]],
    },
    {
        "kind": "timing-analysis",
        "program": "modular_exponentiation",
        "program_args": {"exponent_bits": 6, "word_width": 16},
        "bound": 400,
    },
    {
        "kind": "timing-analysis",
        "program": "modular_exponentiation",
        "program_args": {"exponent_bits": 6, "word_width": 16},
        "bound": 380,
    },
    {
        "kind": "timing-analysis",
        "program": "conditional_cascade",
        "program_args": {"depth": 4, "word_width": 16},
        "distribution": True,
    },
    {
        "kind": "timing-analysis",
        "program": "figure4_toy",
        "program_args": {"word_width": 16},
        "bound": 66,
        "start_state": "warm",
    },
]


def canonical_results() -> list:
    """The canonical wire results of :data:`SPECS`, run in order on one engine."""
    with SciductionEngine() as engine:
        return [
            result_wire_canonical(result_to_dict(engine.run(dict(spec))))
            for spec in SPECS
        ]


def test_results_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["specs"] == SPECS
    for spec, actual, expected in zip(
        SPECS, canonical_results(), golden["results"], strict=True
    ):
        assert actual == expected, spec


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"specs": SPECS, "results": canonical_results()}, indent=1, sort_keys=True)
        + "\n"
    )
