"""Golden pins for switching-logic synthesis and the Figure 10 trace.

``data/golden_switching.json`` holds wire-form switching-logic specs
(seeded ``service-mixed`` specs plus the Eq. 3 and Eq. 4 setups on a
0.1 grid), the canonical wire result of each (the result dictionary
without its wall-clock ``elapsed``), and the SHA-256 of the Figure 10
closed-loop trace.  Any change to the simulator's arithmetic — the RK4
operation order, the dynamics, the stall check of the closed-loop
simulator — shows up here as a changed guard, verdict or trace.

After a deliberate change, re-record with
``PYTHONPATH=src python tests/hybrid/test_golden_switching.py``.
"""

import hashlib
import json
from pathlib import Path

from repro.api import SciductionEngine
from repro.api.results import result_to_dict, result_wire_canonical
from repro.hybrid import (
    FIGURE10_SCHEDULE,
    THETA_MAX,
    HybridAutomaton,
    Hyperbox,
    IntegratorConfig,
    make_transmission_synthesizer,
)

GOLDEN = Path(__file__).parent / "data" / "golden_switching.json"


def canonical_result(spec: dict) -> dict:
    """The canonical wire result of one spec, run on a fresh engine."""
    with SciductionEngine() as engine:
        return result_wire_canonical(result_to_dict(engine.run(dict(spec))))


def figure10_points() -> list:
    """The Figure 10 trace as JSON-ready ``[time, mode, state]`` points."""
    setup = make_transmission_synthesizer(
        dwell_time=0.0, omega_step=0.01, integration_step=0.02, horizon=80.0
    )
    logic = dict(setup.synthesizer.synthesize().switching_logic)
    logic["g1ND"] = Hyperbox.from_bounds({"theta": (0.0, THETA_MAX), "omega": (0.0, 0.5)})
    automaton = HybridAutomaton(setup.system, logic, IntegratorConfig(step=0.02))
    trace = automaton.simulate_schedule(FIGURE10_SCHEDULE, horizon=200.0)
    return [
        [point.time, point.mode, [float(value) for value in point.state]]
        for point in trace.points
    ]


def sha256_of(points: list) -> str:
    return hashlib.sha256(json.dumps(points).encode()).hexdigest()


def test_switching_results_match_golden():
    golden = json.loads(GOLDEN.read_text())
    for spec, expected in zip(golden["specs"], golden["results"], strict=True):
        assert canonical_result(spec) == expected, spec


def test_figure10_trace_matches_golden():
    golden = json.loads(GOLDEN.read_text())["figure10"]
    points = figure10_points()
    assert len(points) == golden["points"]
    assert sha256_of(points) == golden["sha256"]


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text())
    points = figure10_points()
    golden["results"] = [canonical_result(spec) for spec in golden["specs"]]
    golden["figure10"] = {"points": len(points), "sha256": sha256_of(points)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
