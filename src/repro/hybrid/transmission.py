"""The 3-gear automatic transmission example (paper Figure 9 / Section 5).

The plant has seven modes — Neutral plus three gears, each in accelerating
(``u = +1``) and decelerating (``d = -1``) flavours — over the continuous
state ``(θ, ω)`` (distance covered and speed).  The gear-``i`` efficiency is

    η_i(ω) = 0.99 · exp(-(ω - a_i)² / 64) + 0.01,   a_1, a_2, a_3 = 10, 20, 30

and the acceleration is the throttle times the efficiency.  The safety
property to enforce is

    φS = (ω ≥ 5 ⇒ η ≥ 0.5) ∧ (0 ≤ ω ≤ 60).

The switching-logic synthesis problem is to find the guards ``gN1U``,
``g12U`` ... making the closed-loop hybrid system safe (Eq. 3 of the
paper), optionally with a minimum dwell time of 5 seconds in each gear
mode (Eq. 4); Figure 10 plots speed and efficiency of the synthesized
system driven from Neutral up through the gears and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.hypothesis import GridSpec
from repro.hybrid.hyperbox import Hyperbox
from repro.hybrid.mds import Mode, MultiModalSystem, Transition
from repro.hybrid.ode import IntegratorConfig
from repro.hybrid.reachability import ReachabilityOracle
from repro.hybrid.synthesis import SwitchingLogicSynthesizer

#: Gear efficiency peaks (a_1, a_2, a_3 in the paper).
GEAR_PEAKS = {1: 10.0, 2: 20.0, 3: 30.0}

#: Safety parameters of φS.
MIN_EFFICIENT_SPEED = 5.0
MIN_EFFICIENCY = 0.5
MAX_SPEED = 60.0

#: Default target distance (θmax in the paper).
THETA_MAX = 1700.0


def efficiency(gear: int, omega: float) -> float:
    """The transmission efficiency η_i(ω) of the paper."""
    peak = GEAR_PEAKS[gear]
    return 0.99 * math.exp(-((omega - peak) ** 2) / 64.0) + 0.01


def efficiency_of_mode(mode: str, omega: float) -> float:
    """Efficiency of the active mode (1.0 — irrelevant — for Neutral)."""
    if mode == "N":
        return 1.0
    return efficiency(int(mode[1]), omega)


def safe_speed_range(gear: int) -> tuple[float, float]:
    """The ω interval on which gear ``gear`` satisfies φS (for ω ≥ 5).

    Solving ``η_i(ω) >= 0.5`` gives ``|ω - a_i| <= sqrt(64 ln(0.99/0.49))``;
    below ω = 5 the efficiency clause is vacuous, so the lower end is
    extended to 0 (clipped at 0) for the first gear.
    """
    radius = math.sqrt(64.0 * math.log(0.99 / (MIN_EFFICIENCY - 0.01)))
    low = GEAR_PEAKS[gear] - radius
    high = GEAR_PEAKS[gear] + radius
    if low <= MIN_EFFICIENT_SPEED:
        low = 0.0
    return max(low, 0.0), min(high, MAX_SPEED)


def _gear_dynamics(gear: int, throttle: float):
    """Vector field of a gear mode over the state (θ, ω)."""

    def field(state: tuple[float, ...]) -> tuple[float, float]:
        omega = state[1]
        return (omega, throttle * efficiency(gear, omega))

    return field


def _neutral_dynamics(state: tuple[float, ...]) -> tuple[float, float]:
    return (0.0, 0.0)


def transmission_safety(mode: str, state: tuple[float, ...]) -> bool:
    """The safety property φS, evaluated against the active mode."""
    omega = float(state[1])
    if omega < 0.0 or omega > MAX_SPEED:
        return False
    if mode == "N":
        return True
    gear = int(mode[1])
    if omega >= MIN_EFFICIENT_SPEED and efficiency(gear, omega) < MIN_EFFICIENCY:
        return False
    return True


def build_transmission_system(
    dwell_time: float = 0.0, theta_max: float = THETA_MAX
) -> MultiModalSystem:
    """Build the 7-mode transmission MDS of Figure 9.

    Args:
        dwell_time: minimum dwell time for the six gear modes (0 for the
            plain safety problem of Eq. 3; 5 seconds for Eq. 4).
        theta_max: the target distance θmax.
    """
    modes = {"N": Mode("N", _neutral_dynamics, min_dwell=0.0)}
    for gear in (1, 2, 3):
        modes[f"G{gear}U"] = Mode(
            f"G{gear}U", _gear_dynamics(gear, +1.0), min_dwell=dwell_time
        )
        modes[f"G{gear}D"] = Mode(
            f"G{gear}D", _gear_dynamics(gear, -1.0), min_dwell=dwell_time
        )
    transitions = [
        Transition("gN1U", "N", "G1U"),
        Transition("g12U", "G1U", "G2U"),
        Transition("g23U", "G2U", "G3U"),
        Transition("g11D", "G1U", "G1D"),
        Transition("g22D", "G2U", "G2D"),
        Transition("g33D", "G3U", "G3D"),
        Transition("g11U", "G1D", "G1U"),
        Transition("g22U", "G2D", "G2U"),
        Transition("g33U", "G3D", "G3U"),
        Transition("g32D", "G3D", "G2D"),
        Transition("g21D", "G2D", "G1D"),
        Transition("g1ND", "G1D", "N"),
    ]
    return MultiModalSystem(
        name="automatic-transmission",
        state_names=("theta", "omega"),
        modes=modes,
        transitions=transitions,
        safety=transmission_safety,
        initial_mode="N",
        initial_state=(0.0, 0.0),
    )


def transmission_grids(
    omega_step: float = 0.01, theta_max: float = THETA_MAX
) -> dict[str, GridSpec]:
    """The finite-precision grids of the structure hypothesis."""
    return {
        "theta": GridSpec(low=0.0, high=theta_max, step=theta_max / 4.0),
        "omega": GridSpec(low=0.0, high=MAX_SPEED, step=omega_step),
    }


def initial_transmission_guards(theta_max: float = THETA_MAX) -> dict[str, Hyperbox]:
    """Over-approximate initial guards (paper Section 5.1).

    Every ordinary guard starts as the safety bound ``0 ≤ ω ≤ 60``; as in
    the paper, these guards constrain only the speed ω (the distance θ is
    monotonically increasing and unbounded, so constraining it would make
    the guards unreachable after long enough driving).  The
    return-to-neutral guard ``g1ND`` is the designated point
    ``θ = θmax ∧ ω = 0``.
    """
    wide = Hyperbox.from_bounds({"omega": (0.0, MAX_SPEED)})
    guards = {
        name: wide
        for name in (
            "gN1U", "g12U", "g23U", "g11D", "g22D", "g33D",
            "g11U", "g22U", "g33U", "g32D", "g21D",
        )
    }
    guards["g1ND"] = Hyperbox.from_bounds(
        {"theta": (theta_max, theta_max), "omega": (0.0, 0.0)}
    )
    return guards


def transmission_seeds() -> dict[str, dict[str, float]]:
    """Seed switching states for the hyperbox learner.

    For every transition entering a gear-``i`` mode the natural seed is the
    gear's efficiency peak ``ω = a_i`` (certainly safe when entering that
    gear); transitions into gear 1 additionally work from ``ω = 5`` so the
    dwell-time variant — where the peak may be unreachable — still has a
    safe seed.
    """
    return {
        "gN1U": {"theta": 0.0, "omega": 0.0},
        "g11U": {"theta": 0.0, "omega": 0.0},
        "g12U": {"theta": 0.0, "omega": GEAR_PEAKS[2]},
        "g22U": {"theta": 0.0, "omega": GEAR_PEAKS[2]},
        "g23U": {"theta": 0.0, "omega": GEAR_PEAKS[3]},
        "g33U": {"theta": 0.0, "omega": GEAR_PEAKS[3]},
        "g33D": {"theta": 0.0, "omega": GEAR_PEAKS[3]},
        "g32D": {"theta": 0.0, "omega": GEAR_PEAKS[2]},
        "g22D": {"theta": 0.0, "omega": GEAR_PEAKS[2]},
        "g21D": {"theta": 0.0, "omega": GEAR_PEAKS[1]},
        "g11D": {"theta": 0.0, "omega": GEAR_PEAKS[1]},
    }


@dataclass
class TransmissionSynthesisSetup:
    """Everything needed to run the transmission synthesis experiment."""

    system: MultiModalSystem
    synthesizer: SwitchingLogicSynthesizer
    grids: Mapping[str, GridSpec]


def make_transmission_synthesizer(
    dwell_time: float = 0.0,
    omega_step: float = 0.01,
    integration_step: float = 0.01,
    horizon: float = 80.0,
    theta_max: float = THETA_MAX,
    validate_corners: bool = False,
) -> TransmissionSynthesisSetup:
    """Assemble the synthesizer for the transmission example.

    Args:
        dwell_time: 0 for the Eq. 3 experiment, 5.0 for Eq. 4.
        omega_step: grid precision on ω (the paper's results are reported
            to two decimals, i.e. a 0.01 grid).
        integration_step: step size of the reachability oracle's RK4
            stepper.
        horizon: simulated seconds per labeling query.
        theta_max: target distance.
        validate_corners: re-check learned guard corners (slower).
    """
    system = build_transmission_system(dwell_time=dwell_time, theta_max=theta_max)
    grids = transmission_grids(omega_step=omega_step, theta_max=theta_max)
    oracle = ReachabilityOracle(
        system,
        integrator=IntegratorConfig(step=integration_step),
        horizon=horizon,
        allow_no_exit=True,
    )
    synthesizer = SwitchingLogicSynthesizer(
        system=system,
        grids=grids,
        initial_guards=initial_transmission_guards(theta_max=theta_max),
        reachability=oracle,
        seeds=transmission_seeds(),
        frozen_guards={"g1ND"},
        validate_corners=validate_corners,
    )
    return TransmissionSynthesisSetup(system=system, synthesizer=synthesizer, grids=grids)


#: The guard intervals reported in Eq. (3) of the paper (ω bounds).
PAPER_EQ3_GUARDS: dict[str, tuple[float, float]] = {
    "gN1U": (0.0, 16.70),
    "g11U": (0.0, 16.70),
    "g12U": (13.29, 26.70),
    "g22U": (13.29, 26.70),
    "g23U": (23.29, 36.70),
    "g33U": (23.29, 36.70),
    "g33D": (23.29, 36.70),
    "g32D": (13.29, 26.70),
    "g22D": (13.29, 26.70),
    "g21D": (0.0, 16.70),
    "g11D": (0.0, 16.70),
}

#: The guard intervals reported in Eq. (4) (5-second dwell time per gear).
PAPER_EQ4_GUARDS: dict[str, tuple[float, float]] = {
    "gN1U": (0.0, 0.0),
    "g11U": (0.0, 0.0),
    "g1ND": (0.0, 0.0),
    "g12U": (13.29, 23.42),
    "g11D": (1.31, 16.70),
    "g23U": (26.70, 33.42),
    "g22D": (26.70, 26.70),
    "g33D": (36.70, 36.70),
    "g32D": (16.58, 26.70),
    "g33U": (23.29, 33.42),
    "g21D": (1.31, 16.70),
    "g22U": (13.29, 23.42),
}

#: The up-and-down gear schedule of Figure 10.
FIGURE10_SCHEDULE = ("gN1U", "g12U", "g23U", "g33D", "g32D", "g21D", "g1ND")
