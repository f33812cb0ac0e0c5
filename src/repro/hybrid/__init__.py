"""Switching-logic synthesis for multi-modal dynamical systems (Section 5)."""

from repro.hybrid.baselines import (
    GridSweepGuardEstimator,
    GuardEstimate,
    MonteCarloGuardEstimator,
)
from repro.hybrid.hyperbox import Hyperbox, HyperboxHypothesis, bounding_box
from repro.hybrid.learner import HyperboxLearner, HyperboxLearningResult
from repro.hybrid.mds import (
    HybridAutomaton,
    HybridTrace,
    HybridTracePoint,
    Mode,
    MultiModalSystem,
    SwitchingLogic,
    Transition,
)
from repro.hybrid.ode import IntegratorConfig, rk4_step
from repro.hybrid.reachability import (
    ReachabilityOracle,
    ReachabilityVerdict,
    SwitchingStateLabeler,
)
from repro.hybrid.synthesis import SwitchingLogicSynthesizer, SynthesisReport
from repro.hybrid.transmission import (
    FIGURE10_SCHEDULE,
    GEAR_PEAKS,
    MAX_SPEED,
    MIN_EFFICIENCY,
    MIN_EFFICIENT_SPEED,
    PAPER_EQ3_GUARDS,
    PAPER_EQ4_GUARDS,
    THETA_MAX,
    TransmissionSynthesisSetup,
    build_transmission_system,
    efficiency,
    efficiency_of_mode,
    initial_transmission_guards,
    make_transmission_synthesizer,
    safe_speed_range,
    transmission_grids,
    transmission_safety,
    transmission_seeds,
)

__all__ = [
    "FIGURE10_SCHEDULE",
    "GEAR_PEAKS",
    "GridSweepGuardEstimator",
    "GuardEstimate",
    "HybridAutomaton",
    "HybridTrace",
    "HybridTracePoint",
    "Hyperbox",
    "HyperboxHypothesis",
    "HyperboxLearner",
    "HyperboxLearningResult",
    "IntegratorConfig",
    "MAX_SPEED",
    "MIN_EFFICIENCY",
    "MIN_EFFICIENT_SPEED",
    "Mode",
    "MonteCarloGuardEstimator",
    "MultiModalSystem",
    "PAPER_EQ3_GUARDS",
    "PAPER_EQ4_GUARDS",
    "ReachabilityOracle",
    "ReachabilityVerdict",
    "SwitchingLogic",
    "SwitchingLogicSynthesizer",
    "SwitchingStateLabeler",
    "SynthesisReport",
    "THETA_MAX",
    "Transition",
    "TransmissionSynthesisSetup",
    "bounding_box",
    "build_transmission_system",
    "efficiency",
    "efficiency_of_mode",
    "initial_transmission_guards",
    "make_transmission_synthesizer",
    "rk4_step",
    "safe_speed_range",
    "transmission_grids",
    "transmission_safety",
    "transmission_seeds",
]
