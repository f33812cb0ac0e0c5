"""Multi-modal dynamical systems and hybrid automata (paper Section 5).

A multi-modal dynamical system (MDS) is a plant that can operate in a
finite set of modes; within each mode the continuous state evolves
according to a known ODE.  Adding *switching logic* — a guard (here: a
hyperbox) on every transition between modes — turns the MDS into a hybrid
automaton.  The synthesis problem of Section 5 is to find guards making
the hybrid automaton safe.

This module provides the MDS/hybrid-automaton data model and a closed-loop
simulator used both for the Figure 10 trace and for validating synthesized
switching logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.exceptions import SimulationError
from repro.hybrid.hyperbox import Hyperbox
from repro.hybrid.ode import IntegratorConfig, rk4_step

#: A mode's vector field over plain-float state tuples: f(state) -> derivative.
ModeDynamics = Callable[[tuple[float, ...]], tuple[float, ...]]

#: The safety property: safe(mode_name, state) -> bool.  Mode-dependent
#: because quantities such as the transmission efficiency depend on the
#: active mode.
SafetyPredicate = Callable[[str, tuple[float, ...]], bool]


@dataclass(frozen=True)
class Mode:
    """One operating mode of the plant.

    Attributes:
        name: mode name (e.g. ``"G1U"``).
        dynamics: the intra-mode vector field over the continuous state.
        min_dwell: minimum time the system must remain in the mode before
            taking any outgoing transition (0 for plain safety synthesis;
            5 seconds for the paper's dwell-time variant).
    """

    name: str
    dynamics: ModeDynamics
    min_dwell: float = 0.0


@dataclass(frozen=True)
class Transition:
    """A mode switch, identified by its guard name (e.g. ``"g12U"``)."""

    name: str
    source: str
    target: str


@dataclass
class MultiModalSystem:
    """A multi-modal dynamical system (no switching logic yet).

    Attributes:
        name: system name.
        state_names: names of the continuous state variables, fixing the
            order used in state vectors.
        modes: the operating modes, keyed by name.
        transitions: the allowed mode switches.
        safety: the safety predicate (mode-dependent).
        initial_mode: mode in which execution starts.
        initial_state: the initial continuous state.
    """

    name: str
    state_names: tuple[str, ...]
    modes: dict[str, Mode]
    transitions: list[Transition]
    safety: SafetyPredicate
    initial_mode: str
    initial_state: tuple[float, ...]

    def __post_init__(self) -> None:
        for transition in self.transitions:
            if transition.source not in self.modes or transition.target not in self.modes:
                raise SimulationError(
                    f"transition {transition.name} references unknown modes"
                )
        if self.initial_mode not in self.modes:
            raise SimulationError(f"unknown initial mode {self.initial_mode!r}")
        self.initial_state = tuple(float(v) for v in self.initial_state)

    def transition_named(self, name: str) -> Transition:
        """Look up a transition by guard name."""
        for transition in self.transitions:
            if transition.name == name:
                return transition
        raise SimulationError(f"unknown transition {name!r}")

    def exits_of(self, mode: str) -> list[Transition]:
        """Outgoing transitions of ``mode``."""
        return [t for t in self.transitions if t.source == mode]

    def entries_of(self, mode: str) -> list[Transition]:
        """Incoming transitions of ``mode``."""
        return [t for t in self.transitions if t.target == mode]

    def state_dict(self, state: Sequence[float]) -> dict[str, float]:
        """Convert a state vector to a name→value mapping."""
        return dict(zip(self.state_names, (float(v) for v in state)))

    def is_safe(self, mode: str, state: tuple[float, ...]) -> bool:
        """Evaluate the safety predicate."""
        return bool(self.safety(mode, state))


#: Switching logic: one guard hyperbox per transition name.
SwitchingLogic = dict[str, Hyperbox]


@dataclass
class HybridTracePoint:
    """One sample of a hybrid execution."""

    time: float
    mode: str
    state: tuple[float, ...]


@dataclass
class HybridTrace:
    """A closed-loop execution of the hybrid automaton.

    Attributes:
        points: sampled (time, mode, state) triples.
        transitions_taken: the guard names taken, in order.
        safe: whether the safety predicate held at every sample.
    """

    points: list[HybridTracePoint] = field(default_factory=list)
    transitions_taken: list[str] = field(default_factory=list)
    safe: bool = True

    @property
    def final_state(self) -> tuple[float, ...]:
        """State at the end of the trace."""
        if not self.points:
            raise SimulationError("empty trace")
        return self.points[-1].state

    @property
    def final_time(self) -> float:
        """Time at the end of the trace."""
        return self.points[-1].time if self.points else 0.0

    def mode_intervals(self) -> list[tuple[str, float, float]]:
        """Return ``(mode, enter_time, exit_time)`` for each mode visit."""
        if not self.points:
            return []
        intervals: list[tuple[str, float, float]] = []
        current_mode = self.points[0].mode
        enter_time = self.points[0].time
        for point in self.points[1:]:
            if point.mode != current_mode:
                intervals.append((current_mode, enter_time, point.time))
                current_mode = point.mode
                enter_time = point.time
        intervals.append((current_mode, enter_time, self.points[-1].time))
        return intervals

    def series(
        self, extractor: Callable[[str, tuple[float, ...]], float]
    ) -> list[tuple[float, float]]:
        """Extract a (time, value) series, e.g. the efficiency of Fig. 10."""
        return [
            (point.time, extractor(point.mode, point.state)) for point in self.points
        ]


class HybridAutomaton:
    """An MDS equipped with switching logic (guards on its transitions)."""

    def __init__(
        self,
        system: MultiModalSystem,
        switching_logic: SwitchingLogic,
        integrator: IntegratorConfig | None = None,
    ):
        self.system = system
        self.switching_logic = dict(switching_logic)
        self.integrator = integrator or IntegratorConfig()
        missing = [
            t.name for t in system.transitions if t.name not in self.switching_logic
        ]
        if missing:
            raise SimulationError(f"missing guards for transitions: {missing}")

    def guard(self, transition_name: str) -> Hyperbox:
        """The guard hyperbox of a transition."""
        return self.switching_logic[transition_name]

    def guard_holds(self, transition_name: str, state: tuple[float, ...]) -> bool:
        """Whether the guard of ``transition_name`` holds in ``state``."""
        return self.guard(transition_name).contains_vector(
            state, self.system.state_names
        )

    # -- schedule-driven simulation -----------------------------------------------

    def simulate_schedule(
        self,
        schedule: Sequence[str],
        horizon: float = 500.0,
        switch_policy: str = "latest",
    ) -> HybridTrace:
        """Drive the automaton through a prescribed sequence of transitions.

        This is the execution mode behind the paper's Figure 10: the
        transmission is made to switch from Neutral up through the gears
        and back down, taking the listed transitions in order.

        Args:
            schedule: guard names to take, in order (each must leave the
                current mode).
            horizon: overall time budget.
            switch_policy: ``"latest"`` (default) stays in the mode until
                the guard is about to stop holding — or the next step would
                violate safety — before switching; ``"asap"`` switches at
                the first instant the guard holds and the dwell time has
                elapsed.

        Returns:
            A :class:`HybridTrace`.
        """
        if switch_policy not in {"latest", "asap"}:
            raise SimulationError(f"unknown switch policy {switch_policy!r}")
        step = self.integrator.step
        system = self.system
        mode_name = system.initial_mode
        state = system.initial_state
        time = 0.0
        trace = HybridTrace()
        trace.points.append(HybridTracePoint(time, mode_name, state))
        last_record = time
        schedule_index = 0
        time_in_mode = 0.0

        while time < horizon and schedule_index < len(schedule):
            transition = system.transition_named(schedule[schedule_index])
            if transition.source != mode_name:
                raise SimulationError(
                    f"scheduled transition {transition.name} does not leave mode {mode_name}"
                )
            mode = system.modes[mode_name]
            if not system.is_safe(mode_name, state):
                trace.safe = False
            guard_now = self.guard_holds(transition.name, state)
            dwell_ok = time_in_mode >= mode.min_dwell - 1e-9
            should_switch = False
            if guard_now and dwell_ok:
                if switch_policy == "asap":
                    should_switch = True
                else:
                    # Peek one step ahead: switch if the guard (or safety)
                    # would stop holding, or if the mode's dynamics make no
                    # progress (no coordinate moves by more than 1e-12 plus
                    # 1e-5 of its value, e.g. Neutral), in which case
                    # waiting longer changes nothing.
                    next_state = rk4_step(mode.dynamics, state, step)
                    stalled = all(
                        abs(a - b) <= 1e-12 + 1e-5 * abs(b)
                        for a, b in zip(next_state, state)
                    )
                    if (
                        stalled
                        or not self.guard_holds(transition.name, next_state)
                        or not system.is_safe(mode_name, next_state)
                    ):
                        should_switch = True
            if should_switch:
                trace.transitions_taken.append(transition.name)
                mode_name = transition.target
                time_in_mode = 0.0
                trace.points.append(HybridTracePoint(time, mode_name, state))
                schedule_index += 1
                continue
            state = rk4_step(mode.dynamics, state, step)
            time += step
            time_in_mode += step
            if time - last_record >= step - 1e-12:
                if not system.is_safe(mode_name, state):
                    trace.safe = False
                trace.points.append(HybridTracePoint(time, mode_name, state))
                last_record = time
        trace.points.append(HybridTracePoint(time, mode_name, state))
        return trace
