"""Simulation-based reachability oracle (the deductive engine of Section 5).

Labeling a candidate switching state as safe or unsafe reduces to the
question: *"if we enter mode m in state s and follow its dynamics, will the
trajectory visit only safe states until some exit guard becomes true?"*
This is a reachability problem for a purely continuous ODE system with a
single initial condition — undecidable in general, but answerable in
practice by numerical simulation, which the paper therefore adopts as the
deductive engine (arguing that a numerical simulator performs deductive
reasoning: it applies rules about the underlying theory to solve a system
of constraints).

:class:`ReachabilityOracle` implements that query (with optional minimum
dwell time, for the dwell-time variant of the synthesis problem) and
exposes it as a :class:`~repro.core.oracle.LabelingOracle` so the hyperbox
learner can drive it directly.
"""

from __future__ import annotations

import time as _time

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.deductive import DeductiveAnswer, DeductiveEngine, DeductiveQuery
from repro.core.exceptions import BudgetExceededError
from repro.core.oracle import LabelingOracle
from repro.hybrid.hyperbox import Hyperbox
from repro.hybrid.mds import MultiModalSystem
from repro.hybrid.ode import IntegratorConfig, rk4_step


@dataclass
class ReachabilityQuery:
    """One labeling query: enter ``mode`` at ``state`` with these exit guards."""

    mode: str
    state: tuple[float, ...]
    exit_guards: dict[str, Hyperbox]
    min_dwell: float = 0.0


@dataclass
class ReachabilityVerdict:
    """Outcome of a reachability/labeling query.

    Attributes:
        safe: the label — True iff the trajectory stays safe until it can
            take an exit transition (or, when ``allow_no_exit``, until the
            simulation horizon).
        exit_transition: the guard reached, when one was reached.
        exit_time: time at which the exit guard was reached.
        violation_time: time of the first safety violation, if any.
    """

    safe: bool
    exit_transition: str | None = None
    exit_time: float | None = None
    violation_time: float | None = None


class ReachabilityOracle(DeductiveEngine[ReachabilityQuery, ReachabilityVerdict]):
    """Answers safe/unsafe labeling queries by numerical simulation.

    Args:
        system: the multi-modal dynamical system.
        integrator: integration settings (the RK4 step size).
        horizon: maximum simulated time per query.
        allow_no_exit: when True (default), a trajectory that remains safe
            for the whole horizon without reaching any exit guard is
            labeled safe; when False it is labeled unsafe (forces progress).
    """

    name = "numerical-simulation-reachability"

    def __init__(
        self,
        system: MultiModalSystem,
        integrator: IntegratorConfig | None = None,
        horizon: float = 60.0,
        allow_no_exit: bool = True,
    ):
        super().__init__()
        self.system = system
        self.integrator = integrator or IntegratorConfig()
        self.horizon = horizon
        self.allow_no_exit = allow_no_exit
        self.simulations = 0
        self._deadline: float | None = None

    # -- job limits -------------------------------------------------------------

    #: How many integration steps pass between deadline polls.  Checking
    #: the clock every step would dominate the (cheap) RK4 stepper; every
    #: 64 steps keeps preemption granularity under ~2 simulated seconds at
    #: the default step sizes while staying off the hot path.
    DEADLINE_POLL_STEPS = 64

    def set_deadline(self, deadline: float | None = None) -> None:
        """Install (or clear, with ``None``) a wall-clock preemption deadline.

        Analogous to :meth:`repro.smt.sat.CdclSolver.set_limits`: once
        ``time.monotonic()`` passes ``deadline``, every simulation query
        raises :class:`~repro.core.exceptions.BudgetExceededError` instead
        of running to its horizon.  This is how the engine layer
        (:mod:`repro.api`) preempts simulation-backed (switching-logic)
        jobs, whose deductive engine is this oracle rather than the SAT
        loop.
        """
        self._deadline = deadline

    def _check_deadline(self) -> None:
        if self._deadline is not None and _time.monotonic() >= self._deadline:
            raise BudgetExceededError(
                "reachability oracle deadline exceeded after "
                f"{self.simulations} simulation queries"
            )

    # -- core query ------------------------------------------------------------

    def label_state(
        self,
        mode: str,
        state: Sequence[float],
        exit_guards: Mapping[str, Hyperbox],
        min_dwell: float = 0.0,
    ) -> ReachabilityVerdict:
        """Simulate mode ``mode`` from ``state`` and decide safety.

        The trajectory is advanced with the configured fixed step; at every
        sample the safety predicate is checked, and once the dwell time has
        elapsed the exit guards are checked.  The first event decides the
        verdict.

        Raises:
            BudgetExceededError: when a deadline installed via
                :meth:`set_deadline` has passed (polled every
                :data:`DEADLINE_POLL_STEPS` integration steps).
        """
        self._check_deadline()
        self.simulations += 1
        system = self.system
        dynamics = system.modes[mode].dynamics
        step = self.integrator.step
        state_vector = tuple(float(v) for v in state)
        non_empty_guards = [
            (name, guard) for name, guard in exit_guards.items() if not guard.is_empty
        ]
        time = 0.0
        steps_since_poll = 0
        while True:
            steps_since_poll += 1
            if steps_since_poll >= self.DEADLINE_POLL_STEPS:
                steps_since_poll = 0
                self._check_deadline()
            if not system.is_safe(mode, state_vector):
                return ReachabilityVerdict(safe=False, violation_time=time)
            if time >= min_dwell - 1e-12:
                for name, guard in non_empty_guards:
                    if guard.contains_vector(state_vector, system.state_names):
                        return ReachabilityVerdict(
                            safe=True, exit_transition=name, exit_time=time
                        )
            if time >= self.horizon:
                return ReachabilityVerdict(safe=self.allow_no_exit)
            state_vector = rk4_step(dynamics, state_vector, step)
            time += step

    # -- DeductiveEngine interface -------------------------------------------------

    def _answer(
        self, query: DeductiveQuery[ReachabilityQuery]
    ) -> DeductiveAnswer[ReachabilityVerdict]:
        payload = query.payload
        verdict = self.label_state(
            payload.mode, payload.state, payload.exit_guards, payload.min_dwell
        )
        return DeductiveAnswer(decided=True, verdict=verdict.safe, witness=verdict)

    def lightweightness(self) -> str:
        return (
            "decides point-initialised continuous reachability by simulation, a "
            "strict special case of the (undecidable) hybrid synthesis problem"
        )


class SwitchingStateLabeler(LabelingOracle[dict[str, float], bool]):
    """Adapter: labels candidate switching states for one entry transition.

    The hyperbox learner works over name→value points; this oracle fixes
    the target mode, the current exit-guard estimates and the dwell time,
    and forwards each point to the :class:`ReachabilityOracle`.
    """

    name = "switching-state-labeler"

    def __init__(
        self,
        oracle: ReachabilityOracle,
        mode: str,
        exit_guards: Mapping[str, Hyperbox],
        min_dwell: float = 0.0,
        max_queries: int | None = None,
    ):
        super().__init__(max_queries=max_queries)
        self.oracle = oracle
        self.mode = mode
        self.exit_guards = dict(exit_guards)
        self.min_dwell = min_dwell

    def _label(self, example: dict[str, float]) -> bool:
        state = tuple(float(example[name]) for name in self.oracle.system.state_names)
        verdict = self.oracle.label_state(
            self.mode, state, self.exit_guards, self.min_dwell
        )
        return verdict.safe
