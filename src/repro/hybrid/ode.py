"""Numerical ODE integration (the deductive engine substrate of Section 5).

The switching-logic synthesis procedure labels candidate switching states
as safe or unsafe by *numerical simulation* of the intra-mode continuous
dynamics — the paper argues that a numerical simulator is a deductive
engine (it solves systems of constraints by applying rules about the
underlying theory).  The paper used a MATLAB simulator; this module
provides one classic fixed-step fourth-order Runge–Kutta step over
plain-float state tuples, which is more than accurate enough for the
smooth, autonomous transmission dynamics of the paper's example.  The
step loops themselves live with their callers (the reachability oracle
and the closed-loop simulator), which decide when to stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.exceptions import SimulationError


def rk4_step(
    dynamics: Callable[[tuple[float, ...]], Sequence[float]],
    state: tuple[float, ...],
    step: float,
) -> tuple[float, ...]:
    """One classical Runge–Kutta (RK4) step of the autonomous ``dynamics``.

    The operation order — ``s + (step/2)*k`` at the midpoints and
    ``s + (step/6)*(((k1 + 2k2) + 2k3) + k4)`` at the end — is fixed, so
    trajectories are reproducible bit for bit.
    """
    half = 0.5 * step
    k1 = dynamics(state)
    k2 = dynamics(tuple(s + half * k for s, k in zip(state, k1)))
    k3 = dynamics(tuple(s + half * k for s, k in zip(state, k2)))
    k4 = dynamics(tuple(s + step * k for s, k in zip(state, k3)))
    sixth = step / 6.0
    return tuple(
        s + sixth * (((a + 2.0 * b) + 2.0 * c) + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


@dataclass(frozen=True)
class IntegratorConfig:
    """Configuration of the fixed-step integrator.

    Attributes:
        step: integration step size (seconds); finite and positive.
    """

    step: float = 0.01

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise SimulationError(
                f"integrator step must be finite and positive, got {self.step!r}"
            )
