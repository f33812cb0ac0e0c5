"""Tests for the RK4 stepper, hyperboxes, and the hyperbox hypothesis."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GridSpec, SimulationError, StructureHypothesisError
from repro.hybrid import (
    Hyperbox,
    HyperboxHypothesis,
    IntegratorConfig,
    bounding_box,
    build_transmission_system,
    rk4_step,
)


def numpy_rk4_step(field, state, time, step):
    """The array-based RK4 step the float-tuple stepper replaced.

    Kept verbatim as the reference of the differential test: the tuple
    stepper must reproduce it bit for bit.
    """
    k1 = field(state, time)
    k2 = field(state + 0.5 * step * k1, time + 0.5 * step)
    k3 = field(state + 0.5 * step * k2, time + 0.5 * step)
    k4 = field(state + step * k3, time + step)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assert_bit_identical(dynamics, initial, step, steps=500):
    """Step both implementations side by side; every state must be ``==``."""
    reference = np.array(initial, dtype=float)
    field = lambda state, time: np.array(dynamics(state))
    state = tuple(float(value) for value in initial)
    for _ in range(steps):
        reference = numpy_rk4_step(field, reference, 0.0, step)
        state = rk4_step(dynamics, state, step)
        assert state == tuple(float(value) for value in reference)


def integrate(dynamics, state, step, steps):
    for _ in range(steps):
        state = rk4_step(dynamics, state, step)
    return state


class TestStepperDifferential:
    @pytest.mark.parametrize("step", [0.01, 0.02, 0.25])
    @pytest.mark.parametrize(
        "mode", ["N", "G1U", "G1D", "G2U", "G2D", "G3U", "G3D"]
    )
    def test_transmission_trajectories_match_the_array_stepper(self, mode, step):
        # 7 modes x 3 steps x 10 seeds = 210 trajectories of 500 steps.
        dynamics = build_transmission_system().modes[mode].dynamics
        rng = random.Random(f"{mode}/{step}")
        for _ in range(10):
            initial = (rng.uniform(0.0, 1700.0), rng.uniform(0.0, 60.0))
            assert_bit_identical(dynamics, initial, step)

    def test_one_dimensional_field(self):
        assert_bit_identical(lambda s: (math.sin(s[0]) - 0.5 * s[0],), (2.0,), 0.01)

    def test_three_dimensional_chaotic_field(self):
        # Lorenz: chaotic, so a one-ulp difference anywhere would grow.
        def lorenz(s):
            x, y, z = s
            return (10.0 * (y - x), x * (28.0 - z) - y, x * y - (8.0 / 3.0) * z)

        assert_bit_identical(lorenz, (1.0, 1.0, 1.0), 0.01)


class TestIntegrator:
    def test_exponential_decay_accuracy(self):
        final = integrate(lambda s: (-s[0],), (1.0,), 0.01, 100)
        assert final[0] == pytest.approx(math.exp(-1.0), rel=1e-5)

    def test_halving_step_reduces_rk4_error_by_about_16x(self):
        # y' = sin(t) y, made autonomous by carrying t as a second state.
        field = lambda s: (math.sin(s[1]) * s[0], 1.0)
        exact = math.exp(1.0 - math.cos(2.0))
        errors = [
            abs(integrate(field, (1.0, 0.0), step, steps)[0] - exact)
            for step, steps in ((0.2, 10), (0.1, 20))
        ]
        assert errors[1] < errors[0] / 8  # ~16x for a 4th-order method

    def test_two_dimensional_system(self):
        # Harmonic oscillator: one period returns RK4 to the start.
        steps = 628
        final = integrate(
            lambda s: (s[1], -s[0]), (1.0, 0.0), 2.0 * math.pi / steps, steps
        )
        assert final[0] == pytest.approx(1.0, abs=1e-4)
        assert final[1] == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize(
        "step", [0.0, -0.1, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_config_rejected(self, step):
        with pytest.raises(SimulationError):
            IntegratorConfig(step=step)

    def test_constant_field_step(self):
        assert rk4_step(lambda s: (2.0,), (1.0,), 0.1)[0] == pytest.approx(1.2)


class TestHyperbox:
    def test_membership_and_emptiness(self):
        box = Hyperbox.from_bounds({"x": (0.0, 1.0), "y": (2.0, 3.0)})
        assert box.contains({"x": 0.5, "y": 2.5})
        assert not box.contains({"x": 1.5, "y": 2.5})
        assert not box.is_empty
        empty = box.intersect(Hyperbox.from_bounds({"x": (5.0, 6.0), "y": (2.0, 3.0)}))
        assert empty.is_empty
        assert not empty.contains({"x": 5.5, "y": 2.5})

    def test_intersection_and_equality(self):
        first = Hyperbox.from_bounds({"x": (0.0, 2.0)})
        second = Hyperbox.from_bounds({"x": (1.0, 3.0)})
        assert first.intersect(second).equals(Hyperbox.from_bounds({"x": (1.0, 2.0)}))
        with pytest.raises(StructureHypothesisError):
            first.intersect(Hyperbox.from_bounds({"y": (0.0, 1.0)}))

    def test_point_box_and_describe(self):
        point = Hyperbox.point({"omega": 0.0, "theta": 1700.0})
        assert point.contains({"omega": 0.0, "theta": 1700.0})
        assert "omega = 0.00" in point.describe()
        ranged = Hyperbox.from_bounds({"omega": (0.0, 16.7)})
        assert "0.00 <= omega <= 16.70" in ranged.describe()

    def test_corners_and_center(self):
        box = Hyperbox.from_bounds({"x": (0.0, 1.0), "y": (2.0, 4.0)})
        corners = list(box.corners())
        assert len(corners) == 4
        assert {"x": 1.0, "y": 4.0} in corners
        assert box.center() == {"x": 0.5, "y": 3.0}
        assert box.volume() == pytest.approx(2.0)

    def test_contains_vector_and_snap(self):
        box = Hyperbox.from_bounds({"x": (0.0, 1.03), "y": (0.0, 2.0)})
        grids = {"x": GridSpec(0.0, 2.0, 0.5), "y": GridSpec(0.0, 2.0, 0.5)}
        snapped = box.snapped(grids)
        assert snapped.interval("x").high == pytest.approx(1.0)
        assert box.contains_vector([0.5, 1.0], order=("x", "y"))

    def test_bounding_box(self):
        points = [{"x": 0.0, "y": 1.0}, {"x": 2.0, "y": -1.0}]
        box = bounding_box(points, ("x", "y"))
        assert box.interval("x").low == 0.0 and box.interval("x").high == 2.0
        assert box.interval("y").low == -1.0
        assert bounding_box([], ("x",)).is_empty

    @settings(max_examples=30, deadline=None)
    @given(
        low=st.floats(min_value=0, max_value=5, allow_nan=False),
        width=st.floats(min_value=0, max_value=5, allow_nan=False),
        probe=st.floats(min_value=-1, max_value=11, allow_nan=False),
    )
    def test_membership_matches_interval_arithmetic(self, low, width, probe):
        box = Hyperbox.from_bounds({"x": (low, low + width)})
        assert box.contains({"x": probe}) == (low - 1e-9 <= probe <= low + width + 1e-9)


class TestHyperboxHypothesis:
    def test_grid_membership(self):
        grids = {"omega": GridSpec(0.0, 60.0, 0.01)}
        hypothesis = HyperboxHypothesis(grids)
        assert hypothesis.contains(Hyperbox.from_bounds({"omega": (0.0, 16.70)}))
        assert not hypothesis.contains(Hyperbox.from_bounds({"omega": (0.0, 16.705)}))
        assert not hypothesis.contains(Hyperbox.from_bounds({"other": (0.0, 1.0)}))
        assert hypothesis.is_strict_restriction() is True
        assert "0.01" in hypothesis.describe()
