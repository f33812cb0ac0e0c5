"""Tests for the interval learner (repro.core.inductive)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    BinarySearchIntervalLearner,
    FunctionLabelingOracle,
    GridSpec,
    InductionError,
    Interval,
)


class TestInterval:
    def test_contains_and_width(self):
        interval = Interval(1.0, 3.0)
        assert interval.contains(2.0)
        assert not interval.contains(3.5)
        assert interval.width == pytest.approx(2.0)

    def test_empty_interval(self):
        empty = Interval(2.0, 1.0)
        assert empty.empty
        assert empty.width == 0.0
        assert not empty.contains(1.5)


def _interval_oracle(low, high):
    """Membership oracle for the target interval [low, high]."""
    return FunctionLabelingOracle(lambda value: low <= value <= high)


class TestBinarySearchIntervalLearner:
    def test_learns_exact_interval(self):
        grid = GridSpec(0.0, 10.0, 0.5)
        learner = BinarySearchIntervalLearner(grid, _interval_oracle(2.0, 7.5))
        interval = learner.learn(5.0)
        assert interval.low == pytest.approx(2.0)
        assert interval.high == pytest.approx(7.5)

    def test_interval_touching_edges(self):
        grid = GridSpec(0.0, 10.0, 1.0)
        learner = BinarySearchIntervalLearner(grid, _interval_oracle(0.0, 10.0))
        interval = learner.learn(4.0)
        assert (interval.low, interval.high) == (0.0, 10.0)

    def test_singleton_interval(self):
        grid = GridSpec(0.0, 10.0, 1.0)
        learner = BinarySearchIntervalLearner(grid, _interval_oracle(6.0, 6.0))
        interval = learner.learn(6.0)
        assert (interval.low, interval.high) == (6.0, 6.0)

    def test_off_grid_seed_is_snapped(self):
        grid = GridSpec(0.0, 10.0, 1.0)
        oracle = _interval_oracle(4.0, 4.0)
        interval = BinarySearchIntervalLearner(grid, oracle).learn(4.3)
        assert (interval.low, interval.high) == (4.0, 4.0)

    def test_seed_on_grid_edge_probes_one_side(self):
        grid = GridSpec(0.0, 10.0, 1.0)
        oracle = _interval_oracle(0.0, 3.0)
        interval = BinarySearchIntervalLearner(grid, oracle).learn(0.0)
        assert (interval.low, interval.high) == (0.0, 3.0)
        # The seed; 1, 3, 7 galloping right; 5, 4 bisecting [3, 7].  The
        # seed sits on the lower edge, so nothing is probed to its left.
        assert oracle.query_count == 6

    def test_negative_seed_raises(self):
        grid = GridSpec(0.0, 10.0, 1.0)
        learner = BinarySearchIntervalLearner(grid, _interval_oracle(2.0, 3.0))
        with pytest.raises(InductionError):
            learner.learn(8.0)

    def test_finds_local_interval_when_set_not_convex(self):
        # Positive set is [0, 1] ∪ [5, 8]; seeded in the right-hand block the
        # learner must return that block, not jump across the gap.
        grid = GridSpec(0.0, 10.0, 0.5)
        oracle = FunctionLabelingOracle(lambda v: v <= 1.0 or 5.0 <= v <= 8.0)
        learner = BinarySearchIntervalLearner(grid, oracle)
        interval = learner.learn(6.0)
        assert interval.low == pytest.approx(5.0)
        assert interval.high == pytest.approx(8.0)

    def test_query_count_logarithmic(self):
        grid = GridSpec(0.0, 1000.0, 0.01)  # 100001 grid points
        oracle = _interval_oracle(100.0, 900.0)
        learner = BinarySearchIntervalLearner(grid, oracle)
        learner.learn(500.0)
        # Galloping + binary search should need far fewer queries than the
        # grid size; allow a generous bound.
        assert oracle.query_count < 100

    @given(
        low_index=st.integers(min_value=0, max_value=40),
        width_=st.integers(min_value=0, max_value=40),
        seed_offset=st.integers(min_value=0, max_value=40),
    )
    def test_recovers_random_intervals(self, low_index, width_, seed_offset):
        grid = GridSpec(0.0, 20.0, 0.5)
        low = low_index * 0.5
        high = min(low + width_ * 0.5, 20.0)
        seed = min(low + (seed_offset % (width_ + 1)) * 0.5, high)
        learner = BinarySearchIntervalLearner(grid, _interval_oracle(low, high))
        interval = learner.learn(seed)
        assert interval.low == pytest.approx(low)
        assert interval.high == pytest.approx(high)
