"""Tests for structure hypotheses (repro.core.hypothesis)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    GridSpec,
    HypothesisValidityEvidence,
    PredicateHypothesis,
    StructureHypothesisError,
)


class TestPredicateHypothesis:
    def test_membership_uses_predicate(self):
        hyp = PredicateHypothesis(lambda x: x % 2 == 0, name="even")
        assert hyp.contains(4)
        assert not hyp.contains(5)

    def test_is_strict_restriction(self):
        assert PredicateHypothesis(lambda x: True).is_strict_restriction() is None
        strict = PredicateHypothesis(lambda x: True, strict=True)
        assert strict.is_strict_restriction() is True

    def test_describe_defaults_to_name(self):
        assert PredicateHypothesis(lambda x: True, name="any").describe() == "any"
        described = PredicateHypothesis(lambda x: True, name="any", description="all ints")
        assert described.describe() == "all ints"


class TestGridSpec:
    def test_num_points(self):
        grid = GridSpec(0.0, 1.0, 0.25)
        assert grid.num_points == 5

    def test_snap_clamps_and_rounds(self):
        grid = GridSpec(0.0, 10.0, 0.5)
        assert grid.snap(3.26) == pytest.approx(3.5)
        assert grid.snap(-4.0) == 0.0
        assert grid.snap(99.0) == 10.0

    def test_points_are_monotone(self):
        grid = GridSpec(0.0, 2.0, 0.5)
        points = list(grid.points())
        assert points == sorted(points)
        assert points[0] == 0.0
        assert points[-1] == 2.0

    def test_contains(self):
        grid = GridSpec(0.0, 1.0, 0.1)
        assert grid.contains(0.3)
        assert not grid.contains(0.35)
        assert not grid.contains(1.2)

    def test_invalid_step_rejected(self):
        with pytest.raises(StructureHypothesisError):
            GridSpec(0.0, 1.0, 0.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(StructureHypothesisError):
            GridSpec(2.0, 1.0, 0.1)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_snap_always_on_grid(self, value):
        grid = GridSpec(-10.0, 10.0, 0.25)
        snapped = grid.snap(value)
        assert grid.contains(snapped, tol=1e-9)
        assert -10.0 <= snapped <= 10.0


class TestHypothesisValidityEvidence:
    def test_summary_states(self):
        evidence = HypothesisValidityEvidence("h")
        assert "ASSUMED" in evidence.summary()
        evidence.proved = True
        assert "PROVED" in evidence.summary()
        evidence.counterexample = object()
        assert evidence.refuted
        assert "REFUTED" in evidence.summary()

    def test_checked_instances_reported(self):
        evidence = HypothesisValidityEvidence("h", checked_instances=3)
        assert "3 instance" in evidence.summary()

    def test_notes_accumulate(self):
        evidence = HypothesisValidityEvidence("h")
        evidence.add_note("first")
        evidence.add_note("second")
        assert evidence.notes == ["first", "second"]
