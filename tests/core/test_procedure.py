"""Tests for the sciduction procedure driver."""

import pytest

from repro.core import PredicateHypothesis, SciductionProcedure, SciductionResult


class _ToyProcedure(SciductionProcedure[int]):
    """Synthesizes the number 42 (for exercising the base-class plumbing)."""

    name = "toy"

    def __init__(self):
        super().__init__(
            hypothesis=PredicateHypothesis(lambda x: x % 2 == 0, name="even-numbers")
        )

    def soundness_argument(self) -> str:
        return "returns a constant that the hypothesis admits"

    def describe(self) -> dict[str, str]:
        return {
            "procedure": self.name,
            "H": self.hypothesis.describe(),
            "I": "constant guess",
            "D": "is-42",
        }

    def _run(self, **kwargs):
        return SciductionResult(
            success=self.hypothesis.contains(42), artifact=42, iterations=1
        )


class TestSciductionProcedure:
    def test_run_attaches_certificate_and_timing(self):
        result = _ToyProcedure().run()
        assert result.success
        assert result.artifact == 42
        assert result.elapsed >= 0.0
        assert result.certificate is not None
        assert "even-numbers" in result.certificate.statement()
        assert "toy" in result.certificate.statement()

    def test_describe_lists_h_i_d(self):
        description = _ToyProcedure().describe()
        assert description["H"] == "even-numbers"
        assert description["D"] == "is-42"

    def test_describe_is_abstract(self):
        class _Undescribed(SciductionProcedure[int]):
            def _run(self, **kwargs):
                return SciductionResult(success=True)

        with pytest.raises(TypeError, match="describe"):
            _Undescribed(PredicateHypothesis(lambda x: True))

    def test_run_keeps_reported_deductive_queries(self):
        class _Counting(_ToyProcedure):
            def _run(self, **kwargs):
                return SciductionResult(success=True, deductive_queries=3)

        assert _ToyProcedure().run().deductive_queries == 0
        assert _Counting().run().deductive_queries == 3

    def test_certificate_summary_contains_argument(self):
        certificate = _ToyProcedure().certificate()
        assert "constant" in certificate.summary()
