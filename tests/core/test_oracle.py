"""Tests for oracle interfaces (repro.core.oracle)."""

import pytest

from repro.core import FunctionLabelingOracle, IOOracle, LabelingOracle


class _DoublingOracle(IOOracle[int, int]):
    def _query(self, value: int) -> int:
        return value * 2


class TestIOOracle:
    def test_query_returns_function_value(self):
        assert _DoublingOracle().query(21) == 42

    def test_query_count_increments(self):
        oracle = _DoublingOracle()
        oracle.query(1)
        oracle.query(2)
        assert oracle.query_count == 2


class TestLabelingOracle:
    def test_label(self):
        oracle = FunctionLabelingOracle(lambda x: x > 0)
        assert oracle.label(5) is True
        assert oracle.label(-5) is False
        assert oracle.query_count == 2


class TestOracleBase:
    def test_oracles_must_define_their_answer(self):
        with pytest.raises(TypeError, match="_query"):
            IOOracle()
        with pytest.raises(TypeError, match="_label"):
            LabelingOracle()

    def test_query_counts_are_per_oracle(self):
        first, second = _DoublingOracle(), _DoublingOracle()
        first.query(1)
        assert (first.query_count, second.query_count) == (1, 0)
