"""Tests for the unified EngineConfig surface."""

from dataclasses import fields

import pytest

from repro.api import EngineConfig
from repro.core import ReproError


class TestEngineConfig:
    def test_json_roundtrip(self):
        config = EngineConfig(
            simplify_terms=False,
            gc_dead_clauses=None,
            pool_size=3,
            reuse_sessions=False,
            intern_table_limit=10,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown EngineConfig fields"):
            EngineConfig.from_dict({"simplify_terms": True, "turbo": 11})

    def test_solver_options_cover_all_smt_knobs(self):
        from repro.smt.solver import SmtSolver

        options = EngineConfig().solver_options()
        # Every option must be a real SmtSolver kwarg (constructing with
        # them all is the proof).
        SmtSolver(**options)

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            EngineConfig().pool_size = 5

    def test_field_names_are_pinned(self):
        assert [field.name for field in fields(EngineConfig)] == [
            "simplify_terms",
            "polarity_aware",
            "gc_dead_clauses",
            "workers",
            "pool_size",
            "reuse_sessions",
            "shared_check_memo",
            "intern_table_limit",
            "job_retry_limit",
        ]


class TestRangeChecks:
    @pytest.mark.parametrize("pool_size", [0, -1])
    def test_pool_size_below_one_rejected(self, pool_size):
        with pytest.raises(ReproError, match="pool_size"):
            EngineConfig(pool_size=pool_size)

    def test_from_dict_applies_range_checks(self):
        with pytest.raises(ReproError, match="pool_size"):
            EngineConfig.from_dict({"pool_size": 0})
