"""Tests for the unified EngineConfig surface."""

import pytest

from repro.api import EngineConfig


class TestEngineConfig:
    def test_json_roundtrip(self):
        config = EngineConfig(
            simplify_terms=False,
            gc_dead_clauses=None,
            adaptive_restarts=True,
            max_conflicts=123,
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
        assert options["restart_strategy"] == "luby"
        assert EngineConfig(adaptive_restarts=True).solver_options()[
            "restart_strategy"
        ] == "glucose"

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            EngineConfig().pool_size = 5
