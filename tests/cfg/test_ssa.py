"""Tests for SMT path constraints and test-case generation."""

import pytest

from repro.cfg import (
    build_cfg,
    conditional_cascade,
    enumerate_paths,
    execution_path,
    modular_exponentiation,
    saturating_add,
)
from repro.cfg.ssa import PathConstraintBuilder


class TestFeasibility:
    def test_test_case_drives_requested_path(self):
        program = conditional_cascade(3)
        cfg = build_cfg(program)
        builder = PathConstraintBuilder(cfg)
        for path in enumerate_paths(cfg):
            witness = builder.feasibility(path)
            assert witness is not None  # every cascade path is feasible
            replay = execution_path(cfg, witness.test_case)
            assert replay.edges == path.edges

    def test_contradictory_path_is_infeasible(self):
        program = saturating_add()
        cfg = build_cfg(program)
        builder = PathConstraintBuilder(cfg)
        feasible_flags = [builder.is_feasible(p) for p in enumerate_paths(cfg)]
        # Both branches of the saturation check are reachable.
        assert feasible_flags.count(True) == 2

    def test_slicing_reduces_constraints(self):
        program = modular_exponentiation(4, 16)
        cfg = build_cfg(program)
        path = next(enumerate_paths(cfg))
        sliced = PathConstraintBuilder(cfg, slice_to_conditions=True).encode(path)
        unsliced = PathConstraintBuilder(cfg, slice_to_conditions=False).encode(path)
        assert len(sliced.constraints) < len(unsliced.constraints)

    def test_sliced_and_unsliced_agree_on_feasibility(self):
        program = modular_exponentiation(3, 16)
        cfg = build_cfg(program)
        sliced = PathConstraintBuilder(cfg, slice_to_conditions=True)
        unsliced = PathConstraintBuilder(cfg, slice_to_conditions=False)
        for path in enumerate_paths(cfg):
            assert sliced.is_feasible(path) == unsliced.is_feasible(path)

    def test_query_counter(self):
        cfg = build_cfg(saturating_add())
        builder = PathConstraintBuilder(cfg)
        for path in enumerate_paths(cfg):
            builder.is_feasible(path)
        assert builder.queries == cfg.count_paths()

    def test_input_variables_exposed(self):
        cfg = build_cfg(saturating_add())
        builder = PathConstraintBuilder(cfg)
        encoding = builder.encode(next(enumerate_paths(cfg)))
        assert set(encoding.input_variables) == {"a", "b"}
        formula = encoding.formula()
        assert formula is not None


class TestIncrementalFeasibility:
    def test_incremental_builder_matches_fresh_builder_per_path(self):
        program = modular_exponentiation(4, 16)
        cfg = build_cfg(program)
        incremental = PathConstraintBuilder(cfg)
        for path in enumerate_paths(cfg):
            incremental_witness = incremental.feasibility(path)
            fresh_witness = PathConstraintBuilder(cfg).feasibility(path)
            assert (incremental_witness is None) == (fresh_witness is None)
            if incremental_witness is not None:
                replay = execution_path(cfg, incremental_witness.test_case)
                assert replay.edges == path.edges

    def test_shared_solver_encodes_less_work(self):
        program = modular_exponentiation(4, 16)
        cfg = build_cfg(program)
        incremental = PathConstraintBuilder(cfg)
        fresh_variables = fresh_clauses = 0
        for path in enumerate_paths(cfg):
            incremental.is_feasible(path)
            fresh = PathConstraintBuilder(cfg)
            fresh.is_feasible(path)
            fresh_variables += fresh.smt_statistics.variables_generated
            fresh_clauses += fresh.smt_statistics.clauses_generated
        assert incremental.smt_statistics.variables_generated < fresh_variables
        # Clause counts can tie on heavily sliced encodings (one scoped
        # clause per assertion plus one scope-retirement unit per path
        # either way); the variable reduction above is the structural win.
        assert incremental.smt_statistics.clauses_generated <= fresh_clauses

    def test_infeasible_path_scope_does_not_leak(self):
        # A path rejected as infeasible must not constrain later queries on
        # the shared solver.
        program = saturating_add()
        cfg = build_cfg(program)
        builder = PathConstraintBuilder(cfg)
        paths = list(enumerate_paths(cfg))
        first_sweep = [builder.is_feasible(p) for p in paths]
        second_sweep = [builder.is_feasible(p) for p in paths]
        assert first_sweep == second_sweep
        assert first_sweep.count(True) == 2


class TestEncodeCache:
    def test_repeat_encode_returns_the_same_terms_in_new_containers(self):
        cfg = build_cfg(modular_exponentiation(3, 16))
        builder = PathConstraintBuilder(cfg)
        path = next(enumerate_paths(cfg))
        first = builder.encode(path)
        second = builder.encode(path)
        assert second.constraints is not first.constraints
        assert second.input_variables is not first.input_variables
        assert len(second.constraints) == len(first.constraints)
        assert all(a is b for a, b in zip(first.constraints, second.constraints))
        assert second.input_variables == first.input_variables
        # Mutating a returned encoding does not poison the cache.
        first.constraints.clear()
        first.input_variables.clear()
        third = builder.encode(path)
        assert all(a is b for a, b in zip(second.constraints, third.constraints))
        assert len(third.constraints) == len(second.constraints)
        assert third.input_variables == second.input_variables

    def test_lease_less_builder_hits_within_itself(self):
        cfg = build_cfg(saturating_add())
        builder = PathConstraintBuilder(cfg)
        paths = list(enumerate_paths(cfg))
        for path in paths:
            builder.encode(path)
        assert len(builder._encodings) == len(paths)
        again = [builder.encode(path) for path in paths]
        assert len(builder._encodings) == len(paths)
        # A second builder keeps a cache of its own, and its encodings are
        # the same interned terms.
        other = PathConstraintBuilder(cfg)
        assert other._encodings == {}
        for path, cached in zip(paths, again):
            fresh = other.encode(path)
            assert all(a is b for a, b in zip(fresh.constraints, cached.constraints))
