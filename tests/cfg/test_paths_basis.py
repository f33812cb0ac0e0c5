"""Tests for path vectors, enumeration, rank tracking, and basis extraction."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.api import timing_program_names
from repro.core import CompilationError
from repro.cfg import (
    RationalRankTracker,
    build_cfg,
    conditional_cascade,
    enumerate_paths,
    execution_path,
    expansion_coefficients,
    extract_basis_paths,
    figure4_toy,
    modular_exponentiation,
    path_from_edges,
    saturating_add,
)
from repro.cfg import programs
from repro.cfg.ssa import PathConstraintBuilder


class TestPathEnumeration:
    def test_enumeration_counts_match(self):
        for program in (figure4_toy(), conditional_cascade(3), saturating_add()):
            cfg = build_cfg(program)
            assert len(list(enumerate_paths(cfg))) == cfg.count_paths()

    def test_enumeration_limit(self):
        cfg = build_cfg(modular_exponentiation(6, 16))
        assert len(list(enumerate_paths(cfg, limit=10))) == 10

    def test_paths_are_entry_to_exit(self):
        cfg = build_cfg(conditional_cascade(2))
        for path in enumerate_paths(cfg):
            assert path.nodes[0] == cfg.entry
            assert path.nodes[-1] == cfg.exit
            rebuilt = path_from_edges(cfg, path.edges)
            assert rebuilt.nodes == path.nodes

    def test_path_from_disconnected_edges_rejected(self):
        cfg = build_cfg(saturating_add())
        edges = [cfg.edges[-1].index, cfg.edges[0].index]
        with pytest.raises(CompilationError):
            path_from_edges(cfg, edges)

    def test_execution_path_is_valid_path(self):
        cfg = build_cfg(saturating_add())
        path = execution_path(cfg, {"a": 30000, "b": 30000})
        assert path.nodes[0] == cfg.entry and path.nodes[-1] == cfg.exit

    def test_vector_indicator(self):
        cfg = build_cfg(saturating_add())
        path = next(enumerate_paths(cfg))
        vector = path.vector(cfg.num_edges)
        assert set(np.unique(vector)) <= {0.0, 1.0}
        assert vector.sum() == len(path.edges)


class TestRankTracker:
    def test_rank_increases_only_for_independent_vectors(self):
        tracker = RationalRankTracker(3)
        assert tracker.add([1, 0, 0])
        assert not tracker.add([2, 0, 0])
        assert tracker.add([1, 1, 0])
        assert not tracker.add([3, 1, 0])
        assert tracker.add([0, 0, 5])
        assert tracker.rank == 3

    def test_would_increase_rank_is_side_effect_free(self):
        tracker = RationalRankTracker(2)
        tracker.add([1, 0])
        assert tracker.would_increase_rank([0, 1])
        assert tracker.rank == 1

    def test_non_integral_entries_rejected_not_rounded(self):
        tracker = RationalRankTracker(2)
        with pytest.raises(CompilationError):
            tracker.add([1e-10, 0])
        assert tracker.rank == 0
        tracker.add([1, 0])
        with pytest.raises(CompilationError):
            tracker.would_increase_rank([1, 1e-10])
        with pytest.raises(CompilationError):
            tracker.add(np.array([0.5, 0.0]))
        with pytest.raises(CompilationError):
            tracker.add([float("nan"), 0])
        assert tracker.rank == 1

    def test_wrong_dimension_rejected(self):
        with pytest.raises(CompilationError):
            RationalRankTracker(3).add([1, 0])


class _FractionRank:
    """Independent reference: Gaussian elimination over ``Fraction``, with
    each pivot row scaled to a leading 1."""

    def __init__(self):
        self.rows = {}  # pivot column -> row, in insertion order

    def add(self, vector):
        row = [Fraction(value) for value in vector]
        for column, pivot_row in self.rows.items():
            factor = row[column]
            if factor:
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        column = next((c for c, value in enumerate(row) if value), None)
        if column is None:
            return False
        self.rows[column] = [value / row[column] for value in row]
        return True


class TestRankTrackerDifferential:
    def _vectors(self, rng, dimension):
        vectors = []
        for _ in range(rng.randint(1, 2 * dimension + 3)):
            roll = rng.random()
            if roll < 0.1:
                vectors.append([0] * dimension)
            elif roll < 0.25 and vectors:
                vectors.append(list(rng.choice(vectors)))
            elif roll < 0.4 and vectors:
                scale = rng.choice([-3, -2, -1, 2, 3])
                vectors.append([scale * value for value in rng.choice(vectors)])
            else:
                vectors.append([rng.randint(-3, 3) for _ in range(dimension)])
        return vectors

    def test_matches_fraction_elimination_on_random_vectors(self):
        rng = random.Random(20120603)
        for trial in range(80):
            dimension = rng.randint(1, 40) if trial >= 40 else trial + 1
            vectors = self._vectors(rng, dimension)
            reference = _FractionRank()
            tracker = RationalRankTracker(dimension)
            rank = 0
            for vector in vectors:
                increases = reference.add(vector)
                assert tracker.would_increase_rank(vector) is increases
                assert tracker.rank == rank  # the probe left no trace
                assert tracker.add(vector) is increases
                rank += increases
                assert tracker.rank == rank


class TestExpansionCoefficients:
    def test_exact_expansion(self):
        basis = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
        target = np.array([1.0, 1.0, 2.0])
        coefficients = expansion_coefficients(basis, target)
        assert np.allclose(coefficients, [1.0, 1.0])

    def test_outside_span_rejected(self):
        basis = [np.array([1.0, 0.0, 0.0])]
        with pytest.raises(CompilationError):
            expansion_coefficients(basis, np.array([0.0, 1.0, 0.0]))

    def test_empty_basis_rejected(self):
        with pytest.raises(CompilationError):
            expansion_coefficients([], np.array([1.0, 0.0]))


class TestBasisExtraction:
    def test_modexp_basis_size_and_tests(self):
        program = modular_exponentiation(5, 16)
        cfg = build_cfg(program)
        result = extract_basis_paths(cfg)
        assert result.complete
        assert len(result.basis) == cfg.basis_dimension() == 6
        # Every basis path's test case actually drives execution down it.
        for feasible in result.basis:
            execution = cfg.execute(feasible.test_case)
            assert tuple(execution.edge_sequence) == feasible.path.edges

    def test_every_path_expands_in_the_basis(self):
        program = modular_exponentiation(4, 16)
        cfg = build_cfg(program)
        result = extract_basis_paths(cfg)
        vectors = result.vectors(cfg.num_edges)
        for path in enumerate_paths(cfg):
            coefficients = expansion_coefficients(vectors, path.vector(cfg.num_edges))
            assert len(coefficients) == len(vectors)

    def test_structural_extraction_without_feasibility(self):
        cfg = build_cfg(conditional_cascade(4))
        result = extract_basis_paths(cfg, check_feasibility=False)
        assert result.complete
        assert result.infeasible_skipped == 0

    def test_infeasible_paths_are_skipped(self):
        # figure4_toy has 3 structural paths but only 2 feasible ones; the
        # third (taking the loop twice) contradicts flag being set to 1.
        cfg = build_cfg(figure4_toy())
        builder = PathConstraintBuilder(cfg)
        feasible = [p for p in enumerate_paths(cfg) if builder.is_feasible(p)]
        assert len(feasible) == 2
        result = extract_basis_paths(cfg)
        assert result.achieved_rank == 2
        assert not result.complete
        assert result.infeasible_skipped >= 1


#: Every registered timing program, with the argument sets of the
#: ``gametime-sweep`` benchmark's shape catalogue.
GOLDEN_SHAPES = [
    ("modular_exponentiation", {"exponent_bits": 6}),
    ("modular_exponentiation", {"exponent_bits": 8}),
    ("modular_exponentiation", {"exponent_bits": 10}),
    ("conditional_cascade", {"depth": 4}),
    ("conditional_cascade", {"depth": 6}),
    ("bounded_linear_search", {"length": 4}),
    ("figure4_toy", {}),
    ("saturating_add", {}),
    ("absolute_difference", {}),
]

GOLDEN_BASIS = json.loads(
    (Path(__file__).parent / "data" / "golden_basis.json").read_text()
)


def _shape_label(name, args):
    arguments = ", ".join(f"{key}={value}" for key, value in args.items())
    return f"{name}({arguments})"


def _golden_key(name, args, width):
    return f"{_shape_label(name, args)} w{width}"


class TestGoldenBasisSelection:
    """Which candidates enter the basis, pinned: any change to the rank
    test or the candidate order shows up here as a different basis."""

    def test_golden_covers_every_registered_program(self):
        assert {name for name, _ in GOLDEN_SHAPES} == set(timing_program_names())
        assert set(GOLDEN_BASIS) == {
            _golden_key(name, args, width)
            for name, args in GOLDEN_SHAPES
            for width in (16, 31)
        }

    @pytest.mark.parametrize("width", [16, 31])
    @pytest.mark.parametrize(
        "name,args", GOLDEN_SHAPES, ids=[_shape_label(*shape) for shape in GOLDEN_SHAPES]
    )
    def test_basis_matches_golden(self, name, args, width):
        program = getattr(programs, name)(**args, word_width=width)
        result = extract_basis_paths(build_cfg(program))
        golden = GOLDEN_BASIS[_golden_key(name, args, width)]
        assert [list(item.path.edges) for item in result.basis] == golden["edges"]
        assert result.test_cases() == golden["test_cases"]
        assert result.paths_considered == golden["paths_considered"]
        assert result.infeasible_skipped == golden["infeasible_skipped"]
        assert result.achieved_rank == golden["achieved_rank"]
