"""Tests for path vectors, enumeration, rank tracking, and basis extraction."""

import json
import random
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import timing_program_names
from repro.core import CompilationError
from repro.cfg import (
    RationalRankTracker,
    build_cfg,
    conditional_cascade,
    enumerate_paths,
    execution_path,
    extract_basis_paths,
    figure4_toy,
    modular_exponentiation,
    path_from_edges,
    saturating_add,
)
from repro.cfg import ControlFlowGraph, programs
from repro.cfg import basis as basis_module
from repro.cfg.basis import BasisExtractionResult
from repro.cfg.paths import Path as CfgPath
from repro.cfg.ssa import FeasiblePath, PathConstraintBuilder


def _indicator(path, num_edges):
    return [1 if edge in path.edges else 0 for edge in range(num_edges)]


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

    def test_long_chain_enumerates_without_recursion(self):
        # The walk keeps its own stack: depth is not bounded by the
        # interpreter's recursion limit.
        cfg = ControlFlowGraph("chain", 16, [])
        blocks = [cfg.new_block() for _ in range(3000)]
        for source, target in zip(blocks, blocks[1:]):
            cfg.add_edge(source, target)
        (path,) = enumerate_paths(cfg)
        assert path.edges == tuple(range(2999))
        assert path.nodes == tuple(blocks)
        result = extract_basis_paths(cfg, check_feasibility=False)
        assert result.achieved_rank == 1 and result.paths_considered == 1

    def test_execution_path_is_valid_path(self):
        cfg = build_cfg(saturating_add())
        path = execution_path(cfg, {"a": 30000, "b": 30000})
        assert path.nodes[0] == cfg.entry and path.nodes[-1] == cfg.exit


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
            tracker.add([Fraction(1, 2), 0])
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


def _reference_paths(cfg, limit=None):
    """Recursive depth-first enumeration: the walk ``enumerate_paths``
    must reproduce, path for path."""
    cfg.check_single_entry_exit()
    produced = 0
    nodes = [cfg.entry]
    edges = []

    def dfs(node):
        nonlocal produced
        if node == cfg.exit:
            if limit is None or produced < limit:
                produced += 1
                yield CfgPath(tuple(edges), tuple(nodes))
            return
        for edge in cfg.successor_edges(node):
            if limit is not None and produced >= limit:
                return
            edges.append(edge.index)
            nodes.append(edge.target)
            yield from dfs(edge.target)
            edges.pop()
            nodes.pop()

    yield from dfs(cfg.entry)


def _reference_extract(cfg, builder, check_feasibility):
    """The extractor without subtree skipping: every path is rank-tested."""
    dimension = cfg.basis_dimension()
    tracker = RationalRankTracker(cfg.num_edges)
    result = BasisExtractionResult(dimension=dimension)
    for path in _reference_paths(cfg):
        if result.achieved_rank >= dimension:
            break
        result.paths_considered += 1
        vector = _indicator(path, cfg.num_edges)
        if not tracker.would_increase_rank(vector):
            continue
        if check_feasibility:
            feasible = builder.feasibility(path)
            if feasible is None:
                result.infeasible_skipped += 1
                continue
        else:
            feasible = FeasiblePath(path=path, test_case={})
        tracker.add(vector)
        result.basis.append(feasible)
        result.achieved_rank = tracker.rank
    return result


class _FakeBuilder:
    """Feasibility as a fixed function of the path's edges; records every
    query in order."""

    def __init__(self, seed, infeasible_one_in):
        self.seed = seed
        self.infeasible_one_in = infeasible_one_in
        self.queries = []

    def feasibility(self, path):
        self.queries.append(path.edges)
        digest = zlib.crc32(repr((self.seed, path.edges)).encode())
        if self.infeasible_one_in and digest % self.infeasible_one_in == 0:
            return None
        return FeasiblePath(path=path, test_case={"x": digest % 997})


def _random_dag(rng, max_paths=3000):
    """A single-entry/exit DAG with parallel edges and shuffled edge
    indices (so DFS order differs from edge order)."""
    while True:
        size = rng.randint(2, 11)
        pairs = []
        for source in range(size - 1):
            for _ in range(rng.choice([1, 1, 2, 2, 3])):
                pairs.append((source, rng.randint(source + 1, size - 1)))
        for target in range(1, size):
            if not any(t == target for _, t in pairs):
                pairs.append((rng.randint(0, target - 1), target))
        rng.shuffle(pairs)
        cfg = ControlFlowGraph("random", 8, [])
        for _ in range(size):
            cfg.new_block()
        for source, target in pairs:
            cfg.add_edge(source, target)
        if cfg.count_paths() <= max_paths:
            return cfg


class TestSkippingWalkDifferential:
    """The subtree-skipping extractor against the unskipped loop: same
    feasibility queries in the same order, same result."""

    @pytest.mark.parametrize("check_feasibility", [True, False])
    def test_matches_unskipped_extraction(self, monkeypatch, check_feasibility):
        rank_tests = 0
        probe = RationalRankTracker.would_increase_rank

        def counting(self, vector):
            nonlocal rank_tests
            rank_tests += 1
            return probe(self, vector)

        rng = random.Random(20120603)
        considered = 0
        for trial in range(150):
            cfg = _random_dag(rng)
            infeasible_one_in = rng.choice([0, 2, 3, 5])
            reference_builder = _FakeBuilder(trial, infeasible_one_in)
            expected = _reference_extract(cfg, reference_builder, check_feasibility)
            builder = _FakeBuilder(trial, infeasible_one_in)
            monkeypatch.setattr(
                basis_module.RationalRankTracker, "would_increase_rank", counting
            )
            result = extract_basis_paths(cfg, builder, check_feasibility)
            monkeypatch.undo()
            assert builder.queries == reference_builder.queries
            assert [item.path.edges for item in result.basis] == [
                item.path.edges for item in expected.basis
            ]
            assert result.test_cases() == expected.test_cases()
            assert result.paths_considered == expected.paths_considered
            assert result.infeasible_skipped == expected.infeasible_skipped
            assert result.achieved_rank == expected.achieved_rank
            assert result.dimension == expected.dimension
            considered += result.paths_considered
        # Subtrees were skipped, not just walked.
        assert rank_tests < considered

    def test_enumeration_matches_recursive_reference(self):
        rng = random.Random(1201)
        for _ in range(60):
            cfg = _random_dag(rng)
            total = cfg.count_paths()
            for limit in (None, 0, 1, rng.randint(1, total + 2)):
                assert list(enumerate_paths(cfg, limit)) == list(
                    _reference_paths(cfg, limit)
                )


class TestBasisExtractionWork:
    def test_rank_tests_grow_with_the_basis_not_the_path_count(self, monkeypatch):
        # modexp(16) has 32,769 paths and a 17-path basis; the last basis
        # path is the last path in DFS order.
        cfg = build_cfg(modular_exponentiation(16, 16))
        rank_tests = 0
        probe = RationalRankTracker.would_increase_rank

        def counting(self, vector):
            nonlocal rank_tests
            rank_tests += 1
            return probe(self, vector)

        builder = PathConstraintBuilder(cfg)
        queries = []
        check = builder.feasibility

        def recording(path):
            queries.append(path.edges)
            return check(path)

        builder.feasibility = recording
        monkeypatch.setattr(RationalRankTracker, "would_increase_rank", counting)
        result = extract_basis_paths(cfg, constraint_builder=builder)
        assert result.complete and result.achieved_rank == 17
        assert result.paths_considered == 32769
        assert len(queries) == 17
        assert rank_tests <= 1000


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
        assert result.complete
        tracker = RationalRankTracker(cfg.num_edges)
        for feasible in result.basis:
            assert tracker.add(_indicator(feasible.path, cfg.num_edges))
        # A complete basis spans every path: none raises the rank.
        for path in enumerate_paths(cfg):
            assert not tracker.would_increase_rank(_indicator(path, cfg.num_edges))

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
