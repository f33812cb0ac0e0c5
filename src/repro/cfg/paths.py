"""Program paths as edge-indicator vectors.

GameTime's central object is the vector representation of a source-to-sink
path in the unrolled CFG: a path is a 0/1 vector ``x`` in ``R^m`` (one
coordinate per edge), and the set of such vectors spans a subspace of
dimension ``m - n + 2``.  Basis paths (:mod:`repro.cfg.basis`) are a basis
of that subspace; any path's predicted execution time is obtained from its
coordinates in that basis (paper Section 3.2).

Which candidate paths enter the basis is decided by an exact rank test
(:class:`RationalRankTracker`): fraction-free Gaussian elimination over
the integers, so the same candidates are accepted on every run and the
basis, its test cases and every prediction built on it are reproducible
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.exceptions import CompilationError
from repro.cfg.graph import ControlFlowGraph


@dataclass(frozen=True)
class Path:
    """A source-to-sink path of a CFG.

    Attributes:
        edges: the edge indices traversed, in order.
        nodes: the block indices visited, in order.
    """

    edges: tuple[int, ...]
    nodes: tuple[int, ...]

    def vector(self, num_edges: int) -> np.ndarray:
        """Return the 0/1 indicator vector of the path in ``R^num_edges``."""
        result = np.zeros(num_edges, dtype=float)
        for edge in self.edges:
            result[edge] = 1.0
        return result

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge_index: int) -> bool:
        return edge_index in self.edges


def path_from_edges(cfg: ControlFlowGraph, edges: Sequence[int]) -> Path:
    """Build a :class:`Path` from an edge-index sequence, validating it."""
    cfg.check_single_entry_exit()
    if not edges:
        raise CompilationError("a path must contain at least one edge")
    nodes = [cfg.edges[edges[0]].source]
    for edge_index in edges:
        edge = cfg.edges[edge_index]
        if edge.source != nodes[-1]:
            raise CompilationError(
                f"edge {edge_index} does not continue the path at block {nodes[-1]}"
            )
        nodes.append(edge.target)
    if nodes[0] != cfg.entry or nodes[-1] != cfg.exit:
        raise CompilationError("path must run from the entry block to the exit block")
    return Path(tuple(edges), tuple(nodes))


def enumerate_paths(cfg: ControlFlowGraph, limit: int | None = None) -> Iterator[Path]:
    """Lazily enumerate all source-to-sink paths of a DAG CFG.

    Paths are produced in depth-first order.  ``limit`` optionally caps the
    number of paths yielded (the total count can be exponential in the CFG
    size; use :meth:`ControlFlowGraph.count_paths` to check first).
    """
    cfg.check_single_entry_exit()
    if not cfg.is_dag():
        raise CompilationError("path enumeration requires an acyclic CFG")
    produced = 0
    stack_nodes = [cfg.entry]
    stack_edges: list[int] = []

    def dfs(node: int) -> Iterator[Path]:
        nonlocal produced
        if node == cfg.exit:
            if limit is None or produced < limit:
                produced += 1
                yield Path(tuple(stack_edges), tuple(stack_nodes))
            return
        for edge in cfg.successor_edges(node):
            if limit is not None and produced >= limit:
                return
            stack_edges.append(edge.index)
            stack_nodes.append(edge.target)
            yield from dfs(edge.target)
            stack_edges.pop()
            stack_nodes.pop()

    yield from dfs(cfg.entry)


def execution_path(cfg: ControlFlowGraph, inputs) -> Path:
    """Return the path taken by executing ``cfg`` on concrete ``inputs``."""
    execution = cfg.execute(inputs)
    return Path(tuple(execution.edge_sequence), tuple(execution.node_sequence))


class RationalRankTracker:
    """Incremental exact rank of a set of integral vectors.

    Used by the basis-path extractor.  The rank is computed by
    fraction-free Gaussian elimination: rows are integer lists, a row is
    reduced against a pivot row ``b`` as ``p * a - f * b`` (``p`` the pivot
    entry, ``f`` the row's entry in the pivot column) and then divided by
    the gcd of its entries to keep them small.  Every stored row is a
    nonzero rational multiple of the row that elimination over the
    rationals would produce, so the rank is exact over the rationals.
    Exactness matters because each accept/reject decision picks the
    basis: a floating-point rank test with a tolerance could flip one and
    change the basis, its test cases and every prediction from run to run.

    Vectors must be integral (path indicator vectors are 0/1); a
    non-integral entry raises :class:`CompilationError` instead of being
    rounded.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._rows: list[list[int]] = []
        self._pivot_columns: list[int] = []

    @property
    def rank(self) -> int:
        """Current rank of the tracked set of vectors."""
        return len(self._rows)

    def _integral_row(self, vector: Sequence[float]) -> list[int]:
        values = vector.tolist() if isinstance(vector, np.ndarray) else list(vector)
        if len(values) != self.dimension:
            raise CompilationError(
                f"vector has {len(values)} entries, expected {self.dimension}"
            )
        try:
            row = [int(value) for value in values]
        except (TypeError, ValueError, OverflowError) as error:
            raise CompilationError(
                f"rank tracking needs integral vectors: {error}"
            ) from error
        if row != values:
            raise CompilationError("rank tracking needs integral vectors")
        return row

    def _reduce(self, vector: Sequence[float]) -> list[int]:
        row = self._integral_row(vector)
        for pivot_row, pivot_column in zip(self._rows, self._pivot_columns):
            factor = row[pivot_column]
            if factor:
                pivot = pivot_row[pivot_column]
                row = [pivot * a - factor * b for a, b in zip(row, pivot_row)]
                divisor = math.gcd(*row)
                if not divisor:  # the row reduced to zero: dependent
                    break
                if divisor > 1:
                    row = [value // divisor for value in row]
        return row

    def would_increase_rank(self, vector: Sequence[float]) -> bool:
        """Return True iff adding ``vector`` would increase the rank."""
        return any(self._reduce(vector))

    def add(self, vector: Sequence[float]) -> bool:
        """Add ``vector`` if it is independent of the tracked set.

        Returns:
            True if the vector was added (rank increased), False otherwise.
        """
        row = self._reduce(vector)
        for column, value in enumerate(row):
            if value:
                self._rows.append(row)
                self._pivot_columns.append(column)
                return True
        return False


def expansion_coefficients(
    basis_vectors: Sequence[np.ndarray], target: np.ndarray
) -> np.ndarray:
    """Coefficients expressing ``target`` in terms of ``basis_vectors``.

    The basis paths span the path subspace, so every feasible path vector
    has an exact expansion; coefficients are computed by least squares and
    the residual is checked to guard against an incomplete basis.

    Raises:
        CompilationError: if ``basis_vectors`` is empty, or if ``target``
            lies outside the span (residual not numerically zero), which
            indicates the basis is incomplete.
    """
    if len(basis_vectors) == 0:
        raise CompilationError("no basis vectors to expand in")
    matrix = np.stack(basis_vectors, axis=1)
    coefficients, _, _, _ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = np.linalg.norm(matrix @ coefficients - target)
    if residual > 1e-6:
        raise CompilationError(
            f"path vector lies outside the basis span (residual {residual:.3g})"
        )
    return coefficients
