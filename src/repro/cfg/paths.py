"""Program paths as edge-indicator vectors.

GameTime's central object is the vector representation of a source-to-sink
path in the unrolled CFG: a path is a 0/1 vector ``x`` in ``R^m`` (one
coordinate per edge, 1 on the path's edges), and the set of such vectors
spans a subspace of dimension ``m - n + 2``.  Basis paths
(:mod:`repro.cfg.basis`) are a basis of that subspace; any path's
predicted execution time is ``x . w`` for the weights ``w`` fitted to the
basis-path measurements (paper Section 3.2, :mod:`repro.gametime.learner`).

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


class PathWalk:
    """One depth-first walk over the source-to-sink paths of a DAG CFG.

    The walk keeps its own stack, so path depth is not limited by the
    interpreter's recursion limit.  Successor edges are taken in CFG
    order.  After each :meth:`advance` the current path is ``nodes`` /
    ``edges``, and ``nodes[branch:]`` are the blocks entered since the
    previous path: ``nodes[branch]`` is the target of the edge just
    switched to (the entry for the first path), and every later block
    was reached by a first out-edge.  :meth:`prune` abandons the rest of
    the subtree below a block of the current path.
    """

    def __init__(self, cfg: ControlFlowGraph):
        cfg.check_single_entry_exit()
        if not cfg.is_dag():
            raise CompilationError("path enumeration requires an acyclic CFG")
        self._successors = [cfg.successor_edges(node) for node in range(cfg.num_blocks)]
        self.nodes: list[int] = [cfg.entry]
        self.edges: list[int] = []
        self.branch = 0
        self._next = [0]  # per stack block: position of its next successor edge
        self._started = False

    def advance(self) -> bool:
        """Move to the next path in depth-first order.

        Returns:
            False once every path has been walked (or pruned).
        """
        nodes, edges, following = self.nodes, self.edges, self._next
        if not nodes:
            return False
        if self._started:
            while following[-1] == len(self._successors[nodes[-1]]):
                nodes.pop()
                following.pop()
                if not nodes:
                    return False
                edges.pop()
            self.branch = len(nodes)
        self._started = True
        successors = self._successors[nodes[-1]]
        while following[-1] < len(successors):
            edge = successors[following[-1]]
            following[-1] += 1
            edges.append(edge.index)
            nodes.append(edge.target)
            following.append(0)
            successors = self._successors[edge.target]
        return True

    def prune(self, depth: int) -> None:
        """Skip every remaining path below ``nodes[depth]`` on this prefix.

        The next :meth:`advance` resumes at ``nodes[depth - 1]``'s next
        successor edge (``depth`` 0 ends the walk).
        """
        del self.nodes[depth:]
        del self._next[depth:]
        del self.edges[max(depth - 1, 0):]

    def path(self) -> Path:
        """The current path."""
        return Path(tuple(self.edges), tuple(self.nodes))


def enumerate_paths(cfg: ControlFlowGraph, limit: int | None = None) -> Iterator[Path]:
    """Lazily enumerate all source-to-sink paths of a DAG CFG.

    Paths are produced in depth-first order (one :class:`PathWalk`).
    ``limit`` optionally caps the number of paths yielded (the total
    count can be exponential in the CFG size; use
    :meth:`ControlFlowGraph.count_paths` to check first).
    """
    walk = PathWalk(cfg)
    produced = 0
    while (limit is None or produced < limit) and walk.advance():
        produced += 1
        yield walk.path()


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
        values = list(vector)
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

