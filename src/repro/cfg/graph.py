"""Control-flow graphs (CFGs) over the task language.

GameTime operates on the control-flow graph of the task *after* loop
unrolling and function inlining, which turns it into a directed acyclic
graph with a single source (entry) and a single sink (exit) — paper
Figure 4/5.  This module provides that data structure plus:

* structural queries (successors, predecessors, topological order,
  acyclicity, the basis dimension ``m - n + 2``),
* concrete execution of the CFG on an input valuation, returning both the
  final state and the executed path (used to cross-validate the builder
  against the AST interpreter and to label paths with measurements),
* longest/shortest path computation under edge weights (used by GameTime's
  prediction step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from repro.core.exceptions import CompilationError
from repro.cfg.lang import Assign, Expression, evaluate_expression


@dataclass
class BasicBlock:
    """A basic block: a straight-line sequence of assignments.

    Attributes:
        index: the block's index in the CFG.
        statements: the assignments executed when the block runs.
        label: optional human-readable label (e.g. ``loop[2].then``).
    """

    index: int
    statements: list[Assign] = field(default_factory=list)
    label: str = ""


@dataclass
class Edge:
    """A CFG edge, optionally guarded by a branch condition.

    Attributes:
        index: the edge's index (position in :attr:`ControlFlowGraph.edges`);
            this is the coordinate used in path vectors.
        source: index of the source block.
        target: index of the target block.
        condition: expression that must evaluate to a non-zero value for
            the edge to be taken; ``None`` for unconditional edges.
    """

    index: int
    source: int
    target: int
    condition: Expression | None = None


@dataclass
class CfgExecution:
    """Result of executing a CFG on concrete inputs.

    Attributes:
        final_state: variable valuation at the exit block.
        edge_sequence: indices of the edges traversed, in order.
        node_sequence: indices of the blocks visited, in order.
    """

    final_state: dict[str, int]
    edge_sequence: list[int]
    node_sequence: list[int]


class ControlFlowGraph:
    """A CFG with a single entry and a single exit block.

    Instances are normally produced by :func:`repro.cfg.builder.build_cfg`;
    they can also be constructed programmatically for tests.
    """

    def __init__(self, name: str, word_width: int, parameters: Sequence[str]):
        self.name = name
        self.word_width = word_width
        self.parameters = tuple(parameters)
        self.blocks: list[BasicBlock] = []
        self.edges: list[Edge] = []
        self._successors: list[list[int]] = []
        self._predecessors: list[list[int]] = []
        self.entry: int | None = None
        self.exit: int | None = None

    # -- construction ------------------------------------------------------

    def new_block(self, label: str = "") -> int:
        """Create a new empty basic block and return its index."""
        index = len(self.blocks)
        self.blocks.append(BasicBlock(index=index, label=label))
        self._successors.append([])
        self._predecessors.append([])
        return index

    def add_statement(self, block_index: int, statement: Assign) -> None:
        """Append an assignment to a block."""
        self.blocks[block_index].statements.append(statement)

    def add_edge(
        self, source: int, target: int, condition: Expression | None = None
    ) -> int:
        """Add an edge and return its index."""
        index = len(self.edges)
        self.edges.append(Edge(index=index, source=source, target=target, condition=condition))
        self._successors[source].append(index)
        self._predecessors[target].append(index)
        return index

    # -- structural queries --------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self.blocks)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def successor_edges(self, block_index: int) -> list[Edge]:
        """Edges leaving ``block_index``."""
        return [self.edges[i] for i in self._successors[block_index]]

    def basis_dimension(self) -> int:
        """Dimension of the path space: ``m - n + 2`` for a connected DAG
        with single source and sink (paper Section 3.2: the number of basis
        paths)."""
        return self.num_edges - self.num_blocks + 2

    def check_single_entry_exit(self) -> None:
        """Raise if the CFG does not have exactly one source and one sink."""
        sources = [b.index for b in self.blocks if not self._predecessors[b.index]]
        sinks = [b.index for b in self.blocks if not self._successors[b.index]]
        if len(sources) != 1 or len(sinks) != 1:
            raise CompilationError(
                f"CFG must have a single source and sink, found {sources} / {sinks}"
            )
        if self.entry is None:
            self.entry = sources[0]
        if self.exit is None:
            self.exit = sinks[0]

    def is_dag(self) -> bool:
        """Return True iff the CFG is acyclic."""
        try:
            self.topological_order()
            return True
        except CompilationError:
            return False

    def topological_order(self) -> list[int]:
        """Return block indices in topological order.

        Raises:
            CompilationError: if the graph contains a cycle.
        """
        in_degree = [len(self._predecessors[i]) for i in range(self.num_blocks)]
        queue = [i for i in range(self.num_blocks) if in_degree[i] == 0]
        order: list[int] = []
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for edge_index in self._successors[node]:
                target = self.edges[edge_index].target
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    queue.append(target)
        if len(order) != self.num_blocks:
            raise CompilationError("CFG contains a cycle (did you forget to unroll?)")
        return order

    def count_paths(self) -> int:
        """Number of source-to-sink paths (exact, by DAG dynamic programming)."""
        self.check_single_entry_exit()
        order = self.topological_order()
        counts = [0] * self.num_blocks
        counts[self.exit] = 1
        for node in reversed(order):
            if node == self.exit:
                continue
            counts[node] = sum(
                counts[edge.target] for edge in self.successor_edges(node)
            )
        return counts[self.entry]

    # -- execution -------------------------------------------------------------

    def execute(self, inputs: Mapping[str, int] | Sequence[int]) -> CfgExecution:
        """Execute the CFG on concrete inputs.

        Branch conditions are evaluated on the current state; exactly one
        outgoing edge of every non-exit block must be enabled (the builder
        guarantees this by pairing each condition with its negation).

        Returns:
            A :class:`CfgExecution` containing the final state and the path.
        """
        self.check_single_entry_exit()
        if not isinstance(inputs, Mapping):
            values = list(inputs)
            if len(values) != len(self.parameters):
                raise CompilationError(
                    f"expected {len(self.parameters)} inputs, got {len(values)}"
                )
            inputs = dict(zip(self.parameters, values))
        mask = (1 << self.word_width) - 1
        state: dict[str, int] = {}
        for name in self.parameters:
            if name not in inputs:
                raise CompilationError(f"missing input {name!r}")
            state[name] = inputs[name] & mask
        node = self.entry
        node_sequence = [node]
        edge_sequence: list[int] = []
        steps = 0
        limit = self.num_blocks + 1
        while node != self.exit:
            steps += 1
            if steps > limit:
                raise CompilationError("CFG execution did not reach the exit (cycle?)")
            for statement in self.blocks[node].statements:
                state[statement.target] = evaluate_expression(
                    statement.expression, state, self.word_width
                )
            taken: Edge | None = None
            for edge in self.successor_edges(node):
                if edge.condition is None:
                    enabled = True
                else:
                    enabled = (
                        evaluate_expression(edge.condition, state, self.word_width) != 0
                    )
                if enabled:
                    taken = edge
                    break
            if taken is None:
                raise CompilationError(
                    f"no enabled outgoing edge from block {node} during execution"
                )
            edge_sequence.append(taken.index)
            node = taken.target
            node_sequence.append(node)
        # Execute the exit block's statements (usually empty).
        for statement in self.blocks[node].statements:
            state[statement.target] = evaluate_expression(
                statement.expression, state, self.word_width
            )
        return CfgExecution(
            final_state=state, edge_sequence=edge_sequence, node_sequence=node_sequence
        )

    # -- weighted path queries ---------------------------------------------------

    def extremal_path(
        self, edge_weights: Sequence[int | Fraction], longest: bool = True
    ) -> tuple[int | Fraction, list[int]]:
        """Longest (or shortest) source-to-sink path under edge weights.

        Totals are exact, so ties are real; they break by edge order.

        Args:
            edge_weights: one weight per edge (indexed by edge index).
            longest: True for the longest path, False for the shortest.

        Returns:
            ``(total_weight, edge_indices)`` of the extremal path.
        """
        self.check_single_entry_exit()
        if len(edge_weights) != self.num_edges:
            raise CompilationError("one weight per edge is required")
        order = self.topological_order()
        sign = 1 if longest else -1
        best: list[int | Fraction | None] = [None] * self.num_blocks
        best_edge: list[int | None] = [None] * self.num_blocks
        best[self.entry] = 0
        for node in order:
            reached = best[node]
            if reached is None:
                continue
            for edge in self.successor_edges(node):
                candidate = reached + sign * edge_weights[edge.index]
                current = best[edge.target]
                if current is None or candidate > current:
                    best[edge.target] = candidate
                    best_edge[edge.target] = edge.index
        total = best[self.exit]
        if total is None:
            raise CompilationError("exit unreachable from entry")
        # Reconstruct.
        path: list[int] = []
        node = self.exit
        while node != self.entry:
            edge_index = best_edge[node]
            assert edge_index is not None
            path.append(edge_index)
            node = self.edges[edge_index].source
        path.reverse()
        return sign * total, path

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ControlFlowGraph({self.name!r}, blocks={self.num_blocks}, "
            f"edges={self.num_edges})"
        )

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self.edges)
