"""Extraction of feasible basis paths (paper Section 3.2, Figure 5).

The set of source-to-sink path vectors of a DAG CFG with ``n`` nodes and
``m`` edges spans a subspace of dimension ``b = m - n + 2``.  GameTime
measures only ``b`` *basis paths* and predicts every other path's timing
from its expansion in that basis, so extracting a set of feasible,
linearly-independent paths is the critical front-end step.

The extractor walks paths depth-first and greedily keeps those that (a)
increase the rank of the collected path-vector matrix and (b) are
feasible according to the SMT-based
:class:`~repro.cfg.ssa.PathConstraintBuilder`.  For each selected path the
SMT model provides the test case that drives execution down it.

Most walked paths are rank rejections, so the walk skips whole subtrees
that cannot raise the rank.  Every non-first out-edge ``e = (u, w)``
defines a *switch vector* ``(e + first(w)) - first(u)``, where
``first(v)`` is the suffix from ``v`` that always takes the first
out-edge; a CFG has ``m - n + 1`` of them.  Every suffix from ``v`` is
``first(v)`` plus a sum of the switch vectors reachable from ``v``, so
the paths below a DFS position span exactly its first path plus those
switches.  When both are in the span of the accepted rows, no path of
the subtree can raise the rank, the rank cannot change inside it, and
skipping it drops only rank rejections: the feasibility queries, the
basis, its test cases and every count are those of the unskipped walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.graph import ControlFlowGraph, Edge
from repro.cfg.paths import PathWalk, RationalRankTracker
from repro.cfg.ssa import FeasiblePath, PathConstraintBuilder


@dataclass
class BasisExtractionResult:
    """Outcome of basis-path extraction.

    Attributes:
        basis: the selected feasible basis paths with their test cases.
        dimension: the target dimension ``m - n + 2``.
        achieved_rank: rank actually achieved (may be lower than
            ``dimension`` when infeasible paths make parts of the path
            space unreachable).
        paths_considered: number of DFS path positions up to the path at
            which extraction stopped, paths in skipped subtrees included
            (the count a walk that rank-tests every path would report).
        infeasible_skipped: number of candidates rejected as infeasible.
    """

    basis: list[FeasiblePath] = field(default_factory=list)
    dimension: int = 0
    achieved_rank: int = 0
    paths_considered: int = 0
    infeasible_skipped: int = 0

    @property
    def complete(self) -> bool:
        """True iff a full-rank basis of feasible paths was found."""
        return self.achieved_rank == self.dimension

    def test_cases(self) -> list[dict[str, int]]:
        """Test cases (one per basis path)."""
        return [item.test_case for item in self.basis]


class _SwitchSpan:
    """Which DFS subtrees of ``cfg`` lie in the span of ``tracker``'s rows.

    Built once per extraction: ``_reach[v]`` is the bitmask of switch
    vectors reachable from block ``v`` and ``paths[v]`` the number of
    suffixes from ``v``, both by one pass in reverse topological order.
    A switch found in the span stays there (rows are only added); one
    found outside is tested again only after the rank has grown.
    """

    def __init__(self, cfg: ControlFlowGraph, tracker: RationalRankTracker):
        self._tracker = tracker
        self._num_edges = cfg.num_edges
        self._first: list[Edge | None] = [None] * cfg.num_blocks
        self._switches: list[Edge] = []
        self._reach = [0] * cfg.num_blocks
        self.paths = [0] * cfg.num_blocks
        for node in reversed(cfg.topological_order()):
            successors = cfg.successor_edges(node)
            if not successors:
                self.paths[node] = 1
                continue
            self._first[node] = successors[0]
            for position, edge in enumerate(successors):
                self._reach[node] |= self._reach[edge.target]
                self.paths[node] += self.paths[edge.target]
                if position:
                    self._reach[node] |= 1 << len(self._switches)
                    self._switches.append(edge)
        self._in_span = 0
        self._outside_at_rank = [-1] * len(self._switches)

    def _add_first_suffix(self, vector: list[int], node: int, sign: int) -> None:
        edge = self._first[node]
        while edge is not None:
            vector[edge.index] += sign
            edge = self._first[edge.target]

    def _switch_vector(self, switch: int) -> list[int]:
        edge = self._switches[switch]
        vector = [0] * self._num_edges
        vector[edge.index] = 1
        self._add_first_suffix(vector, edge.target, 1)
        self._add_first_suffix(vector, edge.source, -1)
        return vector

    def switches_spanned(self, node: int) -> bool:
        """True iff every switch vector reachable from ``node`` is in the span."""
        missing = self._reach[node] & ~self._in_span
        rank = self._tracker.rank
        while missing:
            bit = missing & -missing
            missing ^= bit
            switch = bit.bit_length() - 1
            if self._outside_at_rank[switch] == rank:
                return False
            if self._tracker.would_increase_rank(self._switch_vector(switch)):
                self._outside_at_rank[switch] = rank
                return False
            self._in_span |= bit
        return True


def extract_basis_paths(
    cfg: ControlFlowGraph,
    constraint_builder: PathConstraintBuilder | None = None,
    check_feasibility: bool = True,
) -> BasisExtractionResult:
    """Extract a maximal set of feasible, linearly-independent paths.

    Candidates are taken in depth-first order; the first feasible path
    that raises the rank enters the basis (paper Sec. 3.2).

    Args:
        cfg: the unrolled CFG (must be a DAG with single entry/exit).
        constraint_builder: SMT path-constraint builder; a default one is
            created when omitted.
        check_feasibility: when False, paths are selected on linear
            independence alone (useful for structural tests and for CFGs
            whose paths are all feasible by construction).

    Returns:
        A :class:`BasisExtractionResult`; its ``basis`` list holds at most
        ``m - n + 2`` paths and each carries a satisfying test case (or an
        empty one when ``check_feasibility`` is False).
    """
    walk = PathWalk(cfg)
    if constraint_builder is None and check_feasibility:
        constraint_builder = PathConstraintBuilder(cfg)
    dimension = cfg.basis_dimension()
    tracker = RationalRankTracker(cfg.num_edges)
    span = _SwitchSpan(cfg, tracker)
    result = BasisExtractionResult(dimension=dimension)

    while result.achieved_rank < dimension and walk.advance():
        vector = [0] * cfg.num_edges
        for edge in walk.edges:
            vector[edge] = 1
        if not tracker.would_increase_rank(vector):
            # This path is the first one below every block entered since
            # the previous path; skip the largest of those subtrees whose
            # switches are spanned too (the exit's always qualifies).
            depth = walk.branch
            while not span.switches_spanned(walk.nodes[depth]):
                depth += 1
            result.paths_considered += span.paths[walk.nodes[depth]]
            walk.prune(depth)
            continue
        result.paths_considered += 1
        path = walk.path()
        if check_feasibility:
            assert constraint_builder is not None
            feasible = constraint_builder.feasibility(path)
            if feasible is None:
                result.infeasible_skipped += 1
                continue
        else:
            feasible = FeasiblePath(path=path, test_case={})
        tracker.add(vector)
        result.basis.append(feasible)
        result.achieved_rank = tracker.rank
    return result
