"""Extraction of feasible basis paths (paper Section 3.2, Figure 5).

The set of source-to-sink path vectors of a DAG CFG with ``n`` nodes and
``m`` edges spans a subspace of dimension ``b = m - n + 2``.  GameTime
measures only ``b`` *basis paths* and predicts every other path's timing
from its expansion in that basis, so extracting a set of feasible,
linearly-independent paths is the critical front-end step.

The extractor enumerates paths lazily (depth-first) and greedily keeps
those that (a) increase the rank of the collected path-vector matrix and
(b) are feasible according to the SMT-based
:class:`~repro.cfg.ssa.PathConstraintBuilder`.  For each selected path the
SMT model provides the test case that drives execution down it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import CompilationError
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.paths import Path, RationalRankTracker, enumerate_paths
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
        paths_considered: number of candidate paths examined.
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


def extract_basis_paths(
    cfg: ControlFlowGraph,
    constraint_builder: PathConstraintBuilder | None = None,
    check_feasibility: bool = True,
) -> BasisExtractionResult:
    """Extract a maximal set of feasible, linearly-independent paths.

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
    cfg.check_single_entry_exit()
    if not cfg.is_dag():
        raise CompilationError("basis extraction requires an acyclic CFG")
    if constraint_builder is None and check_feasibility:
        constraint_builder = PathConstraintBuilder(cfg)
    dimension = cfg.basis_dimension()
    tracker = RationalRankTracker(cfg.num_edges)
    result = BasisExtractionResult(dimension=dimension)

    for path in enumerate_paths(cfg):
        if result.achieved_rank >= dimension:
            break
        result.paths_considered += 1
        vector = [0] * cfg.num_edges
        for edge in path.edges:
            vector[edge] = 1
        if not tracker.would_increase_rank(vector):
            continue
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

