"""Interval learning: the inductive building block of Section 5.

Section 2.2.2 of the paper characterises the inductive engines used in
sciduction: they learn an artifact of the hypothesis class from examples,
usually via *active learning* (the learner chooses its examples), with
examples/labels produced by oracles.  Each application keeps its own
learner next to its procedure; this module holds the one piece that is
generic:

* :class:`Interval` — a closed interval on the real line;
* :class:`BinarySearchIntervalLearner` — learns a 1-D interval from a
  membership (labeling) oracle by binary search on a discrete grid, the
  building block of Section 5's hyperbox learning (Goldman & Kearns).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import InductionError
from repro.core.hypothesis import GridSpec
from repro.core.oracle import LabelingOracle


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]`` on the real line (possibly empty).

    Used by the interval/hyperbox learners; an empty interval is encoded as
    ``low > high``.
    """

    low: float
    high: float

    @property
    def empty(self) -> bool:
        """True iff the interval contains no points."""
        return self.low > self.high

    def contains(self, value: float, tol: float = 1e-12) -> bool:
        """Return True iff ``value`` lies inside the interval."""
        return (not self.empty) and (self.low - tol <= value <= self.high + tol)

    @property
    def width(self) -> float:
        """Length of the interval (0 for empty intervals)."""
        return 0.0 if self.empty else self.high - self.low


class BinarySearchIntervalLearner:
    """Learn a maximal interval of positively-labeled grid points.

    This is the one-dimensional core of the hyperbox learning algorithm of
    Section 5 (following Goldman & Kearns): given a grid, a membership
    oracle labeling grid points positive/negative, and a known positive
    *seed* point, find by binary search the largest interval of consecutive
    grid points around the seed that are all positive, i.e. the interval
    whose endpoints are positive and whose immediate outer neighbours are
    negative (or the grid boundary).

    The oracle is only assumed to describe a set that is an interval
    (convex on the grid) — exactly what the structure hypothesis of
    Section 5 guarantees for safe switching states under monotone
    intra-mode dynamics.
    """

    def __init__(self, grid: GridSpec, oracle: LabelingOracle[float, bool]):
        self.grid = grid
        self.oracle = oracle

    def _index(self, value: float) -> int:
        return int(round((value - self.grid.low) / self.grid.step))

    def _value(self, index: int) -> float:
        return min(self.grid.low + index * self.grid.step, self.grid.high)

    def learn(self, seed: float) -> Interval:
        """Return the maximal positive interval around ``seed``.

        Raises:
            InductionError: if ``seed`` itself is labeled negative (then the
                target interval, if any, does not contain the seed and the
                caller must pick another seed).
        """
        seed = self.grid.snap(seed)
        if not self.oracle.label(seed):
            raise InductionError(f"seed point {seed} is labeled negative")
        lower = self._search_boundary(self._index(seed), direction=-1)
        upper = self._search_boundary(self._index(seed), direction=+1)
        return Interval(self._value(lower), self._value(upper))

    def _search_boundary(self, seed_index: int, direction: int) -> int:
        """Find the last positive index reachable from the seed in ``direction``.

        A galloping (exponential) search first walks outward from the seed
        with doubling stride until it finds a negative probe or hits the
        grid edge; a binary search then pins down the boundary inside the
        bracketing gap.  Compared with probing the grid edge directly, the
        gallop keeps the search anchored to the *contiguous* positive
        region around the seed, which is the region the structure
        hypothesis asserts is the target interval (and is what the paper's
        transmission guards correspond to when the raw safe set is not
        convex along an axis).
        """
        last_index = self.grid.num_points - 1
        edge = 0 if direction < 0 else last_index
        known_pos = seed_index
        if known_pos == edge:
            return edge
        # Gallop outward: known_pos stays the farthest positive probe seen.
        stride = 1
        first_neg: int | None = None
        while True:
            probe = known_pos + direction * stride
            if (direction > 0 and probe >= edge) or (direction < 0 and probe <= edge):
                probe = edge
            if self.oracle.label(self._value(probe)):
                known_pos = probe
                if probe == edge:
                    return edge
                stride *= 2
            else:
                first_neg = probe
                break
        # Binary search between the last positive and the first negative probe.
        low, high = (first_neg, known_pos) if direction < 0 else (known_pos, first_neg)
        # Invariant for direction=+1: low positive, high negative.
        # Invariant for direction=-1: low negative, high positive.
        while high - low > 1:
            mid = (low + high) // 2
            if self.oracle.label(self._value(mid)):
                if direction > 0:
                    low = mid
                else:
                    high = mid
            else:
                if direction > 0:
                    high = mid
                else:
                    low = mid
        return low if direction > 0 else high
