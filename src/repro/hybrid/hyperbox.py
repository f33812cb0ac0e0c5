"""Hyperboxes on a discrete grid (the structure hypothesis of Section 5).

The switching-logic synthesis structure hypothesis restricts transition
guards to axis-aligned hyperboxes whose vertices lie on a known discrete
grid — equivalently, conjunctions of interval constraints with
finite-precision constants.  This module provides the hyperbox type used
for guards, together with the grid bookkeeping shared by the learner and
the synthesizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.exceptions import StructureHypothesisError
from repro.core.hypothesis import GridSpec, StructureHypothesis
from repro.core.inductive import Interval


@dataclass(frozen=True)
class Hyperbox:
    """An axis-aligned box: one closed interval per named dimension.

    An empty interval on any dimension makes the whole box empty.
    """

    intervals: tuple[tuple[str, Interval], ...]

    @classmethod
    def from_bounds(cls, bounds: Mapping[str, tuple[float, float]]) -> "Hyperbox":
        """Build a hyperbox from ``{dimension: (low, high)}``."""
        return cls(
            tuple((name, Interval(low, high)) for name, (low, high) in bounds.items())
        )

    @classmethod
    def point(cls, values: Mapping[str, float]) -> "Hyperbox":
        """A degenerate box containing exactly one point."""
        return cls.from_bounds({name: (value, value) for name, value in values.items()})

    # -- accessors --------------------------------------------------------

    @property
    def dimensions(self) -> tuple[str, ...]:
        """Dimension names, in declaration order."""
        return tuple(name for name, _ in self.intervals)

    def interval(self, dimension: str) -> Interval:
        """The interval of ``dimension``.

        Raises:
            KeyError: when the dimension is absent.
        """
        for name, interval in self.intervals:
            if name == dimension:
                return interval
        raise KeyError(dimension)

    @property
    def is_empty(self) -> bool:
        """True iff the box contains no points."""
        return any(interval.empty for _, interval in self.intervals)

    def volume(self) -> float:
        """Product of interval widths (0 for empty or degenerate boxes)."""
        if self.is_empty:
            return 0.0
        result = 1.0
        for _, interval in self.intervals:
            result *= interval.width
        return result

    # -- membership and algebra ------------------------------------------------

    def contains(self, point: Mapping[str, float], tol: float = 1e-9) -> bool:
        """True iff ``point`` (a name→value mapping) lies in the box."""
        if self.is_empty:
            return False
        for name, interval in self.intervals:
            if name not in point:
                raise StructureHypothesisError(f"point is missing dimension {name!r}")
            if not (interval.low - tol <= point[name] <= interval.high + tol):
                return False
        return True

    def contains_vector(
        self, vector: Sequence[float], order: Sequence[str], tol: float = 1e-9
    ) -> bool:
        """Membership test for a state vector given the dimension order."""
        return self.contains(dict(zip(order, vector)), tol=tol)

    def intersect(self, other: "Hyperbox") -> "Hyperbox":
        """Intersection with another box over the same dimensions."""
        if self.dimensions != other.dimensions:
            raise StructureHypothesisError("cannot intersect boxes over different dimensions")
        intervals = []
        for (name, mine), (_, theirs) in zip(self.intervals, other.intervals):
            intervals.append(
                (name, Interval(max(mine.low, theirs.low), min(mine.high, theirs.high)))
            )
        return Hyperbox(tuple(intervals))

    def equals(self, other: "Hyperbox", tol: float = 1e-9) -> bool:
        """Approximate equality (used to detect fixpoints)."""
        if self.dimensions != other.dimensions:
            return False
        if self.is_empty and other.is_empty:
            return True
        for (name, mine), (_, theirs) in zip(self.intervals, other.intervals):
            if abs(mine.low - theirs.low) > tol or abs(mine.high - theirs.high) > tol:
                return False
        return True

    def center(self) -> dict[str, float]:
        """The centre point of the box."""
        if self.is_empty:
            raise StructureHypothesisError("empty box has no centre")
        return {
            name: (interval.low + interval.high) / 2.0
            for name, interval in self.intervals
        }

    def corners(self) -> Iterator[dict[str, float]]:
        """Iterate over the 2^n corner points."""
        if self.is_empty:
            return
        names = self.dimensions
        choices = [(interval.low, interval.high) for _, interval in self.intervals]
        total = 1 << len(names)
        for index in range(total):
            yield {
                name: choices[position][(index >> position) & 1]
                for position, name in enumerate(names)
            }

    def snapped(self, grids: Mapping[str, GridSpec]) -> "Hyperbox":
        """Snap every endpoint to its dimension's grid."""
        intervals = []
        for name, interval in self.intervals:
            grid = grids[name]
            if interval.empty:
                intervals.append((name, interval))
            else:
                intervals.append(
                    (name, Interval(grid.snap(interval.low), grid.snap(interval.high)))
                )
        return Hyperbox(tuple(intervals))

    def describe(self, precision: int = 2) -> str:
        """Compact human-readable rendering, e.g. ``0.00 <= omega <= 16.70``."""
        if self.is_empty:
            return "(empty)"
        pieces = []
        for name, interval in self.intervals:
            if abs(interval.width) < 10 ** (-precision) / 2:
                pieces.append(f"{name} = {interval.low:.{precision}f}")
            else:
                pieces.append(
                    f"{interval.low:.{precision}f} <= {name} <= {interval.high:.{precision}f}"
                )
        return " and ".join(pieces)


class HyperboxHypothesis(StructureHypothesis[Hyperbox]):
    """Structure hypothesis: guards are hyperboxes with grid-aligned vertices."""

    name = "hyperbox-guards-on-grid"

    def __init__(self, grids: Mapping[str, GridSpec]):
        self.grids = dict(grids)

    def contains(self, artifact: Hyperbox) -> bool:
        if artifact.is_empty:
            return True
        if set(artifact.dimensions) != set(self.grids):
            return False
        for name, interval in artifact.intervals:
            grid = self.grids[name]
            if not grid.contains(interval.low, tol=1e-6) or not grid.contains(
                interval.high, tol=1e-6
            ):
                return False
        return True

    def is_strict_restriction(self) -> bool | None:
        # Arbitrary regions of R^n are allowed in the unconstrained class.
        return True

    def describe(self) -> str:
        axes = ", ".join(
            f"{name}: [{grid.low}, {grid.high}] step {grid.step}"
            for name, grid in self.grids.items()
        )
        return f"hyperboxes with vertices on the grid ({axes})"


def bounding_box(
    points: Sequence[Mapping[str, float]], dimensions: Sequence[str]
) -> Hyperbox:
    """Smallest hyperbox containing ``points`` (used by the sampling baseline)."""
    if not points:
        return Hyperbox(tuple((name, Interval(1.0, 0.0)) for name in dimensions))
    lows = {name: min(point[name] for point in points) for name in dimensions}
    highs = {name: max(point[name] for point in points) for name in dimensions}
    return Hyperbox.from_bounds({name: (lows[name], highs[name]) for name in dimensions})
