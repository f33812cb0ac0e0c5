"""Oracle interfaces used by inductive inference engines.

Section 2.2.2 of the paper notes that, in sciduction, examples and labels
are typically produced by *oracles* — deductive procedures, concrete
executions of a model, or even a human user.  Section 4 makes the oracle
view explicit: the obfuscated program itself is treated as an I/O oracle
mapping inputs to outputs, and the synthesis complexity is measured in
queries to that oracle.

This module defines the oracle interfaces shared by the applications:

* :class:`Oracle` — the generic query-counting base class,
* :class:`IOOracle` — maps an input to an output (Section 4),
* :class:`LabelingOracle` — maps an example to a boolean/score label
  (Section 5's safe/unsafe labels; Section 3's timing measurements),
* :class:`FunctionLabelingOracle` — a labeling oracle backed by a plain
  callable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Generic, TypeVar

InputT = TypeVar("InputT")
OutputT = TypeVar("OutputT")
ExampleT = TypeVar("ExampleT")
LabelT = TypeVar("LabelT")


class Oracle(ABC):
    """Base class for oracles: counts the queries asked of it.

    The query count is the complexity measure used throughout the paper's
    Section 4 ("synthesize the program using a small number of queries to
    the I/O oracle"), so every oracle in the package tracks it uniformly.
    """

    name: str = "oracle"

    def __init__(self) -> None:
        self.query_count = 0


class IOOracle(Oracle, Generic[InputT, OutputT]):
    """An oracle mapping a concrete input to the desired output.

    In the deobfuscation application the oracle is the obfuscated program
    itself: running it on an input yields the output any correct
    re-synthesized program must produce.
    """

    name = "io-oracle"

    @abstractmethod
    def _query(self, value: InputT) -> OutputT:
        """Compute the oracle's answer for ``value``."""

    def query(self, value: InputT) -> OutputT:
        """Return the oracle output for ``value`` (counts one query)."""
        self.query_count += 1
        return self._query(value)


class LabelingOracle(Oracle, Generic[ExampleT, LabelT]):
    """An oracle assigning a label to an example chosen by the learner.

    Section 5 uses a numerical simulator to label switching states as safe
    (positive) or unsafe (negative); Section 3 uses end-to-end execution on
    the platform to label a basis path with its measured execution time.
    """

    name = "labeling-oracle"

    @abstractmethod
    def _label(self, example: ExampleT) -> LabelT:
        """Compute the label of ``example``."""

    def label(self, example: ExampleT) -> LabelT:
        """Return the label of ``example`` (counts one query)."""
        self.query_count += 1
        return self._label(example)


class FunctionLabelingOracle(LabelingOracle[ExampleT, LabelT]):
    """A :class:`LabelingOracle` backed by a plain Python callable."""

    def __init__(
        self,
        func: Callable[[ExampleT], LabelT],
        name: str = "function-labeling-oracle",
    ):
        super().__init__()
        self._func = func
        self.name = name

    def _label(self, example: ExampleT) -> LabelT:
        return self._func(example)
