"""End-to-end timing measurement harness.

GameTime's only interface to the platform is the ability to run the
program on a chosen input and record the end-to-end execution time
(paper Section 3.2: "GAMETIME only requires one to run end-to-end
measurements on the target platform").  This module packages that
interface:

* :class:`MeasurementHarness` — compiles-once, runs-many; resets the
  environment to a cold or warm start before every measurement, so each
  one starts from the *fixed starting state of E* required by the problem
  statement ⟨TA⟩;
* :class:`PerturbationModel` — optional bounded stochastic noise added to
  each measurement, modelling the path-dependent perturbation π of the
  paper's weight-perturbation structure hypothesis (mean bounded by
  ``mu_max``); with it the platform behaves like a noisy adversary and the
  game-theoretic averaging in the learner becomes observable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from repro.core.exceptions import SimulationError
from repro.core.oracle import LabelingOracle
from repro.platform.compiler import compile_program
from repro.platform.isa import Binary
from repro.platform.processor import PlatformConfig, Processor, RunResult

StartState = Literal["cold", "warm"]


@dataclass
class PerturbationModel:
    """Bounded non-negative measurement noise with known mean bound.

    The paper's structure hypothesis for timing analysis bounds the *mean*
    perturbation along any path by ``mu_max``.  This model draws an extra
    cycle count uniformly from ``[0, 2 * mean]`` (so the mean is ``mean``)
    and therefore satisfies the hypothesis whenever ``mean <= mu_max``.

    Attributes:
        mean: mean extra cycles per measurement.
        seed: RNG seed (measurements are reproducible for a fixed seed).
    """

    mean: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.mean < math.inf:
            raise SimulationError(
                f"perturbation mean must be finite and non-negative, got {self.mean!r}"
            )
        self._rng = random.Random(self.seed)

    def sample(self) -> int:
        """Draw one perturbation (non-negative integer cycle count)."""
        if self.mean == 0:
            return 0
        return int(round(self._rng.uniform(0.0, 2.0 * self.mean)))


class MeasurementHarness:
    """Runs a compiled task on the platform and reports cycle counts.

    Args:
        binary: the compiled program (use :func:`from_program` to compile
            and wrap in one step).
        platform: processor configuration (defaults mirror a small
            StrongARM-class core).
        start_state: environment state set before every measurement —
            ``"cold"`` (flushed caches, the paper's experimental setting)
            or ``"warm"`` (flushed, then the program footprint pre-loaded).
        perturbation: optional measurement noise model.

    Raises:
        SimulationError: for any other start state.
    """

    def __init__(
        self,
        binary: Binary,
        platform: PlatformConfig | None = None,
        start_state: StartState = "cold",
        perturbation: PerturbationModel | None = None,
    ):
        if start_state not in ("cold", "warm"):
            raise SimulationError(
                f"start state must be 'cold' or 'warm', got {start_state!r}"
            )
        self.binary = binary
        self.processor = Processor(platform)
        self.start_state = start_state
        self.perturbation = perturbation
        self.measurements_taken = 0

    @classmethod
    def from_program(cls, program, **kwargs) -> "MeasurementHarness":
        """Compile ``program`` and build a harness for it."""
        return cls(compile_program(program), **kwargs)

    # -- environment control -------------------------------------------------

    def _prepare_environment(self) -> None:
        self.processor.flush_caches()
        if self.start_state == "warm":
            self.processor.warm_caches(self.binary)

    # -- measurement ----------------------------------------------------------

    def run(self, inputs: Mapping[str, int] | Sequence[int]) -> RunResult:
        """Run once from the configured start state; return the full result."""
        self._prepare_environment()
        result = self.processor.run(self.binary, inputs)
        self.measurements_taken += 1
        if self.perturbation is not None:
            extra = self.perturbation.sample()
            result = RunResult(
                cycles=result.cycles + extra,
                instructions_executed=result.instructions_executed,
                final_memory=result.final_memory,
                outputs=result.outputs,
                icache_misses=result.icache_misses,
                dcache_misses=result.dcache_misses,
            )
        return result

    def measure(self, inputs: Mapping[str, int] | Sequence[int]) -> int:
        """Run once and return only the end-to-end cycle count."""
        return self.run(inputs).cycles

    def measure_repeated(
        self, inputs: Mapping[str, int] | Sequence[int], trials: int
    ) -> list[int]:
        """Measure the same input ``trials`` times (noise makes them differ)."""
        if trials <= 0:
            raise SimulationError("number of trials must be positive")
        return [self.measure(inputs) for _ in range(trials)]

    def outputs(self, inputs: Mapping[str, int] | Sequence[int]) -> dict[str, int]:
        """Functional outputs of one run (used to validate the tool-chain)."""
        return self.run(inputs).outputs


class TimingOracle(LabelingOracle[dict[str, int], int]):
    """A :class:`~repro.core.oracle.LabelingOracle` over the harness.

    Labels a test case (an input valuation) with its measured cycle count;
    this is the oracle consumed by GameTime's inductive learner.
    """

    name = "platform-timing-oracle"

    def __init__(self, harness: MeasurementHarness):
        super().__init__()
        self.harness = harness

    def _label(self, example: dict[str, int]) -> int:
        return self.harness.measure(example)
