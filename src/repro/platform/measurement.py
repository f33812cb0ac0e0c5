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
  game-theoretic averaging in the learner becomes observable;
* :class:`MeasurementMemo` — a bounded LRU of cycle counts keyed by what
  a run depends on.  The simulator is deterministic from a fixed starting
  state, so without perturbation a repeated (binary, platform, start
  state, inputs) run tells nothing new; a harness given a memo runs the
  simulator only on a miss.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from repro.analysis.annotations import guarded_by
from repro.core.exceptions import SimulationError
from repro.core.oracle import LabelingOracle
from repro.platform.compiler import compile_program
from repro.platform.isa import Binary
from repro.platform.processor import PlatformConfig, Processor, RunResult

StartState = Literal["cold", "warm"]

#: Entry bound of a :class:`MeasurementMemo`.  One engine owns one memo;
#: over 240 jobs of the ``gametime-sweep`` stream a 512-entry LRU already
#: keeps every hit.
MEASUREMENT_MEMO_CAPACITY = 1024


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


def binary_digest(binary: Binary) -> str:
    """Content digest of everything in ``binary`` a run depends on.

    Covers the instructions, the variable addresses in layout order (the
    warm start loads them in that order), the parameters, the outputs,
    the word width and the register count; not the name.  Two separate
    compilations of one program get the same digest.
    """
    content = (
        tuple(binary.instructions),
        tuple(binary.variable_addresses.items()),
        binary.parameters,
        binary.outputs,
        binary.word_width,
        binary.num_registers,
    )
    return hashlib.blake2b(repr(content).encode(), digest_size=16).hexdigest()


@guarded_by("_lock", "_entries", "_lookups", "_hits", "_evictions")
class MeasurementMemo:
    """Bounded LRU of cycle counts, shared by every harness given it.

    A key is ``(binary digest, platform config, start state, inputs in
    parameter order)``.  The store is thread-safe, so an engine's
    statistics can be read while a job measures.

    Args:
        capacity: maximum number of entries; the least-recently-used
            entry is evicted past the bound.
    """

    def __init__(self, capacity: int = MEASUREMENT_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("measurement memo capacity must be at least 1")
        self._capacity = capacity
        self._entries: OrderedDict[tuple, int] = OrderedDict()
        self._lock = threading.Lock()
        self._lookups = 0
        self._hits = 0
        self._evictions = 0

    def lookup(self, key: tuple) -> int | None:
        """The stored cycle count for ``key`` (refreshing it), or None."""
        with self._lock:
            self._lookups += 1
            cycles = self._entries.get(key)
            if cycles is not None:
                self._hits += 1
                self._entries.move_to_end(key)
            return cycles

    def store(self, key: tuple, cycles: int) -> None:
        """Record the cycle count of one completed run."""
        with self._lock:
            self._entries[key] = cycles
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def statistics(self) -> dict:
        """JSON-ready counter snapshot (includes current size and bound)."""
        with self._lock:
            return {
                "lookups": self._lookups,
                "hits": self._hits,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "capacity": self._capacity,
            }


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
        memo: optional :class:`MeasurementMemo`; :meth:`measure` then runs
            the simulator only for a run the memo does not hold.  It is
            bypassed while ``perturbation`` is set, and :meth:`run` never
            consults it.

    Raises:
        SimulationError: for any other start state.
    """

    def __init__(
        self,
        binary: Binary,
        platform: PlatformConfig | None = None,
        start_state: StartState = "cold",
        perturbation: PerturbationModel | None = None,
        memo: MeasurementMemo | None = None,
    ):
        if start_state not in ("cold", "warm"):
            raise SimulationError(
                f"start state must be 'cold' or 'warm', got {start_state!r}"
            )
        self.binary = binary
        self.processor = Processor(platform)
        self.start_state = start_state
        self.perturbation = perturbation
        self.memo = memo
        # The part of every memo key this harness fixes, computed once.
        self._memo_prefix: tuple = (
            ()
            if memo is None
            else (binary_digest(binary), self.processor.config, start_state)
        )

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
        """The end-to-end cycle count of one run on ``inputs``.

        With a memo and no perturbation, a run the memo holds is answered
        from it; otherwise the simulator runs (and a completed run is
        stored).  A run that raises is never stored.
        """
        if self.memo is None or self.perturbation is not None:
            return self.run(inputs).cycles
        if isinstance(inputs, Mapping):
            if not all(name in inputs for name in self.binary.parameters):
                return self.run(inputs).cycles  # raises: a missing input
            values = tuple(inputs[name] for name in self.binary.parameters)
        else:
            values = tuple(inputs)
        key = (*self._memo_prefix, values)
        cycles = self.memo.lookup(key)
        if cycles is None:
            cycles = self.run(inputs).cycles
            self.memo.store(key, cycles)
        return cycles

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
    this is the oracle consumed by GameTime's inductive learner.  Its
    ``query_count`` counts the measurements asked for, not simulator runs:
    behind a :class:`MeasurementMemo` a repeated query is answered without
    running the simulator and still counts.
    """

    name = "platform-timing-oracle"

    def __init__(self, harness: MeasurementHarness):
        super().__init__()
        self.harness = harness

    def _label(self, example: dict[str, int]) -> int:
        return self.harness.measure(example)
