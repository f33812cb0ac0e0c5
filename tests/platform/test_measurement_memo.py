"""The measurement memo: cycle identity, keys, bound and bypass rules.

A harness given a :class:`MeasurementMemo` must report exactly the cycle
count the simulator would, whichever harness (or separate compilation)
stored the entry.  The memo is bypassed under perturbation, keeps
separate entries for every start state and platform configuration,
evicts past its bound and never stores a run that raised.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.cfg import programs
from repro.core import SimulationError
from repro.platform import (
    CacheConfig,
    MeasurementHarness,
    MeasurementMemo,
    PerturbationModel,
    PlatformConfig,
    Processor,
    TimingOracle,
    compile_program,
)
from repro.platform.measurement import MEASUREMENT_MEMO_CAPACITY, binary_digest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from catalogue import GAMETIME_SHAPES  # noqa: E402

#: A non-default platform: a one-line D-cache with a large miss penalty.
SLOW_PLATFORM = PlatformConfig(
    data_cache=CacheConfig(
        line_size_words=1, num_sets=1, associativity=1, hit_latency=0, miss_penalty=50
    ),
)

SHAPES = sorted(
    {(program, tuple(sorted(args.items()))) for program, args, _ in GAMETIME_SHAPES}
)


def _plain_cycles(binary, platform, start_state, inputs) -> int:
    processor = Processor(platform)
    processor.flush_caches()
    if start_state == "warm":
        processor.warm_caches(binary)
    return processor.run(binary, inputs).cycles


def _inputs(binary, rng: random.Random, count: int = 4) -> list[dict[str, int]]:
    mask = (1 << binary.word_width) - 1
    return [
        {name: rng.randrange(mask + 1) for name in binary.parameters}
        for _ in range(count)
    ]


def test_memoized_cycles_equal_the_simulator_for_every_sweep_shape():
    # One memo under every shape, width, start state and platform, so a
    # key that left out any of them would answer from another's entry.
    memo = MeasurementMemo()
    rng = random.Random(7)
    checked = 0
    for program, args in SHAPES:
        factory = getattr(programs, program)
        for width in (16, 17):
            cases = _inputs(compile_program(factory(word_width=width, **dict(args))), rng)
            for platform in (None, SLOW_PLATFORM):
                for start_state in ("cold", "warm"):
                    # Each harness compiles its own binary, as each job does.
                    harness = MeasurementHarness(
                        compile_program(factory(word_width=width, **dict(args))),
                        platform=platform,
                        start_state=start_state,
                        memo=memo,
                    )
                    for inputs in cases:
                        expected = _plain_cycles(
                            harness.binary, platform, start_state, inputs
                        )
                        assert harness.measure(inputs) == expected
                        hits = memo.statistics()["hits"]
                        assert harness.measure(inputs) == expected
                        assert memo.statistics()["hits"] == hits + 1
                        checked += 1
    assert checked == len(SHAPES) * 2 * 2 * 2 * 4


def test_separate_compilations_share_entries_by_content():
    first = compile_program(programs.saturating_add())
    second = compile_program(programs.saturating_add())
    assert first is not second
    assert binary_digest(first) == binary_digest(second)
    assert binary_digest(first) != binary_digest(
        compile_program(programs.saturating_add(word_width=8))
    )
    memo = MeasurementMemo()
    MeasurementHarness(first, memo=memo).measure({"a": 3, "b": 4})
    MeasurementHarness(second, memo=memo).measure([3, 4])
    assert memo.statistics() == {
        "lookups": 2, "hits": 1, "evictions": 0, "entries": 1,
        "capacity": MEASUREMENT_MEMO_CAPACITY,
    }


def test_perturbation_bypasses_the_memo():
    memo = MeasurementMemo()
    noisy = MeasurementHarness.from_program(
        programs.saturating_add(),
        perturbation=PerturbationModel(mean=20.0, seed=1),
        memo=memo,
    )
    samples = noisy.measure_repeated({"a": 10, "b": 20}, trials=10)
    assert len(set(samples)) > 1
    assert memo.statistics()["lookups"] == 0
    assert memo.statistics()["entries"] == 0


def test_start_states_and_platforms_get_separate_entries():
    memo = MeasurementMemo()
    program = programs.modular_exponentiation(4, 16)
    inputs = {"base": 2, "exponent": 9}
    cold = MeasurementHarness.from_program(program, start_state="cold", memo=memo)
    warm = MeasurementHarness.from_program(program, start_state="warm", memo=memo)
    slow = MeasurementHarness.from_program(program, platform=SLOW_PLATFORM, memo=memo)
    cold_cycles, warm_cycles, slow_cycles = (
        harness.measure(inputs) for harness in (cold, warm, slow)
    )
    assert warm_cycles < cold_cycles < slow_cycles
    statistics = memo.statistics()
    assert statistics["entries"] == 3
    assert statistics["hits"] == 0


def test_lru_evicts_past_its_bound():
    memo = MeasurementMemo(capacity=2)
    harness = MeasurementHarness.from_program(programs.saturating_add(), memo=memo)
    harness.measure([1, 1])
    harness.measure([2, 2])
    harness.measure([1, 1])  # refreshes [1, 1]; [2, 2] is now least recent
    harness.measure([3, 3])  # evicts [2, 2]
    statistics = memo.statistics()
    assert statistics["entries"] == 2
    assert statistics["evictions"] == 1
    assert statistics["hits"] == 1
    harness.measure([1, 1])
    assert memo.statistics()["hits"] == 2
    harness.measure([2, 2])
    assert memo.statistics()["hits"] == 2
    assert memo.statistics()["evictions"] == 2
    with pytest.raises(ValueError):
        MeasurementMemo(capacity=0)


def test_a_raising_run_is_not_stored():
    memo = MeasurementMemo()
    runaway = MeasurementHarness.from_program(
        programs.modular_exponentiation(4, 16),
        platform=PlatformConfig(max_instructions=5),
        memo=memo,
    )
    for _ in range(2):
        with pytest.raises(SimulationError, match="instruction budget"):
            runaway.measure({"base": 2, "exponent": 9})
    harness = MeasurementHarness.from_program(programs.saturating_add(), memo=memo)
    with pytest.raises(SimulationError, match="missing input"):
        harness.measure({"a": 1})
    with pytest.raises(SimulationError, match="expected 2 inputs"):
        harness.measure([1, 2, 3])
    statistics = memo.statistics()
    assert statistics["entries"] == 0
    assert statistics["hits"] == 0


def test_timing_oracle_counts_queries_not_simulator_runs():
    memo = MeasurementMemo()
    oracle = TimingOracle(
        MeasurementHarness.from_program(programs.saturating_add(), memo=memo)
    )
    for _ in range(3):
        oracle.label({"a": 1, "b": 2})
    assert oracle.query_count == 3
    assert memo.statistics()["hits"] == 2
