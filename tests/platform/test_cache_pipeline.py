"""Tests for the cache model and the processor's pipeline timing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationError
from repro.platform import (
    Binary,
    Cache,
    CacheConfig,
    Instruction,
    Opcode,
    PerturbationModel,
    PipelineConfig,
    PlatformConfig,
    Processor,
)


class TestCacheConfig:
    def test_capacity(self):
        config = CacheConfig(line_size_words=4, num_sets=8, associativity=2)
        assert config.capacity_words == 64

    def test_geometry_validation(self):
        with pytest.raises(SimulationError):
            CacheConfig(line_size_words=3)
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=0)
        with pytest.raises(SimulationError):
            CacheConfig(miss_penalty=-1)


class TestCacheBehaviour:
    def _small_cache(self):
        return Cache(CacheConfig(line_size_words=2, num_sets=2, associativity=1,
                                 hit_latency=1, miss_penalty=10))

    def test_cold_miss_then_hit(self):
        cache = self._small_cache()
        assert cache.access(0) == 11   # miss
        assert cache.access(1) == 1    # same line: hit
        assert cache.statistics.misses == 1
        assert cache.statistics.hits == 1

    def test_conflict_eviction_direct_mapped(self):
        cache = self._small_cache()
        cache.access(0)      # set 0
        cache.access(4)      # also set 0 (line 2 -> set 0): evicts line 0
        assert cache.access(0) == 11  # miss again

    def test_lru_within_set(self):
        cache = Cache(CacheConfig(line_size_words=1, num_sets=1, associativity=2,
                                  hit_latency=0, miss_penalty=5))
        cache.access(0)
        cache.access(1)
        cache.access(0)      # refresh line 0
        cache.access(2)      # evicts line 1 (LRU)
        assert cache.access(0) == 0
        assert cache.access(1) == 5

    def test_flush_and_warm(self):
        cache = self._small_cache()
        cache.access(0)
        cache.flush()
        assert not cache.probe(0)
        cache.warm([0, 2])
        assert cache.probe(0) and cache.probe(2)

    def test_negative_address_rejected(self):
        with pytest.raises(SimulationError):
            self._small_cache().access(-1)

    def test_hit_rate(self):
        cache = self._small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.statistics.hit_rate == pytest.approx(0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=60))
    def test_determinism(self, addresses):
        first = Cache(CacheConfig(line_size_words=2, num_sets=4, associativity=2))
        second = Cache(CacheConfig(line_size_words=2, num_sets=4, associativity=2))
        costs_first = [first.access(a) for a in addresses]
        costs_second = [second.access(a) for a in addresses]
        assert costs_first == costs_second
        assert first.snapshot() == second.snapshot()


def _binary(*instructions):
    """A hand-built binary with one input ``x`` at data address 0."""
    return Binary(
        name="hand-built",
        instructions=list(instructions),
        variable_addresses={"x": 0},
        parameters=("x",),
        outputs=(),
        word_width=8,
        num_registers=4,
    )


def _processor(pipeline, max_instructions=1_000):
    """A processor whose caches cost nothing, so cycles are pipeline cycles."""
    free = CacheConfig(hit_latency=0, miss_penalty=0)
    return Processor(PlatformConfig(
        instruction_cache=free, data_cache=free, pipeline=pipeline,
        max_instructions=max_instructions,
    ))


class TestPipelineTiming:
    def test_base_and_multiply_cost(self):
        processor = _processor(PipelineConfig(base_cost=1, multiply_extra=3))
        operands = [Instruction(Opcode.LOADI, rd=1, immediate=3),
                    Instruction(Opcode.LOADI, rd=2, immediate=5)]
        add = _binary(*operands, Instruction(Opcode.ADD, rd=0, ra=1, rb=2), Instruction(Opcode.HALT))
        mul = _binary(*operands, Instruction(Opcode.MUL, rd=0, ra=1, rb=2), Instruction(Opcode.HALT))
        assert processor.run(add, {"x": 0}).cycles == 4
        assert processor.run(mul, {"x": 0}).cycles == 4 + 3
        # HALT is charged the base cost.
        halt = _binary(Instruction(Opcode.HALT))
        assert _processor(PipelineConfig(base_cost=2)).run(halt, {"x": 0}).cycles == 2

    def test_load_use_stall_only_when_dependent(self):
        processor = _processor(PipelineConfig(load_use_stall=2))
        load = Instruction(Opcode.LOAD, rd=3, address=0)
        dependent = _binary(load, Instruction(Opcode.ADD, rd=0, ra=3, rb=3), Instruction(Opcode.HALT))
        independent = _binary(load, Instruction(Opcode.ADD, rd=0, ra=1, rb=2), Instruction(Opcode.HALT))
        # Only the instruction right after the load can stall.
        later = _binary(load, Instruction(Opcode.LOADI, rd=1, immediate=0),
                        Instruction(Opcode.ADD, rd=0, ra=3, rb=3), Instruction(Opcode.HALT))
        assert processor.run(dependent, {"x": 0}).cycles == 3 + 2
        assert processor.run(independent, {"x": 0}).cycles == 3
        assert processor.run(later, {"x": 0}).cycles == 4

    def test_branch_penalty_only_when_taken(self):
        processor = _processor(PipelineConfig(load_use_stall=0, taken_branch_penalty=2))
        binary = _binary(
            Instruction(Opcode.LOAD, rd=1, address=0),
            Instruction(Opcode.BEQZ, rd=1, target=3),
            Instruction(Opcode.LOADI, rd=2, immediate=1),
            Instruction(Opcode.HALT),
        )
        taken = processor.run(binary, {"x": 0})
        not_taken = processor.run(binary, {"x": 1})
        assert (taken.instructions_executed, taken.cycles) == (3, 3 + 2)
        assert (not_taken.instructions_executed, not_taken.cycles) == (4, 4)

    def test_no_stall_carried_into_the_next_run(self):
        processor = _processor(PipelineConfig(load_use_stall=5), max_instructions=2)
        load = Instruction(Opcode.LOAD, rd=3, address=0)
        # Runs out of budget right after a load ...
        with pytest.raises(SimulationError):
            processor.run(_binary(load, load, Instruction(Opcode.HALT)), {"x": 0})
        # ... and the next run's first instruction, which reads the
        # loaded register, does not stall.
        reader = _binary(Instruction(Opcode.ADD, rd=0, ra=3, rb=3), Instruction(Opcode.HALT))
        assert processor.run(reader, {"x": 0}).cycles == 2
        assert processor.run(reader, {"x": 0}).cycles == 2


class TestPlatformConfigValidation:
    @pytest.mark.parametrize("field", ["base_cost", "multiply_extra", "load_use_stall",
                                       "taken_branch_penalty"])
    @pytest.mark.parametrize("value", [-3, True, 1.5, None])
    def test_pipeline_fields_must_be_non_negative_integers(self, field, value):
        with pytest.raises(SimulationError, match=field):
            PipelineConfig(**{field: value})

    def test_zero_pipeline_costs_are_accepted(self):
        PipelineConfig(base_cost=0, multiply_extra=0, load_use_stall=0, taken_branch_penalty=0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -1.0])
    def test_perturbation_mean_must_be_finite_and_non_negative(self, mean):
        with pytest.raises(SimulationError, match="finite and non-negative"):
            PerturbationModel(mean=mean)
