"""Tests for the compiler, ISA, processor, and measurement harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompilationError, SimulationError
from repro.cfg import (
    absolute_difference,
    bounded_linear_search,
    conditional_cascade,
    figure4_toy,
    modular_exponentiation,
    run_program,
    saturating_add,
)
from repro.platform import (
    Binary,
    CacheConfig,
    Instruction,
    MeasurementHarness,
    Opcode,
    PerturbationModel,
    PlatformConfig,
    Processor,
    TimingOracle,
    compile_program,
    validate_binary,
)

ALL_PROGRAMS = [
    figure4_toy(),
    modular_exponentiation(4, 16),
    conditional_cascade(3),
    saturating_add(),
    absolute_difference(),
    bounded_linear_search(3),
]


class TestCompiler:
    @pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
    def test_binary_is_wellformed(self, program):
        binary = compile_program(program)
        validate_binary(binary)
        assert binary.instructions[-1].opcode is Opcode.HALT
        assert set(binary.parameters) <= set(binary.variable_addresses)

    def test_listing_renders_every_instruction(self):
        binary = compile_program(absolute_difference())
        listing = binary.listing()
        assert len(listing.splitlines()) == len(binary) + 1
        assert "halt" in listing

    def test_variable_spacing(self):
        binary = compile_program(saturating_add(), variable_spacing=4, base_address=32)
        addresses = sorted(binary.variable_addresses.values())
        assert addresses[0] == 32
        assert all(b - a == 4 for a, b in zip(addresses, addresses[1:]))

    def test_unknown_variable_address_rejected(self):
        binary = compile_program(saturating_add())
        with pytest.raises(CompilationError):
            binary.address_of("nonexistent")

    def test_invalid_branch_target_detected(self):
        binary = Binary(
            name="broken",
            instructions=[Instruction(Opcode.JUMP, target=99)],
            variable_addresses={},
            parameters=(),
            outputs=(),
            word_width=8,
            num_registers=1,
        )
        with pytest.raises(CompilationError):
            validate_binary(binary)


class TestProcessorFunctionalEquivalence:
    @pytest.mark.parametrize("program", ALL_PROGRAMS, ids=lambda p: p.name)
    def test_outputs_match_interpreter(self, program):
        binary = compile_program(program)
        processor = Processor()
        mask = (1 << program.word_width) - 1
        for index in range(6):
            inputs = {
                name: (31 * (index + 2) * (j + 1) + 7) & mask
                for j, name in enumerate(program.parameters)
            }
            expected = run_program(program, inputs)
            processor.flush_caches()
            result = processor.run(binary, inputs)
            for variable in binary.outputs:
                assert result.outputs[variable] == expected[variable]

    @settings(max_examples=20, deadline=None)
    @given(base=st.integers(min_value=0, max_value=0xFFFF), exponent=st.integers(min_value=0, max_value=15))
    def test_modexp_on_platform(self, base, exponent):
        program = modular_exponentiation(4, 16)
        binary = compile_program(program)
        processor = Processor()
        processor.flush_caches()
        result = processor.run(binary, {"base": base, "exponent": exponent})
        assert result.outputs["result"] == pow(base, exponent, 1 << 16)

    def test_missing_input_rejected(self):
        binary = compile_program(saturating_add())
        with pytest.raises(SimulationError):
            Processor().run(binary, {"a": 1})

    def test_runaway_loop_guard(self):
        config = PlatformConfig(max_instructions=10)
        binary = compile_program(modular_exponentiation(4, 16))
        with pytest.raises(SimulationError):
            Processor(config).run(binary, {"base": 2, "exponent": 3})


class TestTiming:
    def test_determinism_from_cold_state(self):
        harness = MeasurementHarness.from_program(modular_exponentiation(6, 16))
        first = harness.measure({"base": 5, "exponent": 33})
        second = harness.measure({"base": 5, "exponent": 33})
        assert first == second

    def test_more_set_bits_takes_longer(self):
        harness = MeasurementHarness.from_program(modular_exponentiation(8, 16))
        sparse = harness.measure({"base": 3, "exponent": 1})
        dense = harness.measure({"base": 3, "exponent": 255})
        assert dense > sparse

    def test_warm_start_is_faster(self):
        program = modular_exponentiation(6, 16)
        cold = MeasurementHarness.from_program(program, start_state="cold")
        warm = MeasurementHarness.from_program(program, start_state="warm")
        inputs = {"base": 3, "exponent": 21}
        assert warm.measure(inputs) < cold.measure(inputs)

    @pytest.mark.parametrize("start_state", ["snapshot", "hot", 7])
    def test_unknown_start_state_rejected(self, start_state):
        with pytest.raises(SimulationError, match="'cold' or 'warm'"):
            MeasurementHarness.from_program(saturating_add(), start_state=start_state)

    def test_cache_misses_reported(self):
        harness = MeasurementHarness.from_program(saturating_add())
        result = harness.run({"a": 1, "b": 2})
        assert result.dcache_misses > 0
        assert result.icache_misses > 0

    def test_perturbation_changes_measurements_but_not_outputs(self):
        program = saturating_add()
        noisy = MeasurementHarness.from_program(
            program, perturbation=PerturbationModel(mean=20.0, seed=1)
        )
        clean = MeasurementHarness.from_program(program)
        inputs = {"a": 10, "b": 20}
        noisy_samples = noisy.measure_repeated(inputs, trials=10)
        assert len(set(noisy_samples)) > 1
        assert min(noisy_samples) >= clean.measure(inputs)
        assert noisy.outputs(inputs) == clean.outputs(inputs)

    def test_perturbation_mean_is_bounded(self):
        model = PerturbationModel(mean=15.0, seed=3)
        samples = [model.sample() for _ in range(2000)]
        assert 0 <= min(samples)
        assert max(samples) <= 30
        assert abs(sum(samples) / len(samples) - 15.0) < 1.5

    def test_timing_oracle_counts_queries(self):
        harness = MeasurementHarness.from_program(saturating_add())
        oracle = TimingOracle(harness)
        oracle.label({"a": 1, "b": 2})
        oracle.label({"a": 3, "b": 4})
        assert oracle.query_count == 2

    def test_invalid_trials_rejected(self):
        harness = MeasurementHarness.from_program(saturating_add())
        with pytest.raises(SimulationError):
            harness.measure_repeated({"a": 1, "b": 2}, trials=0)

    def test_custom_platform_config_changes_timing(self):
        program = modular_exponentiation(4, 16)
        slow_config = PlatformConfig(
            data_cache=CacheConfig(line_size_words=1, num_sets=1, associativity=1,
                                   hit_latency=0, miss_penalty=50),
        )
        slow = MeasurementHarness.from_program(program, platform=slow_config)
        fast = MeasurementHarness.from_program(program)
        inputs = {"base": 2, "exponent": 9}
        assert slow.measure(inputs) > fast.measure(inputs)
