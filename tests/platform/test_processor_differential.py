"""Cycle identity of ``Processor.run`` against a reference simulator.

The reference below is the simulator as it stood before the run loop was
decoded: a per-instruction ``_alu`` if-chain and a stateful pipeline
model charged once per retired instruction.  It is kept here, verbatim
apart from two constants (``HALT`` costs ``base_cost``; shifts have no
extra cost, both as every caller configured them), so every field of
every ``RunResult`` can be compared over the benchmark's timing programs.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import pytest

from repro.cfg import programs
from repro.core import SimulationError
from repro.platform import (
    Binary,
    Cache,
    CacheConfig,
    Instruction,
    Opcode,
    PipelineConfig,
    PlatformConfig,
    Processor,
    RunResult,
    compile_program,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
from catalogue import GAMETIME_SHAPES  # noqa: E402

INSTRUCTION_BASE_ADDRESS = 4096


# -- reference simulator -------------------------------------------------------


@dataclass
class _ReferenceState:
    pending_load_register: int | None = None


class _ReferencePipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.state = _ReferenceState()

    def reset(self) -> None:
        self.state = _ReferenceState()

    def cost(self, instruction: Instruction, branch_taken: bool = False) -> int:
        config = self.config
        if instruction.opcode is Opcode.HALT:
            self.state.pending_load_register = None
            return config.base_cost  # the HALT cost every caller set
        cycles = config.base_cost
        if instruction.opcode is Opcode.MUL:
            cycles += config.multiply_extra
        elif instruction.opcode in {Opcode.SHL, Opcode.SHR}:
            cycles += 0  # the shift cost every caller set
        if (
            self.state.pending_load_register is not None
            and self.state.pending_load_register in instruction.reads()
        ):
            cycles += config.load_use_stall
        if instruction.is_branch() and branch_taken:
            cycles += config.taken_branch_penalty
        self.state.pending_load_register = (
            instruction.rd if instruction.opcode is Opcode.LOAD else None
        )
        return cycles


class _ReferenceProcessor:
    def __init__(self, config: PlatformConfig):
        self.config = config
        self.instruction_cache = Cache(config.instruction_cache)
        self.data_cache = Cache(config.data_cache)
        self.pipeline = _ReferencePipeline(config.pipeline)

    def start(self, binary: Binary, start_state: str) -> None:
        self.instruction_cache.flush()
        self.data_cache.flush()
        if start_state == "warm":
            self.instruction_cache.warm(
                INSTRUCTION_BASE_ADDRESS + index for index in range(len(binary.instructions))
            )
            self.data_cache.warm(binary.variable_addresses.values())

    def run(self, binary: Binary, inputs: Mapping[str, int] | Sequence[int]) -> RunResult:
        if not isinstance(inputs, Mapping):
            inputs = dict(zip(binary.parameters, inputs))
        mask = (1 << binary.word_width) - 1
        memory = {address: 0 for address in binary.variable_addresses.values()}
        for name in binary.parameters:
            memory[binary.variable_addresses[name]] = inputs[name] & mask
        registers = [0] * max(binary.num_registers, 1)
        self.pipeline.reset()
        icache_misses_before = self.instruction_cache.statistics.misses
        dcache_misses_before = self.data_cache.statistics.misses

        cycles = 0
        executed = 0
        program_counter = 0
        while True:
            if executed >= self.config.max_instructions:
                raise SimulationError("instruction budget exceeded (runaway loop?)")
            if program_counter < 0 or program_counter >= len(binary.instructions):
                raise SimulationError(f"program counter out of range: {program_counter}")
            instruction = binary.instructions[program_counter]
            cycles += self.instruction_cache.access(INSTRUCTION_BASE_ADDRESS + program_counter)
            executed += 1
            next_pc = program_counter + 1
            branch_taken = False
            opcode = instruction.opcode

            if opcode is Opcode.HALT:
                cycles += self.pipeline.cost(instruction)
                break
            if opcode is Opcode.LOADI:
                registers[instruction.rd] = instruction.immediate & mask
            elif opcode is Opcode.LOAD:
                cycles += self.data_cache.access(instruction.address)
                registers[instruction.rd] = memory.get(instruction.address, 0)
            elif opcode is Opcode.STORE:
                cycles += self.data_cache.access(instruction.address)
                memory[instruction.address] = registers[instruction.rd] & mask
            elif opcode is Opcode.MOVE:
                registers[instruction.rd] = registers[instruction.ra]
            elif opcode is Opcode.NOT:
                registers[instruction.rd] = (~registers[instruction.ra]) & mask
            elif opcode is Opcode.NEG:
                registers[instruction.rd] = (-registers[instruction.ra]) & mask
            elif opcode in {Opcode.BEQZ, Opcode.BNEZ}:
                value = registers[instruction.rd]
                take = (value == 0) if opcode is Opcode.BEQZ else (value != 0)
                if take:
                    next_pc = instruction.target
                    branch_taken = True
            elif opcode is Opcode.JUMP:
                next_pc = instruction.target
                branch_taken = True
            else:
                left = registers[instruction.ra]
                right = registers[instruction.rb]
                registers[instruction.rd] = self._alu(
                    opcode, left, right, binary.word_width
                ) & mask
            cycles += self.pipeline.cost(instruction, branch_taken=branch_taken)
            program_counter = next_pc

        final_memory = {
            name: memory.get(address, 0)
            for name, address in binary.variable_addresses.items()
        }
        outputs = {name: final_memory[name] for name in binary.outputs}
        return RunResult(
            cycles=cycles,
            instructions_executed=executed,
            final_memory=final_memory,
            outputs=outputs,
            icache_misses=self.instruction_cache.statistics.misses - icache_misses_before,
            dcache_misses=self.data_cache.statistics.misses - dcache_misses_before,
        )

    @staticmethod
    def _alu(opcode: Opcode, left: int, right: int, width: int) -> int:
        if opcode is Opcode.ADD:
            return left + right
        if opcode is Opcode.SUB:
            return left - right
        if opcode is Opcode.MUL:
            return left * right
        if opcode is Opcode.AND:
            return left & right
        if opcode is Opcode.OR:
            return left | right
        if opcode is Opcode.XOR:
            return left ^ right
        if opcode is Opcode.SHL:
            return 0 if right >= width else left << right
        if opcode is Opcode.SHR:
            return 0 if right >= width else left >> right
        if opcode is Opcode.CMPEQ:
            return int(left == right)
        if opcode is Opcode.CMPNE:
            return int(left != right)
        if opcode is Opcode.CMPLT:
            return int(left < right)
        if opcode is Opcode.CMPLE:
            return int(left <= right)
        if opcode is Opcode.CMPGT:
            return int(left > right)
        if opcode is Opcode.CMPGE:
            return int(left >= right)
        raise SimulationError(f"unhandled opcode {opcode}")


# -- inputs --------------------------------------------------------------------

WIDTHS = (16, 23, 31)
INPUTS_PER_BINARY = 100

CONFIGS = {
    "default": PlatformConfig(),
    "non-default": PlatformConfig(
        instruction_cache=CacheConfig(
            line_size_words=2, num_sets=8, associativity=1, hit_latency=1, miss_penalty=5
        ),
        data_cache=CacheConfig(
            line_size_words=1, num_sets=4, associativity=3, hit_latency=2, miss_penalty=7
        ),
        pipeline=PipelineConfig(
            base_cost=2, multiply_extra=5, load_use_stall=3, taken_branch_penalty=4
        ),
        max_instructions=200_000,
    ),
}


def _alu_binary(width: int) -> Binary:
    """Every opcode once, on the inputs ``a`` and ``b`` (so inputs ``w-1``
    and ``w`` are shift amounts at and past the word width)."""
    two_source = [
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT,
        Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE,
    ]
    one_source = [Opcode.MOVE, Opcode.NOT, Opcode.NEG]
    results = [op.value for op in two_source + one_source]
    addresses = {name: index for index, name in enumerate(["a", "b", *results])}
    body = [
        Instruction(Opcode.LOAD, rd=1, address=addresses["a"]),
        Instruction(Opcode.LOAD, rd=2, address=addresses["b"]),
    ]
    for op in two_source:
        body.append(Instruction(op, rd=3, ra=1, rb=2))
        body.append(Instruction(Opcode.STORE, rd=3, address=addresses[op.value]))
    for op in one_source:
        body.append(Instruction(op, rd=3, ra=1))
        body.append(Instruction(Opcode.STORE, rd=3, address=addresses[op.value]))
    skip = len(body) + 5
    body += [
        Instruction(Opcode.BEQZ, rd=1, target=skip),
        Instruction(Opcode.BNEZ, rd=2, target=skip),
        Instruction(Opcode.LOADI, rd=0, immediate=-1),
        Instruction(Opcode.STORE, rd=0, address=addresses["move"]),
        Instruction(Opcode.JUMP, target=skip),
        Instruction(Opcode.HALT),
    ]
    return Binary(
        name="every-opcode",
        instructions=body,
        variable_addresses=addresses,
        parameters=("a", "b"),
        outputs=tuple(results),
        word_width=width,
        num_registers=4,
    )


def _binaries() -> list[Binary]:
    shapes = {(program, tuple(sorted(args.items()))) for program, args, _ in GAMETIME_SHAPES}
    binaries = []
    for program, args in sorted(shapes):
        for width in WIDTHS:
            factory = getattr(programs, program)
            binaries.append(compile_program(factory(word_width=width, **dict(args))))
    binaries.extend(_alu_binary(width) for width in WIDTHS)
    return binaries


def _inputs(binary: Binary, rng: random.Random) -> list[dict[str, int]]:
    width = binary.word_width
    mask = (1 << width) - 1
    edges = [0, 1, 2, width - 1, width, width + 1, 1 << (width - 1), mask - 1, mask]
    cases = []
    # Every pairing of edge values for the first two parameters, then
    # seeded random words mixed with edges.
    for first in edges:
        for second in edges:
            pair = [first, second]
            cases.append({
                name: pair[index] if index < 2 else rng.choice(edges)
                for index, name in enumerate(binary.parameters)
            })
    while len(cases) < len(edges) ** 2 + INPUTS_PER_BINARY:
        cases.append({
            name: rng.choice(edges) if rng.random() < 0.3 else rng.randrange(mask + 1)
            for name in binary.parameters
        })
    return cases


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("start_state", ["cold", "warm"])
def test_run_results_match_the_reference(config_name, start_state):
    config = CONFIGS[config_name]
    rng = random.Random(f"{config_name}/{start_state}")
    compared = 0
    for binary in _binaries():
        processor = Processor(config)
        reference = _ReferenceProcessor(config)
        for inputs in _inputs(binary, rng):
            reference.start(binary, start_state)
            processor.flush_caches()
            if start_state == "warm":
                processor.warm_caches(binary)
            expected = reference.run(binary, inputs)
            assert processor.run(binary, inputs) == expected, (binary.name, inputs)
            compared += 1
    assert compared >= len(_binaries()) * INPUTS_PER_BINARY
