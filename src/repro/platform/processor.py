"""Cycle-level processor simulator (the platform / environment ``E``).

Stands in for the SimIt-ARM + StrongARM-1100 testbed of the paper: an
in-order pipelined core with split instruction and data caches, executed
functionally with a cycle cost accumulated per instruction.  The simulator
is deterministic given the program, its inputs, and the starting
environment state (cache contents), which is exactly the setting of the
timing-analysis problem ⟨TA⟩ ("a fixed starting state of E").

The pipeline timing is that of a simple five-stage in-order pipeline
(fetch, decode, execute, memory, write-back) in the style of the
StrongARM-1100.  Each retired instruction costs:

* its I-cache fetch (hit latency, plus the miss penalty on a miss),
* ``base_cost`` cycles (CPI = 1 when nothing stalls), plus
  ``multiply_extra`` execute cycles for ``MUL``,
* a ``load_use_stall`` interlock when it reads the destination of the
  immediately preceding ``LOAD``,
* a ``taken_branch_penalty`` flush when a branch or jump is taken
  (static not-taken prediction),
* the D-cache access of a ``LOAD`` or ``STORE``.

None of this is exposed to the analysis side: GameTime only sees
end-to-end cycle counts, exactly as in the paper where the platform is an
opaque adversary.  Those measurements are provided by
:class:`repro.platform.measurement.MeasurementHarness`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from repro.core.exceptions import SimulationError
from repro.platform.cache import Cache, CacheConfig
from repro.platform.isa import Binary, Opcode

#: Word address of the first instruction (I-cache indexing; one word per
#: instruction).
INSTRUCTION_BASE_ADDRESS = 4096


@dataclass(frozen=True)
class PipelineConfig:
    """Timing parameters of the in-order pipeline.

    Attributes:
        base_cost: cycles charged for any instruction.
        multiply_extra: extra execute cycles for ``MUL``.
        load_use_stall: stall cycles when the previous instruction was a
            load whose destination this instruction reads.
        taken_branch_penalty: flush cycles for a taken branch or jump.
    """

    base_cost: int = 1
    multiply_extra: int = 3
    load_use_stall: int = 1
    taken_branch_penalty: int = 2

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SimulationError(
                    f"pipeline {item.name} must be a non-negative integer, got {value!r}"
                )


@dataclass(frozen=True)
class PlatformConfig:
    """Full configuration of the simulated platform.

    Attributes:
        instruction_cache: geometry/timing of the I-cache.
        data_cache: geometry/timing of the D-cache.
        pipeline: pipeline timing parameters.
        max_instructions: execution step budget (guards against runaway
            loops in malformed binaries).
    """

    instruction_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        line_size_words=4, num_sets=32, associativity=2, hit_latency=0, miss_penalty=8
    ))
    data_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        line_size_words=4, num_sets=16, associativity=2, hit_latency=0, miss_penalty=10
    ))
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    max_instructions: int = 1_000_000


@dataclass
class RunResult:
    """Outcome of one program execution on the platform.

    Attributes:
        cycles: total cycle count (the end-to-end measurement).
        instructions_executed: dynamic instruction count.
        final_memory: data memory contents (by variable name).
        outputs: values of the program's output variables.
        icache_misses: instruction-cache misses during the run.
        dcache_misses: data-cache misses during the run.
    """

    cycles: int
    instructions_executed: int
    final_memory: dict[str, int]
    outputs: dict[str, int]
    icache_misses: int
    dcache_misses: int


# Decoded instruction kinds, in the run loop's dispatch order.
_LOAD, _ALU2, _STORE, _LOADI, _BEQZ, _BNEZ, _JUMP, _ALU1, _SHL, _HALT = range(10)

#: Opcode -> (kind, operand).  The operand is the ALU function, or the
#: name of the instruction field the run loop reads.  Comparisons are
#: unsigned, and ``SHR`` needs no width guard, because registers always
#: hold masked values; ``SHL`` keeps its guard in the loop, so a huge
#: shift amount cannot allocate a huge integer.
_DECODE = {
    Opcode.LOAD: (_LOAD, "address"),
    Opcode.ADD: (_ALU2, operator.add),
    Opcode.SUB: (_ALU2, operator.sub),
    Opcode.MUL: (_ALU2, operator.mul),
    Opcode.AND: (_ALU2, operator.and_),
    Opcode.OR: (_ALU2, operator.or_),
    Opcode.XOR: (_ALU2, operator.xor),
    Opcode.SHR: (_ALU2, operator.rshift),
    Opcode.CMPEQ: (_ALU2, operator.eq),
    Opcode.CMPNE: (_ALU2, operator.ne),
    Opcode.CMPLT: (_ALU2, operator.lt),
    Opcode.CMPLE: (_ALU2, operator.le),
    Opcode.CMPGT: (_ALU2, operator.gt),
    Opcode.CMPGE: (_ALU2, operator.ge),
    Opcode.STORE: (_STORE, "address"),
    Opcode.LOADI: (_LOADI, "immediate"),
    Opcode.BEQZ: (_BEQZ, "target"),
    Opcode.BNEZ: (_BNEZ, "target"),
    Opcode.JUMP: (_JUMP, "target"),
    Opcode.MOVE: (_ALU1, operator.pos),
    Opcode.NOT: (_ALU1, operator.invert),
    Opcode.NEG: (_ALU1, operator.neg),
    Opcode.SHL: (_SHL, None),
    Opcode.HALT: (_HALT, None),
}


class Processor:
    """The simulated embedded processor.

    The environment state consists of the instruction- and data-cache
    contents; :meth:`flush_caches` and :meth:`warm_caches` set it so
    experiments can control the starting state exactly.
    """

    def __init__(self, config: PlatformConfig | None = None):
        self.config = config or PlatformConfig()
        self.instruction_cache = Cache(self.config.instruction_cache)
        self.data_cache = Cache(self.config.data_cache)
        # The last binary run and its decoded table (binaries are not
        # mutated after compilation, so the table stays valid).
        self._decoded_binary: Binary | None = None
        self._decoded: list[tuple] = []

    # -- environment state management ---------------------------------------

    def flush_caches(self) -> None:
        """Put the platform in the cold-cache environment state."""
        self.instruction_cache.flush()
        self.data_cache.flush()

    def warm_caches(self, binary: Binary) -> None:
        """Pre-load instruction and data caches with the program's footprint."""
        self.instruction_cache.warm(
            INSTRUCTION_BASE_ADDRESS + index for index in range(len(binary.instructions))
        )
        self.data_cache.warm(binary.variable_addresses.values())

    # -- execution -------------------------------------------------------------

    def _decode(self, binary: Binary) -> list[tuple]:
        """Decode ``binary`` into one row per instruction, once per binary.

        A row is ``(kind, rd, ra, rb, operand, static_cost, reads)``.
        """
        if binary is self._decoded_binary:
            return self._decoded
        pipeline = self.config.pipeline
        rows = []
        for instruction in binary.instructions:
            opcode = instruction.opcode
            kind, operand = _DECODE[opcode]
            if isinstance(operand, str):
                operand = getattr(instruction, operand)
            static_cost = pipeline.base_cost
            if opcode is Opcode.MUL:
                static_cost += pipeline.multiply_extra
            rows.append((
                kind, instruction.rd, instruction.ra, instruction.rb,
                operand, static_cost, instruction.reads(),
            ))
        self._decoded_binary, self._decoded = binary, rows
        return rows

    def run(
        self,
        binary: Binary,
        inputs: Mapping[str, int] | Sequence[int],
    ) -> RunResult:
        """Execute ``binary`` on ``inputs`` from the current environment state.

        Args:
            binary: the compiled program.
            inputs: parameter values, by name or in parameter order.

        Returns:
            A :class:`RunResult` with the cycle count and functional outputs.
        """
        if not isinstance(inputs, Mapping):
            values = list(inputs)
            if len(values) != len(binary.parameters):
                raise SimulationError(
                    f"expected {len(binary.parameters)} inputs, got {len(values)}"
                )
            inputs = dict(zip(binary.parameters, values))
        width = binary.word_width
        mask = (1 << width) - 1
        memory: dict[int, int] = {
            address: 0 for address in binary.variable_addresses.values()
        }
        for name in binary.parameters:
            if name not in inputs:
                raise SimulationError(f"missing input {name!r}")
            memory[binary.variable_addresses[name]] = inputs[name] & mask
        registers = [0] * max(binary.num_registers, 1)
        rows = self._decode(binary)
        count = len(rows)
        fetch = self.instruction_cache.access
        access = self.data_cache.access
        max_instructions = self.config.max_instructions
        load_use_stall = self.config.pipeline.load_use_stall
        branch_penalty = self.config.pipeline.taken_branch_penalty
        icache_misses_before = self.instruction_cache.statistics.misses
        dcache_misses_before = self.data_cache.statistics.misses

        cycles = 0
        executed = 0
        program_counter = 0
        last_load = -1  # destination of the previous instruction if a LOAD
        while True:
            if executed >= max_instructions:
                raise SimulationError("instruction budget exceeded (runaway loop?)")
            if program_counter < 0 or program_counter >= count:
                raise SimulationError(f"program counter out of range: {program_counter}")
            kind, rd, ra, rb, operand, static_cost, reads = rows[program_counter]
            cycles += fetch(INSTRUCTION_BASE_ADDRESS + program_counter) + static_cost
            executed += 1
            if last_load in reads:
                cycles += load_use_stall
            last_load = -1
            program_counter += 1
            if kind == _LOAD:
                cycles += access(operand)
                registers[rd] = memory.get(operand, 0)
                last_load = rd
            elif kind == _ALU2:
                registers[rd] = operand(registers[ra], registers[rb]) & mask
            elif kind == _STORE:
                cycles += access(operand)
                memory[operand] = registers[rd] & mask
            elif kind == _LOADI:
                registers[rd] = operand & mask
            elif kind == _BEQZ:
                if registers[rd] == 0:
                    program_counter = operand
                    cycles += branch_penalty
            elif kind == _BNEZ:
                if registers[rd] != 0:
                    program_counter = operand
                    cycles += branch_penalty
            elif kind == _JUMP:
                program_counter = operand
                cycles += branch_penalty
            elif kind == _ALU1:
                registers[rd] = operand(registers[ra]) & mask
            elif kind == _SHL:
                right = registers[rb]
                registers[rd] = 0 if right >= width else (registers[ra] << right) & mask
            else:  # _HALT
                break

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
