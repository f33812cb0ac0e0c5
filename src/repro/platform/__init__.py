"""Simulated embedded platform (the environment ``E`` of Section 3).

A RISC-style ISA, a task-language compiler, set-associative instruction and
data caches, a cycle-level simulator and an end-to-end measurement harness —
standing in for the SimIt-ARM / StrongARM-1100 testbed used by the paper.
The simulator decodes each binary once and runs it in one loop that charges
the in-order pipeline's timing and the cache costs itself; every
measurement starts cold (flushed caches) or warm (program footprint
pre-loaded).
"""

from repro.platform.cache import Cache, CacheConfig, CacheStatistics
from repro.platform.compiler import Compiler, compile_program
from repro.platform.isa import (
    Binary,
    Instruction,
    Opcode,
    validate_binary,
)
from repro.platform.measurement import (
    MeasurementHarness,
    PerturbationModel,
    TimingOracle,
)
from repro.platform.processor import PipelineConfig, PlatformConfig, Processor, RunResult

__all__ = [
    "Binary",
    "Cache",
    "CacheConfig",
    "CacheStatistics",
    "Compiler",
    "Instruction",
    "MeasurementHarness",
    "Opcode",
    "PerturbationModel",
    "PipelineConfig",
    "PlatformConfig",
    "Processor",
    "RunResult",
    "TimingOracle",
    "compile_program",
    "validate_binary",
]
