"""I/O oracles for program synthesis (paper Section 4.1).

The deobfuscation problem views the obfuscated program as an *I/O oracle*
mapping a program input (starting state) to the desired output (ending
state); the synthesis complexity is measured in queries to that oracle,
independent of the syntactic obfuscations applied to it.  This module
wraps arbitrary Python callables (and task-language programs) as counting
oracles compatible with the synthesizer.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.exceptions import ReproError
from repro.core.oracle import IOOracle
from repro.cfg.lang import Program, run_program


def _mask(width: int) -> int:
    return (1 << width) - 1


class ProgramIOOracle(IOOracle[tuple[int, ...], tuple[int, ...]]):
    """An I/O oracle backed by a Python callable.

    The callable receives a tuple of unsigned integers and must return a
    sequence of unsigned integers; values are reduced modulo ``2**width``
    on both sides so the oracle's behaviour matches the bit-vector
    semantics used during synthesis.
    """

    name = "program-io-oracle"

    def __init__(
        self,
        function: Callable[[tuple[int, ...]], Sequence[int]],
        num_inputs: int,
        num_outputs: int,
        width: int,
    ):
        super().__init__()
        self._function = function
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.width = width

    def _query(self, value: tuple[int, ...]) -> tuple[int, ...]:
        if len(value) != self.num_inputs:
            raise ReproError(
                f"oracle expects {self.num_inputs} inputs, got {len(value)}"
            )
        masked = tuple(v & _mask(self.width) for v in value)
        outputs = tuple(int(v) & _mask(self.width) for v in self._function(masked))
        if len(outputs) != self.num_outputs:
            raise ReproError(
                f"oracle returned {len(outputs)} outputs, expected {self.num_outputs}"
            )
        return outputs


def oracle_from_task_program(
    program: Program,
    outputs: Sequence[str] | None = None,
) -> ProgramIOOracle:
    """Wrap a task-language :class:`~repro.cfg.lang.Program` as an I/O oracle.

    Args:
        program: the (possibly obfuscated) task program.
        outputs: names of the variables to expose as oracle outputs
            (defaults to the program's declared return variables).
    """
    output_names = tuple(outputs) if outputs else program.output_variables()

    def function(values: tuple[int, ...]) -> Sequence[int]:
        state = run_program(program, dict(zip(program.parameters, values)))
        return [state[name] for name in output_names]

    return ProgramIOOracle(
        function,
        num_inputs=len(program.parameters),
        num_outputs=len(output_names),
        width=program.word_width,
    )
