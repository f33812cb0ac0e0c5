"""Loop-free program representation for component-based synthesis.

A loop-free program over a component library is a straight-line sequence
of component applications (one application per library component, in the
style of Jha, Gulwani, Seshia & Tiwari, ICSE 2010): line ``0 .. n_in - 1``
hold the program inputs, line ``n_in + i`` holds the result of the ``i``-th
component application (ordered by the synthesized location assignment),
and designated lines are returned as the program outputs.

The class provides a concrete interpreter, pretty printing in the C-like
style of the paper's Figure 8, and semantic-equivalence testing against an
arbitrary reference function (exhaustive for narrow widths, randomised
otherwise).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.exceptions import ReproError
from repro.ogis.components import Component


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class ComponentInstance:
    """One component application inside a loop-free program.

    Attributes:
        component: the library component applied.
        input_lines: the line numbers supplying each argument (must all be
            smaller than this instance's own ``output_line``).
        output_line: the line number holding this application's result.
    """

    component: Component
    input_lines: tuple[int, ...]
    output_line: int


@dataclass
class LoopFreeProgram:
    """A synthesized loop-free program.

    Attributes:
        num_inputs: number of program inputs.
        instances: component applications sorted by output line.
        output_lines: lines returned as program outputs (in order).
        width: default bit width used by :meth:`run` when none is given.
        input_names: names used for pretty printing (default ``in0`` ...).
        output_names: names used for pretty printing.
    """

    num_inputs: int
    instances: list[ComponentInstance]
    output_lines: tuple[int, ...]
    width: int = 32
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.instances = sorted(self.instances, key=lambda inst: inst.output_line)
        expected_lines = set(
            range(self.num_inputs, self.num_inputs + len(self.instances))
        )
        actual_lines = {instance.output_line for instance in self.instances}
        if actual_lines != expected_lines:
            raise ReproError(
                f"component output lines {sorted(actual_lines)} are not the "
                f"contiguous range {sorted(expected_lines)}"
            )
        for instance in self.instances:
            for line in instance.input_lines:
                if line < 0 or line >= instance.output_line:
                    raise ReproError(
                        f"instance at line {instance.output_line} reads line {line}, "
                        "which is not strictly earlier (program would not be in SSA)"
                    )
        total_lines = self.num_inputs + len(self.instances)
        for line in self.output_lines:
            if line < 0 or line >= total_lines:
                raise ReproError(f"output line {line} out of range")
        if not self.input_names:
            self.input_names = tuple(f"in{i}" for i in range(self.num_inputs))
        if not self.output_names:
            self.output_names = tuple(f"out{i}" for i in range(len(self.output_lines)))

    # -- size ----------------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of component applications."""
        return len(self.instances)

    # -- execution ------------------------------------------------------------

    def run(self, inputs: Sequence[int], width: int | None = None) -> tuple[int, ...]:
        """Execute the program on ``inputs`` and return its outputs."""
        width = width or self.width
        if len(inputs) != self.num_inputs:
            raise ReproError(
                f"program expects {self.num_inputs} inputs, got {len(inputs)}"
            )
        values: list[int] = [value & _mask(width) for value in inputs]
        for instance in self.instances:
            arguments = [values[line] for line in instance.input_lines]
            values.append(instance.component.apply(arguments, width))
        return tuple(values[line] for line in self.output_lines)

    # -- pretty printing ----------------------------------------------------------

    def pretty(self, function_name: str = "synthesized") -> str:
        """Render the program as C-like pseudocode (paper Figure 8 style)."""
        lines = [f"{function_name}({', '.join(self.input_names)})", "{"]
        names: dict[int, str] = {
            index: name for index, name in enumerate(self.input_names)
        }
        for position, instance in enumerate(self.instances):
            arguments = [names[line] for line in instance.input_lines]
            expression = instance.component.render(arguments)
            temp_name = f"t{position}"
            names[instance.output_line] = temp_name
            lines.append(f"  {temp_name} = {expression};")
        rendered_outputs = ", ".join(
            names[line] for line in self.output_lines
        )
        lines.append(f"  return {rendered_outputs};")
        lines.append("}")
        return "\n".join(lines)

    # -- equivalence testing ----------------------------------------------------------

    def equivalent_to(
        self,
        reference: Callable[[Sequence[int]], Sequence[int]],
        width: int | None = None,
        exhaustive_limit: int = 1 << 16,
        random_trials: int = 2000,
        seed: int = 0,
    ) -> bool:
        """Test semantic equivalence against ``reference``.

        All input combinations are checked when the input space is no
        larger than ``exhaustive_limit``; otherwise ``random_trials``
        uniformly random input tuples are compared.  (The SMT-based
        equivalence check used for hypothesis testing lives in
        :mod:`repro.ogis.encoding`.)
        """
        width = width or self.width
        space = (1 << width) ** self.num_inputs
        if space <= exhaustive_limit:
            candidates = itertools.product(range(1 << width), repeat=self.num_inputs)
        else:
            rng = random.Random(seed)
            candidates = (
                tuple(rng.randint(0, _mask(width)) for _ in range(self.num_inputs))
                for _ in range(random_trials)
            )
        for inputs in candidates:
            expected = tuple(value & _mask(width) for value in reference(inputs))
            if self.run(inputs, width=width) != expected:
                return False
        return True
