"""SMT encoding of component-based synthesis (the deductive engine of §4).

Implements the location-variable encoding of oracle-guided component-based
program synthesis (Jha, Gulwani, Seshia & Tiwari, ICSE 2010), which the
paper uses as its second demonstration of sciduction:

* every library component gets an *output location* variable and one
  *input location* variable per argument,
* well-formedness constraints force the locations to describe a valid
  straight-line program (distinct component outputs, arguments defined
  before use),
* for each input/output example, value variables are introduced for every
  line and *connection constraints* tie equal locations to equal values,
* the component's bit-vector semantics constrain its output value.

Two queries are built on top of the encoding (paper Section 4.2):

* ``synthesize`` — "does there exist a program consistent with the
  observed examples?"  A model yields the candidate program.
* ``distinguishing_input`` — "does there exist another consistent program
  and an input on which it disagrees with the candidate?"  A model yields
  the next oracle query; UNSAT certifies the candidate is semantically
  unique among consistent programs and the loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from repro.core.exceptions import BudgetExceededError, UnrealizableError
from repro.ogis.components import Component
from repro.ogis.program import ComponentInstance, LoopFreeProgram
from repro.smt.sat import SatStatistics
from repro.smt.solver import Model, SmtResult, SmtSolver, SmtStatistics
from repro.smt.terms import (
    BitVecTerm,
    BoolTerm,
    BvVar,
    bool_and,
    bool_implies,
    bool_or,
    bv_const,
    bv_var,
)


@dataclass(frozen=True)
class IOExample:
    """One input/output example obtained from the I/O oracle."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass
class _LocationVariables:
    """Location variables of one program copy."""

    component_outputs: list[BvVar]
    component_inputs: list[list[BvVar]]
    program_outputs: list[BvVar]


@dataclass
class SynthesisStatistics:
    """Query counters for the encoder."""

    synthesis_queries: int = 0
    distinguishing_queries: int = 0
    sat_results: int = 0
    unsat_results: int = 0


class SynthesisEncoder:
    """Builds and solves the location-variable synthesis constraints.

    Args:
        library: the component library L (each component is used exactly
            once in the synthesized program, per the structure hypothesis).
        num_inputs: number of program inputs.
        num_outputs: number of program outputs.
        width: bit width of all data values during synthesis.  Synthesis at
            a modest width (8 bits by default in the benchmarks) is sound
            for the width-generic component libraries used here and keeps
            the SAT encoding small; final artifacts can be re-checked at
            any width with :meth:`semantic_difference` or the program's
            ``equivalent_to``.
        config: an :class:`~repro.api.config.EngineConfig` providing the
            solver flags in one place (defaults to ``EngineConfig()``);
            private solvers are built with
            :func:`~repro.api.pool.private_solver`.
        lease: the pooled :class:`~repro.api.pool.SolverLease` to run
            the shared persistent session on, or None for a private
            solver.  On a lease the pool — not this encoder — owns the
            solver's configuration, and statistics are reported as deltas
            relative to the state the solver was handed over in (per-job
            accounting).

    The encoder keeps one *persistent* solver across the whole OGIS loop,
    shared by ``synthesize`` and ``distinguishing_input``.  Its base-level
    assertions are the well-formedness constraints, a *symbolic run* of
    the candidate location variables (dataflow over fresh symbolic inputs
    and outputs), and one constraint block per example.  The symbolic-run
    constraints are satisfiability-preserving for the synthesis query —
    the symbolic inputs are unconstrained, and every well-formed program
    produces *some* output on them — so sharing is sound.  The example set
    only ever grows during a run, so each call encodes just the new
    examples on top of the already-blasted skeleton, and the
    per-candidate disagreement constraint of ``distinguishing_input`` is
    passed as a ``check``-time assumption so it never pollutes later
    iterations.  Learned clauses, variable activities, and the
    bit-blaster's structural caches thus survive the whole loop.
    """

    def __init__(
        self,
        library: Sequence[Component],
        num_inputs: int,
        num_outputs: int,
        width: int = 8,
        config=None,
        lease=None,
    ):
        if not library:
            raise UnrealizableError("the component library is empty")
        self.library = list(library)
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.width = width
        from repro.api.config import EngineConfig
        from repro.api.pool import private_solver

        self._private_solver = partial(private_solver, config or EngineConfig())
        self._lease = lease
        self.num_lines = num_inputs + len(self.library)
        # The encoding compares locations against the constant ``num_lines``
        # (exclusive upper bound), so the location width must be able to
        # represent that value itself, not just the largest line index.
        self.location_width = max(1, math.ceil(math.log2(self.num_lines + 1)))
        self.statistics = SynthesisStatistics()
        # Persistent solver state shared by both query kinds (built lazily).
        self._solver: SmtSolver | None = None
        self._solver_locations: _LocationVariables | None = None
        self._encoded_examples: list[IOExample] = []
        self._symbolic_inputs: list[BvVar] = []
        self._symbolic_outputs: list[BvVar] = []
        # SMT / SAT counters of solvers discarded by _reset_solver, so the
        # statistics methods cover the whole encoder lifetime; the *_base
        # snapshots subtract whatever work a leased (pooled) solver had
        # already done for earlier jobs, so shared solvers report per-job
        # deltas rather than pool-lifetime cumulative counts.
        self._retired_statistics = SmtStatistics()
        self._retired_sat_statistics = SatStatistics()
        self._smt_base = SmtStatistics()
        self._sat_base = SatStatistics()

    # -- variable factories ------------------------------------------------

    def _locations(self, tag: str) -> _LocationVariables:
        component_outputs = [
            bv_var(f"lout_{tag}_{index}", self.location_width)
            for index in range(len(self.library))
        ]
        component_inputs = [
            [
                bv_var(f"lin_{tag}_{index}_{argument}", self.location_width)
                for argument in range(component.arity)
            ]
            for index, component in enumerate(self.library)
        ]
        program_outputs = [
            bv_var(f"lres_{tag}_{index}", self.location_width)
            for index in range(self.num_outputs)
        ]
        return _LocationVariables(component_outputs, component_inputs, program_outputs)

    def _location_const(self, value: int) -> BitVecTerm:
        return bv_const(value, self.location_width)

    # -- constraint builders ---------------------------------------------------

    def well_formedness(self, locations: _LocationVariables) -> list[BoolTerm]:
        """The psi_wfp constraints: locations describe a valid SSA program."""
        constraints: list[BoolTerm] = []
        lower = self._location_const(self.num_inputs)
        upper = self._location_const(self.num_lines)
        for output in locations.component_outputs:
            constraints.append(output.uge(lower))
            constraints.append(output.ult(upper))
        # Component outputs occupy distinct lines.
        for first in range(len(self.library)):
            for second in range(first + 1, len(self.library)):
                constraints.append(
                    locations.component_outputs[first].ne(
                        locations.component_outputs[second]
                    )
                )
        # Symmetry breaking: identical library components are interchangeable,
        # so force their output lines into increasing order.  This prunes the
        # k! equivalent placements of k copies of the same component.
        for first in range(len(self.library)):
            for second in range(first + 1, len(self.library)):
                if self.library[first].name == self.library[second].name:
                    constraints.append(
                        locations.component_outputs[first].ult(
                            locations.component_outputs[second]
                        )
                    )
                    break  # chaining consecutive copies is sufficient
        # Arguments refer to strictly earlier lines.
        for index, inputs in enumerate(locations.component_inputs):
            for argument in inputs:
                constraints.append(argument.ult(locations.component_outputs[index]))
                constraints.append(argument.ult(upper))
        # Program outputs are component output lines (they cannot simply
        # forward an input), matching the shape of the programs printed in
        # the paper's Figure 8.
        for output in locations.program_outputs:
            constraints.append(output.ult(upper))
            constraints.append(output.uge(lower))
        return constraints

    def _dataflow(
        self,
        locations: _LocationVariables,
        input_terms: Sequence[BitVecTerm],
        output_terms: Sequence[BitVecTerm],
        tag: str,
    ) -> list[BoolTerm]:
        """Library semantics plus connection constraints for one run.

        ``input_terms`` / ``output_terms`` are the values on the program's
        input and output lines for this run (constants for concrete
        examples, variables for symbolic runs).
        """
        constraints: list[BoolTerm] = []
        writers: list[tuple[BitVecTerm, BitVecTerm]] = [
            (self._location_const(index), term) for index, term in enumerate(input_terms)
        ]
        readers: list[tuple[BitVecTerm, BitVecTerm]] = []
        for index, component in enumerate(self.library):
            argument_terms = [
                bv_var(f"x_{tag}_{index}_{argument}", self.width)
                for argument in range(component.arity)
            ]
            output_term = bv_var(f"o_{tag}_{index}", self.width)
            constraints.append(
                output_term.eq(component.encode(argument_terms, self.width))
            )
            writers.append((locations.component_outputs[index], output_term))
            for argument, term in enumerate(argument_terms):
                readers.append((locations.component_inputs[index][argument], term))
        for index, term in enumerate(output_terms):
            readers.append((locations.program_outputs[index], term))
        for reader_location, reader_value in readers:
            for writer_location, writer_value in writers:
                constraints.append(
                    bool_implies(
                        reader_location.eq(writer_location),
                        reader_value.eq(writer_value),
                    )
                )
        return constraints

    def example_constraints(
        self, locations: _LocationVariables, example: IOExample, tag: str
    ) -> list[BoolTerm]:
        """Constraints forcing the program to reproduce one I/O example."""
        input_terms = [bv_const(value, self.width) for value in example.inputs]
        output_terms = [bv_const(value, self.width) for value in example.outputs]
        return self._dataflow(locations, input_terms, output_terms, tag)

    # -- program extraction -------------------------------------------------------

    @staticmethod
    def _model_int(solver: SmtSolver, variable: BvVar) -> int:
        value = solver.model_value(variable.name)
        return int(value) if value is not None else 0

    def _program_from_model(
        self, solver: SmtSolver, locations: _LocationVariables
    ) -> LoopFreeProgram:
        # Resolve only the location variables: the persistent solver's
        # blaster also knows every example's value variables, so full
        # model extraction would grow with the example set.
        instances = []
        for index, component in enumerate(self.library):
            output_line = self._model_int(solver, locations.component_outputs[index])
            input_lines = tuple(
                self._model_int(solver, variable)
                for variable in locations.component_inputs[index]
            )
            instances.append(
                ComponentInstance(
                    component=component,
                    input_lines=input_lines,
                    output_line=output_line,
                )
            )
        output_lines = tuple(
            self._model_int(solver, variable) for variable in locations.program_outputs
        )
        return LoopFreeProgram(
            num_inputs=self.num_inputs,
            instances=instances,
            output_lines=output_lines,
            width=self.width,
        )

    # -- persistent solver management -------------------------------------------

    def _skeleton_fingerprint(self) -> str:
        """Identity of the base skeleton (for cross-job base-scope reuse)."""
        names = ",".join(component.name for component in self.library)
        return f"ogis/{names}/w{self.width}/i{self.num_inputs}/o{self.num_outputs}"

    def _reset_solver(self) -> None:
        """(Re)build the shared persistent solver with its base skeleton.

        On a pooled solver lease the skeleton (well-formedness + symbolic
        run) lives in a *persistent base scope* keyed by
        :meth:`_skeleton_fingerprint`
        (:meth:`~repro.api.pool.SolverLease.base_session`): a later job of
        the same shape finds the scope still open and skips re-encoding
        the skeleton.
        """
        if self._solver is not None:
            self._retired_statistics = self._retired_statistics.merged_with(
                self._solver.statistics.delta_since(self._smt_base)
            )
            self._retired_sat_statistics = self._retired_sat_statistics.merged_with(
                self._solver.sat_statistics().delta_since(self._sat_base)
            )
        skeleton_ready = False
        if self._lease is not None:
            self._solver, skeleton_ready = self._lease.base_session(
                self._skeleton_fingerprint()
            )
        else:
            self._solver = self._private_solver()
        self._smt_base = self._solver.statistics.snapshot()
        self._sat_base = self._solver.sat_statistics()
        self._solver_locations = self._locations("s")
        self._encoded_examples = []
        # The skeleton's variable names are deterministic, so on a warm
        # base scope the hash-consed terms rebuilt here are the very
        # objects the persistent solver already knows.
        self._symbolic_inputs = [
            bv_var(f"distinguishing_in_{index}", self.width)
            for index in range(self.num_inputs)
        ]
        self._symbolic_outputs = [
            bv_var(f"alt_out_{index}", self.width) for index in range(self.num_outputs)
        ]
        if skeleton_ready:
            return
        self._solver.add(*self.well_formedness(self._solver_locations))
        # A symbolic run of the candidate program: unconstrained inputs, so
        # these constraints never affect the synthesis query's verdict, but
        # they let distinguishing-input queries ride the same solver.
        self._solver.add(
            *self._dataflow(
                self._solver_locations,
                self._symbolic_inputs,
                self._symbolic_outputs,
                tag="sym",
            )
        )
        if self._lease is not None:
            # Seal the skeleton scope for later same-shape jobs and open
            # this job's own scope above it.
            self._lease.seal_base()

    def _synced_solver(
        self, examples: Sequence[IOExample]
    ) -> tuple[SmtSolver, _LocationVariables]:
        """The shared solver with exactly ``examples`` encoded.

        Example tags are derived from the example's position, which is
        stable because callers only ever *extend* the example set (the OGIS
        loop appends one example per iteration); a non-extending call
        rebuilds the solver from scratch.
        """
        encoded = self._encoded_examples
        extends = len(examples) >= len(encoded) and list(
            examples[: len(encoded)]
        ) == encoded
        if self._solver is None or not extends:
            self._reset_solver()
            encoded = self._encoded_examples
        solver, locations = self._solver, self._solver_locations
        assert solver is not None and locations is not None
        for number in range(len(encoded), len(examples)):
            solver.add(
                *self.example_constraints(locations, examples[number], tag=f"e{number}")
            )
            encoded.append(examples[number])
        return solver, locations

    def smt_statistics(self) -> SmtStatistics:
        """SMT work counters over the encoder's lifetime (across resets).

        When the solver came from a pooled lease,
        only the work done *for this encoder* is counted — the counters
        are deltas against the hand-over snapshot, not the leased
        solver's pool-lifetime totals.
        """
        if self._solver is None:
            return self._retired_statistics
        return self._retired_statistics.merged_with(
            self._solver.statistics.delta_since(self._smt_base)
        )

    def sat_statistics(self) -> SatStatistics:
        """CDCL counters over the encoder's lifetime (perf telemetry).

        Like :meth:`smt_statistics`, counters of solvers retired by a
        reset are accumulated and pooled solvers report per-encoder
        deltas.
        """
        if self._solver is None:
            return self._retired_sat_statistics
        return self._retired_sat_statistics.merged_with(
            self._solver.sat_statistics().delta_since(self._sat_base)
        )

    # -- queries --------------------------------------------------------------------

    def synthesize(self, examples: Sequence[IOExample]) -> LoopFreeProgram:
        """Find a program consistent with every example.

        Consecutive calls with a growing example set reuse the persistent
        solver, encoding only the new examples.

        Raises:
            UnrealizableError: when no composition of the library matches
                the examples (the "infeasibility reported" branch of the
                paper's Figure 7).
            BudgetExceededError: when the solver's conflict budget or
                deadline expires before the query is decided.
        """
        self.statistics.synthesis_queries += 1
        solver, locations = self._synced_solver(examples)
        verdict = solver.check()
        if verdict is SmtResult.UNKNOWN:
            raise BudgetExceededError(
                "synthesis query undecided: solver budget or deadline exhausted"
            )
        if verdict is not SmtResult.SAT:
            self.statistics.unsat_results += 1
            raise UnrealizableError(
                "no loop-free composition of the library is consistent with the examples"
            )
        self.statistics.sat_results += 1
        return self._program_from_model(solver, locations)

    def _symbolic_execution(
        self, program: LoopFreeProgram, input_terms: Sequence[BitVecTerm]
    ) -> list[BitVecTerm]:
        """Symbolically execute a concrete program on symbolic inputs."""
        values: list[BitVecTerm] = list(input_terms)
        for instance in program.instances:
            arguments = [values[line] for line in instance.input_lines]
            values.append(instance.component.encode(arguments, self.width))
        return [values[line] for line in program.output_lines]

    def distinguishing_input(
        self, examples: Sequence[IOExample], candidate: LoopFreeProgram
    ) -> tuple[int, ...] | None:
        """Find an input on which some other consistent program disagrees.

        Returns ``None`` when no such input exists — the candidate is then
        the unique behaviour consistent with the examples and the OGIS loop
        terminates (paper Section 4.2).
        """
        self.statistics.distinguishing_queries += 1
        solver, _ = self._synced_solver(examples)
        candidate_outputs = self._symbolic_execution(candidate, self._symbolic_inputs)
        # The disagreement constraint is specific to this candidate, so it
        # is passed as a check-time assumption rather than asserted: the
        # next iteration's candidate gets a clean slate while the examples
        # and the dataflow skeleton stay encoded.
        disagreement = bool_or(
            *(
                alternative.ne(candidate_output)
                for alternative, candidate_output in zip(
                    self._symbolic_outputs, candidate_outputs
                )
            )
        )
        verdict = solver.check(disagreement)
        if verdict is SmtResult.UNKNOWN:
            raise BudgetExceededError(
                "distinguishing-input query undecided: solver budget or "
                "deadline exhausted"
            )
        if verdict is not SmtResult.SAT:
            self.statistics.unsat_results += 1
            return None
        self.statistics.sat_results += 1
        return tuple(
            self._model_int(solver, variable) for variable in self._symbolic_inputs
        )

    def semantic_difference(
        self, first: LoopFreeProgram, second: LoopFreeProgram
    ) -> tuple[int, ...] | None:
        """Find an input on which two loop-free programs disagree.

        Used for a-posteriori structure-hypothesis testing (paper Section 6):
        checking a synthesized program against a known reference program is
        an equivalence check, decided here by SMT at the encoder's width.
        Returns a distinguishing input, or ``None`` when the programs are
        equivalent.

        Raises:
            BudgetExceededError: when a conflict budget leaves the
                equivalence query undecided (an undecided check must not
                be reported as "equivalent").
        """
        solver = self._private_solver()
        symbolic_inputs = [
            bv_var(f"eqcheck_in_{index}", self.width) for index in range(self.num_inputs)
        ]
        first_outputs = self._symbolic_execution(first, symbolic_inputs)
        second_outputs = self._symbolic_execution(second, symbolic_inputs)
        solver.add(
            bool_or(
                *(
                    left.ne(right)
                    for left, right in zip(first_outputs, second_outputs)
                )
            )
        )
        verdict = solver.check()
        if verdict is SmtResult.UNKNOWN:
            raise BudgetExceededError(
                "equivalence query undecided: solver budget or deadline exhausted"
            )
        if verdict is not SmtResult.SAT:
            return None
        model = solver.model()
        return tuple(int(model.get(variable.name, 0)) for variable in symbolic_inputs)
