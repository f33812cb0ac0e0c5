"""Oracle-guided component-based program synthesis (paper Section 4.2).

The sciductive loop:

1. seed the example set with one or more randomly chosen inputs and their
   oracle outputs;
2. ask the deductive engine (SMT) for a program consistent with all
   examples — if none exists, report infeasibility (Figure 7, left branch);
3. ask for a *distinguishing input*: an input on which some other
   consistent program disagrees with the candidate;
4. if none exists, the candidate is semantically unique among consistent
   programs — return it;
5. otherwise query the I/O oracle on the distinguishing input, add the new
   example, and repeat.

The loop is motivated by the optimal-teaching-sequence characterisation of
Goldman & Kearns: each distinguishing input removes at least one
behaviourally distinct competitor, so the number of iterations is bounded
by the teaching dimension of the concept class (small in practice — the
paper reports sub-second synthesis for both Figure 8 benchmarks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.exceptions import BudgetExceededError, UnrealizableError
from repro.core.hypothesis import (
    HypothesisValidityEvidence,
    PredicateHypothesis,
    StructureHypothesis,
)
from repro.core.procedure import SciductionProcedure, SciductionResult
from repro.ogis.components import Component
from repro.ogis.encoding import IOExample, SynthesisEncoder
from repro.ogis.oracle import ProgramIOOracle
from repro.ogis.program import LoopFreeProgram


def component_library_hypothesis(library: Sequence[Component]) -> StructureHypothesis:
    """The structure hypothesis of Section 4: loop-free compositions of L."""
    names = sorted(component.name for component in library)

    def predicate(program: LoopFreeProgram) -> bool:
        used = sorted(instance.component.name for instance in program.instances)
        return used == names

    return PredicateHypothesis(
        predicate,
        name="loop-free-composition-of-library",
        strict=True,
        description=(
            "loop-free programs composed of the component library "
            f"{{{', '.join(names)}}} (each component used exactly once)"
        ),
    )


@dataclass
class SynthesisTrace:
    """Record of one OGIS run (for reports and the Figure 8 benchmark)."""

    examples: list[IOExample] = field(default_factory=list)
    candidates: list[LoopFreeProgram] = field(default_factory=list)
    distinguishing_inputs: list[tuple[int, ...]] = field(default_factory=list)
    iterations: int = 0
    oracle_queries: int = 0


class OgisSynthesizer(SciductionProcedure[LoopFreeProgram]):
    """Oracle-guided inductive synthesis of loop-free programs.

    Args:
        library: the component library L (structure hypothesis).
        oracle: the I/O oracle (e.g. the obfuscated program).
        width: bit width used during synthesis (see
            :class:`~repro.ogis.encoding.SynthesisEncoder`).
        max_iterations: bound on candidate/distinguishing-input rounds.
        initial_examples: number of random seed inputs queried up front.
        seed: RNG seed for the random seed inputs.
        config: an :class:`~repro.api.config.EngineConfig` carrying all
            solver flags in one place; the preferred entry point is
            :class:`repro.api.SciductionEngine` with a
            :class:`~repro.api.problems.DeobfuscationProblem`, which
            builds this procedure with a pooled solver.
        solver_factory: factory for the encoder's shared solver (used by
            the engine's :class:`~repro.api.pool.SolverPool`).
        examples: oracle-verified I/O examples to seed the loop with —
            typically the ``partial["examples"]`` payload of an earlier
            :class:`~repro.core.exceptions.BudgetExceededError`, making
            budget-exhausted jobs resumable.  When given, the random
            initial-example phase is skipped (the loop already has
            evidence to work from).
    """

    name = "oracle-guided-component-synthesis"

    def __init__(
        self,
        library: Sequence[Component],
        oracle: ProgramIOOracle,
        width: int | None = None,
        max_iterations: int = 32,
        initial_examples: int = 1,
        seed: int = 0,
        config=None,
        solver_factory=None,
        examples: Sequence[IOExample] | None = None,
    ):
        self.library = list(library)
        self.oracle = oracle
        self.width = width if width is not None else min(oracle.width, 8)
        self.encoder = SynthesisEncoder(
            self.library,
            num_inputs=oracle.num_inputs,
            num_outputs=oracle.num_outputs,
            width=self.width,
            config=config,
            solver_factory=solver_factory,
        )
        self.max_iterations = max_iterations
        self.initial_examples = max(1, initial_examples)
        self._rng = random.Random(seed)
        self.trace = SynthesisTrace()
        if examples:
            mask = (1 << self.width) - 1
            self.trace.examples.extend(
                IOExample(
                    inputs=tuple(int(value) & mask for value in example.inputs),
                    outputs=tuple(int(value) & mask for value in example.outputs),
                )
                for example in examples
            )
        super().__init__(hypothesis=component_library_hypothesis(self.library))

    # -- soundness -----------------------------------------------------------

    def hypothesis_evidence(self) -> HypothesisValidityEvidence:
        evidence = HypothesisValidityEvidence(
            hypothesis_name=self.hypothesis.name,
            proved=False,
            argument=(
                "library sufficiency is assumed; when a reference program is "
                "available, semantic_difference() provides an a-posteriori check"
            ),
        )
        evidence.checked_instances = len(self.trace.examples)
        return evidence

    def soundness_argument(self) -> str:
        return (
            "if the library can express a program equivalent to the oracle, the "
            "loop terminates only when no consistent program disagrees with the "
            "candidate on any input, hence the candidate is equivalent to the "
            "oracle (paper Sec. 4.3 / Theorem 4 of the ICSE'10 paper)"
        )

    # -- the OGIS loop ------------------------------------------------------------

    def _random_input(self) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        return tuple(
            self._rng.randint(0, mask) for _ in range(self.oracle.num_inputs)
        )

    def _query_oracle(self, inputs: tuple[int, ...]) -> IOExample:
        outputs = self.oracle.query(inputs)
        mask = (1 << self.width) - 1
        example = IOExample(
            inputs=tuple(value & mask for value in inputs),
            outputs=tuple(value & mask for value in outputs),
        )
        self.trace.examples.append(example)
        self.trace.oracle_queries += 1
        return example

    def _attach_partial(self, error: BudgetExceededError) -> BudgetExceededError:
        """Stamp the learned example set onto a budget error (resumability).

        Every example in the trace is oracle-verified, so an interrupted
        run's evidence can seed a resubmission (see the ``examples``
        constructor argument) instead of being discarded.
        """
        partial = dict(error.partial or {})
        partial["examples"] = [
            [list(example.inputs), list(example.outputs)]
            for example in self.trace.examples
        ]
        partial["iterations"] = self.trace.iterations
        error.partial = partial
        return error

    def synthesize(self) -> LoopFreeProgram:
        """Run the OGIS loop and return the synthesized program.

        Raises:
            UnrealizableError: when no composition of the library is
                consistent with the gathered examples.
            BudgetExceededError: when ``max_iterations`` is exhausted, or
                when a solver-level conflict budget / deadline preempts a
                query; either way the error carries the learned example
                set in its ``partial`` payload so the job can be resumed.
        """
        if not self.trace.examples:
            seen: set[tuple[int, ...]] = set()
            for _ in range(self.initial_examples):
                candidate_input = self._random_input()
                while candidate_input in seen:
                    candidate_input = self._random_input()
                seen.add(candidate_input)
                self._query_oracle(candidate_input)
        try:
            for _ in range(self.max_iterations):
                self.trace.iterations += 1
                candidate = self.encoder.synthesize(self.trace.examples)
                self.trace.candidates.append(candidate)
                distinguishing = self.encoder.distinguishing_input(
                    self.trace.examples, candidate
                )
                if distinguishing is None:
                    candidate.input_names = tuple(
                        f"in{i}" for i in range(self.oracle.num_inputs)
                    )
                    return candidate
                self.trace.distinguishing_inputs.append(distinguishing)
                self._query_oracle(distinguishing)
        except BudgetExceededError as error:
            # SMT-level budgets (conflicts/deadline) surface here; keep the
            # evidence gathered so far attached to the error.
            raise self._attach_partial(error)
        raise self._attach_partial(
            BudgetExceededError(
                f"OGIS did not converge within {self.max_iterations} iterations"
            )
        )

    # -- SciductionProcedure interface ------------------------------------------------

    def describe(self) -> dict[str, str]:
        return {
            "procedure": self.name,
            "H": self.hypothesis.describe(),
            "I": "learning from distinguishing inputs (I/O examples)",
            "D": "SMT (QF_BV) solving for candidate programs and distinguishing inputs",
        }

    def _run(self, **_: object) -> SciductionResult[LoopFreeProgram]:
        try:
            program = self.synthesize()
        except UnrealizableError:
            return SciductionResult(
                success=False,
                artifact=None,
                iterations=self.trace.iterations,
                oracle_queries=self.trace.oracle_queries,
                details={"outcome": "infeasibility-reported"},
            )
        smt_statistics = self.encoder.smt_statistics()
        return SciductionResult(
            success=True,
            artifact=program,
            iterations=self.trace.iterations,
            oracle_queries=self.trace.oracle_queries,
            details={
                "program": program.pretty(),
                "synthesis_queries": self.encoder.statistics.synthesis_queries,
                "distinguishing_queries": self.encoder.statistics.distinguishing_queries,
                "smt_variables_generated": smt_statistics.variables_generated,
                "smt_clauses_generated": smt_statistics.clauses_generated,
            },
        )
