"""Switching logic synthesis for safety (and dwell time) — paper Section 5.

The overall sciductive procedure operates inside a fixpoint loop
(paper Section 5.2, last paragraph):

1. initialise every transition guard with an over-approximate hyperbox
   (the safety region for ordinary guards; the designated point for the
   "return to neutral" guard of the transmission example);
2. for every transition entering a mode ``m``, shrink its guard to the
   maximal hyperbox of *safe switching states*: states from which the
   intra-mode trajectory stays safe until it can take one of ``m``'s exit
   transitions (whose guards are the current estimates), respecting the
   mode's minimum dwell time;
3. repeat until no guard changes — since guards only shrink and all
   endpoints live on a finite grid, the loop terminates.

Safe/unsafe labels come from the numerical-simulation reachability oracle
(the deductive engine); the per-guard shrinking is hyperbox learning by
binary search (the inductive engine); the hyperbox-on-a-grid restriction
is the structure hypothesis.  If the structure hypothesis holds and the
simulator is ideal, the result is sound and complete (paper Section 5.3);
the synthesizer additionally performs corner validation of every learned
guard as a-posteriori evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.exceptions import ReproError
from repro.core.hypothesis import GridSpec, HypothesisValidityEvidence
from repro.core.procedure import SciductionProcedure, SciductionResult
from repro.hybrid.hyperbox import Hyperbox, HyperboxHypothesis
from repro.hybrid.learner import HyperboxLearner
from repro.hybrid.mds import MultiModalSystem, SwitchingLogic
from repro.hybrid.reachability import ReachabilityOracle, SwitchingStateLabeler


@dataclass
class SynthesisReport:
    """Outcome of switching-logic synthesis.

    Attributes:
        switching_logic: the synthesized guard for every transition.
        iterations: number of fixpoint iterations performed.
        labeling_queries: total number of simulation (labeling) queries.
        corner_checks_passed: whether every learned guard's corners were
            re-validated as safe (structure-hypothesis evidence).
        empty_guards: transitions whose guard collapsed to the empty box
            (their seed state turned out to be unsafe).
    """

    switching_logic: SwitchingLogic
    iterations: int
    labeling_queries: int
    corner_checks_passed: bool
    empty_guards: list[str] = field(default_factory=list)

    def describe(self, precision: int = 2) -> dict[str, str]:
        """Human-readable guard table (Eq. 3 / Eq. 4 of the paper)."""
        return {
            name: box.describe(precision) for name, box in self.switching_logic.items()
        }


class SwitchingLogicSynthesizer(SciductionProcedure[SwitchingLogic]):
    """Synthesizes hyperbox guards making a multi-modal system safe.

    Args:
        system: the multi-modal dynamical system.
        grids: finite-precision grid per state dimension (the structure
            hypothesis requires guard vertices to lie on this grid).
        initial_guards: over-approximate guard per transition (every safe
            guard must be contained in it).
        seeds: per-transition seed states believed safe (a point in the
            guard from which the binary search starts).  Transitions
            without a seed default to the centre of their initial guard.
        reachability: the simulation-based labeling oracle.
        frozen_guards: transition names whose guards are fixed a priori
            and never shrunk (e.g. the ``θ = θmax ∧ ω = 0`` return-to-
            neutral guard of the transmission example).
        max_iterations: bound on fixpoint iterations.
        validate_corners: whether to re-check the corners of every learned
            guard (extra simulations; provides hypothesis evidence).
    """

    name = "switching-logic-synthesis"

    def __init__(
        self,
        system: MultiModalSystem,
        grids: Mapping[str, GridSpec],
        initial_guards: Mapping[str, Hyperbox],
        reachability: ReachabilityOracle,
        seeds: Mapping[str, Mapping[str, float]] | None = None,
        frozen_guards: set[str] | None = None,
        max_iterations: int = 10,
        validate_corners: bool = True,
    ):
        self.system = system
        self.grids = dict(grids)
        self.initial_guards = {
            name: box.snapped(self.grids) for name, box in initial_guards.items()
        }
        missing = [
            t.name for t in system.transitions if t.name not in self.initial_guards
        ]
        if missing:
            raise ReproError(f"missing initial guards for transitions: {missing}")
        self.reachability = reachability
        self.seeds = {name: dict(seed) for name, seed in (seeds or {}).items()}
        self.frozen_guards = set(frozen_guards or ())
        self.max_iterations = max_iterations
        self.validate_corners = validate_corners
        self.learner = HyperboxLearner(self.grids)
        self._corner_checks_passed = True
        super().__init__(hypothesis=HyperboxHypothesis(self.grids))

    # -- soundness ----------------------------------------------------------------

    def hypothesis_evidence(self) -> HypothesisValidityEvidence:
        evidence = HypothesisValidityEvidence(
            hypothesis_name=self.hypothesis.name,
            proved=False,
            argument=(
                "valid when intra-mode dynamics are monotone in each state "
                "variable and guard constants have finite precision (paper Sec. 5.2)"
            ),
        )
        if self.validate_corners:
            evidence.checked_instances += 1
            evidence.add_note(
                "corner re-validation "
                + ("passed" if self._corner_checks_passed else "FAILED")
            )
            if not self._corner_checks_passed:
                evidence.counterexample = "a learned guard corner was labeled unsafe"
        return evidence

    def soundness_argument(self) -> str:
        return (
            "guards start from over-approximations and only shrink to states the "
            "(ideal) simulator labels safe w.r.t. the current exit guards, so at "
            "the fixpoint every reachable switching state is safe (paper Sec. 5.3)"
        )

    # -- the fixpoint loop -------------------------------------------------------------

    def _seed_for(self, transition_name: str, guard: Hyperbox) -> dict[str, float]:
        if transition_name in self.seeds:
            return dict(self.seeds[transition_name])
        return guard.center()

    def synthesize(self) -> SynthesisReport:
        """Run the fixpoint loop and return the synthesized switching logic."""
        guards: SwitchingLogic = dict(self.initial_guards)
        queries_before = self.reachability.simulations
        empty_guards: list[str] = []
        iterations = 0
        for iteration in range(1, self.max_iterations + 1):
            iterations = iteration
            changed = False
            for transition in self.system.transitions:
                if transition.name in self.frozen_guards:
                    continue
                current = guards[transition.name]
                if current.is_empty:
                    continue
                target_mode = self.system.modes[transition.target]
                exit_guards = {
                    exit_transition.name: guards[exit_transition.name]
                    for exit_transition in self.system.exits_of(transition.target)
                }
                labeler = SwitchingStateLabeler(
                    self.reachability,
                    mode=transition.target,
                    exit_guards=exit_guards,
                    min_dwell=target_mode.min_dwell,
                )
                seed = self._seed_for(transition.name, current)
                result = self.learner.learn(current, labeler, seed)
                new_guard = (
                    result.box
                    if result.box.is_empty
                    else result.box.intersect(current).snapped(self.grids)
                )
                if not result.seed_was_safe:
                    if transition.name not in empty_guards:
                        empty_guards.append(transition.name)
                if not new_guard.equals(current):
                    guards[transition.name] = new_guard
                    changed = True
            if not changed:
                break
        if self.validate_corners:
            self._corner_checks_passed = self._validate(guards)
        return SynthesisReport(
            switching_logic=guards,
            iterations=iterations,
            labeling_queries=self.reachability.simulations - queries_before,
            corner_checks_passed=self._corner_checks_passed,
            empty_guards=empty_guards,
        )

    def _validate(self, guards: SwitchingLogic) -> bool:
        """Re-check every guard's corners against the final guard estimates."""
        all_passed = True
        for transition in self.system.transitions:
            if transition.name in self.frozen_guards:
                continue
            guard = guards[transition.name]
            if guard.is_empty:
                continue
            target_mode = self.system.modes[transition.target]
            exit_guards = {
                exit_transition.name: guards[exit_transition.name]
                for exit_transition in self.system.exits_of(transition.target)
            }
            labeler = SwitchingStateLabeler(
                self.reachability,
                mode=transition.target,
                exit_guards=exit_guards,
                min_dwell=target_mode.min_dwell,
            )
            if not self.learner.validate_corners(guard, labeler):
                all_passed = False
        return all_passed

    # -- SciductionProcedure interface --------------------------------------------------

    def describe(self) -> dict[str, str]:
        return {
            "procedure": self.name,
            "H": self.hypothesis.describe(),
            "I": "hyperbox learning (binary search) from safe/unsafe labeled states",
            "D": "numerical ODE simulation as a reachability oracle",
        }

    def _run(self, **_: object) -> SciductionResult[SwitchingLogic]:
        simulations_before = self.reachability.simulations
        report = self.synthesize()
        success = all(
            not box.is_empty
            for name, box in report.switching_logic.items()
        )
        return SciductionResult(
            success=success,
            artifact=report.switching_logic,
            iterations=report.iterations,
            oracle_queries=report.labeling_queries,
            deductive_queries=self.reachability.simulations - simulations_before,
            details={
                "guards": report.describe(),
                "corner_checks_passed": report.corner_checks_passed,
                "empty_guards": report.empty_guards,
            },
        )
