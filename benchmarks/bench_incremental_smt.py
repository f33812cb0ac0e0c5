"""Benchmark — incremental vs. one-shot SMT solving across the stack.

The OGIS synthesis loop (paper Section 4) and the GameTime basis-path
front end (paper Section 3) both issue long sequences of closely related
deductive queries.  This benchmark measures what the incremental
:class:`~repro.smt.solver.SmtSolver` — persistent CDCL solver +
bit-blaster, activation-literal push/pop scopes, assumption-based
``check(*extra)`` — saves over a fresh solver per query, which re-blasts
the whole encoding every time:

* the Figure 8 deobfuscation workloads: one persistent solver serves all
  candidate-program and distinguishing-input queries of an OGIS run.  The
  baseline here is :class:`OneShotEncoder`, a faithful reproduction of the
  pre-incremental per-query construction (fresh solver, full re-blast,
  separate synthesis/distinguishing encodings), so the comparison is not
  flattered by architecture changes the old code never had;
* the Figure 6 modexp front end: per-path feasibility queries share one
  solver, so structurally shared path prefixes are bit-blasted once.  The
  baseline builds a fresh :class:`~repro.cfg.ssa.PathConstraintBuilder`
  (and with it a fresh solver) for every path.

Both modes must issue identical verdicts; across the deobfuscation runs
the incremental mode must generate at least 2x fewer SAT variables and
clauses.  The stale-model regression (model() after an UNSAT answer) is
also pinned here because the incremental design depends on it.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table, run_once

from repro.cfg import build_cfg, enumerate_paths, modular_exponentiation
from repro.cfg.lang import Program
from repro.cfg.programs import bounded_linear_search
from repro.cfg.ssa import PathConstraintBuilder
from repro.core import SolverError, UnrealizableError
from repro.ogis import (
    OgisSynthesizer,
    ProgramIOOracle,
    SynthesisEncoder,
    interchange_library,
    interchange_obfuscated,
    interchange_reference,
    multiply45_library,
    multiply45_obfuscated,
    multiply45_reference,
)
from repro.smt import CdclSolver, SatResult, SmtResult, SmtSolver, SmtStatistics, make_literal
from repro.smt.terms import bool_or, bv_var


class OneShotEncoder(SynthesisEncoder):
    """Faithful pre-incremental baseline for the OGIS deductive engine.

    Reproduces the original per-query construction: every ``synthesize``
    and ``distinguishing_input`` call builds a *fresh* solver and re-blasts
    its whole encoding, and the two query kinds use separate encodings
    (synthesis queries never carry the symbolic-run dataflow skeleton that
    the shared incremental solver asserts up front).  This keeps the
    benchmark's baseline honest: it measures exactly the work the old
    architecture did, not the new architecture minus solver reuse.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._oneshot_statistics = SmtStatistics()

    def smt_statistics(self):
        return self._oneshot_statistics

    def _absorb(self, solver):
        self._oneshot_statistics = self._oneshot_statistics.merged_with(
            solver.statistics
        )

    def synthesize(self, examples):
        self.statistics.synthesis_queries += 1
        solver = SmtSolver()
        locations = self._locations("s")
        solver.add(*self.well_formedness(locations))
        for number, example in enumerate(examples):
            solver.add(*self.example_constraints(locations, example, tag=f"s{number}"))
        verdict = solver.check()
        self._absorb(solver)
        if verdict is not SmtResult.SAT:
            self.statistics.unsat_results += 1
            raise UnrealizableError(
                "no loop-free composition of the library is consistent with the examples"
            )
        self.statistics.sat_results += 1
        return self._program_from_model(solver, locations)

    def distinguishing_input(self, examples, candidate):
        self.statistics.distinguishing_queries += 1
        solver = SmtSolver()
        locations = self._locations("d")
        solver.add(*self.well_formedness(locations))
        for number, example in enumerate(examples):
            solver.add(*self.example_constraints(locations, example, tag=f"d{number}"))
        symbolic_inputs = [
            bv_var(f"distinguishing_in_{index}", self.width)
            for index in range(self.num_inputs)
        ]
        alternative_outputs = [
            bv_var(f"alt_out_{index}", self.width) for index in range(self.num_outputs)
        ]
        solver.add(
            *self._dataflow(locations, symbolic_inputs, alternative_outputs, tag="dx")
        )
        candidate_outputs = self._symbolic_execution(candidate, symbolic_inputs)
        solver.add(
            bool_or(
                *(
                    alternative.ne(candidate_output)
                    for alternative, candidate_output in zip(
                        alternative_outputs, candidate_outputs
                    )
                )
            )
        )
        verdict = solver.check()
        self._absorb(solver)
        if verdict is not SmtResult.SAT:
            self.statistics.unsat_results += 1
            return None
        self.statistics.sat_results += 1
        return tuple(
            self._model_int(solver, variable) for variable in symbolic_inputs
        )


#: (task name, library factory, obfuscated fn, reference fn, n_in, n_out, width, seed)
#: The narrower multiply45 widths take several OGIS iterations to converge
#: (one random example pins the program down less), which is the regime the
#: incremental solver targets — long sequences of closely related queries.
DEOBFUSCATION_TASKS = (
    ("interchange w8", interchange_library, interchange_obfuscated, interchange_reference, 2, 2, 8, 1),
    ("multiply45 w8", multiply45_library, multiply45_obfuscated, multiply45_reference, 1, 1, 8, 1),
    ("multiply45 w5", multiply45_library, multiply45_obfuscated, multiply45_reference, 1, 1, 5, 0),
    ("multiply45 w4", multiply45_library, multiply45_obfuscated, multiply45_reference, 1, 1, 4, 0),
    ("multiply45 w4b", multiply45_library, multiply45_obfuscated, multiply45_reference, 1, 1, 4, 1),
)


def _run_deobfuscation(oneshot: bool):
    rows = []
    for name, library, obfuscated, reference, n_in, n_out, width, seed in DEOBFUSCATION_TASKS:
        oracle = ProgramIOOracle(
            lambda values, fn=obfuscated, w=width: fn(values, w), n_in, n_out, width
        )
        synthesizer = OgisSynthesizer(library(), oracle, width=width, seed=seed)
        if oneshot:
            synthesizer.encoder = OneShotEncoder(
                synthesizer.library,
                num_inputs=oracle.num_inputs,
                num_outputs=oracle.num_outputs,
                width=synthesizer.width,
            )
        start = time.perf_counter()
        program = synthesizer.synthesize()
        elapsed = time.perf_counter() - start
        statistics = synthesizer.encoder.smt_statistics()
        rows.append(
            {
                "task": name,
                "ok": program.equivalent_to(
                    lambda values, fn=reference, w=width: fn(values, w), width=width
                ),
                "iterations": synthesizer.trace.iterations,
                "variables": statistics.variables_generated,
                "clauses": statistics.clauses_generated,
                "seconds": elapsed,
            }
        )
    return rows


def _run_feasibility_sweep(program: Program, fresh_per_path: bool):
    cfg = build_cfg(program)
    shared = PathConstraintBuilder(cfg)
    fresh_statistics = SmtStatistics()
    verdicts = []
    start = time.perf_counter()
    for path in enumerate_paths(cfg):
        if fresh_per_path:
            fresh = PathConstraintBuilder(cfg)
            verdicts.append(fresh.is_feasible(path))
            fresh_statistics = fresh_statistics.merged_with(fresh.smt_statistics)
        else:
            verdicts.append(shared.is_feasible(path))
    elapsed = time.perf_counter() - start
    statistics = fresh_statistics if fresh_per_path else shared.smt_statistics
    return {
        "verdicts": verdicts,
        "feasible": sum(verdicts),
        "variables": statistics.variables_generated,
        "clauses": statistics.clauses_generated,
        "seconds": elapsed,
    }


def _run_all():
    return {
        "ogis": {
            "incremental": _run_deobfuscation(oneshot=False),
            "oneshot": _run_deobfuscation(oneshot=True),
        },
        "sweeps": {
            name: {
                "incremental": _run_feasibility_sweep(program, fresh_per_path=False),
                "oneshot": _run_feasibility_sweep(program, fresh_per_path=True),
            }
            for name, program in (
                ("modexp(8)", modular_exponentiation(8, 16)),
                ("linear_search(4)", bounded_linear_search(4, 16)),
            )
        },
    }


def test_incremental_smt(benchmark):
    results = run_once(benchmark, _run_all)

    table_rows = []
    for incremental, oneshot in zip(
        results["ogis"]["incremental"], results["ogis"]["oneshot"]
    ):
        table_rows.append(
            [
                incremental["task"],
                str(incremental["iterations"]),
                f"{incremental['variables']} / {oneshot['variables']}",
                f"{incremental['clauses']} / {oneshot['clauses']}",
                f"{incremental['seconds']:.2f} / {oneshot['seconds']:.2f}",
            ]
        )
    print_table(
        "OGIS deobfuscation — incremental / one-shot baseline",
        ["task", "iterations", "SAT vars", "SAT clauses", "seconds"],
        table_rows,
    )
    sweep_rows = []
    for name, modes in results["sweeps"].items():
        incremental, oneshot = modes["incremental"], modes["oneshot"]
        sweep_rows.append(
            [
                name,
                f"{incremental['feasible']}/{len(incremental['verdicts'])}",
                f"{incremental['variables']} / {oneshot['variables']}",
                f"{incremental['clauses']} / {oneshot['clauses']}",
                f"{incremental['seconds']:.2f} / {oneshot['seconds']:.2f}",
            ]
        )
    print_table(
        "Path-feasibility sweeps — incremental / fresh builder per path",
        ["program", "feasible paths", "SAT vars", "SAT clauses", "seconds"],
        sweep_rows,
    )

    # Same verdicts in both modes.
    for incremental, oneshot in zip(
        results["ogis"]["incremental"], results["ogis"]["oneshot"]
    ):
        assert incremental["ok"] and oneshot["ok"], incremental["task"]
    for name, modes in results["sweeps"].items():
        assert modes["incremental"]["verdicts"] == modes["oneshot"]["verdicts"], name

    # >= 2x fewer SAT variables and clauses across the OGIS runs.
    incremental_variables = sum(r["variables"] for r in results["ogis"]["incremental"])
    oneshot_variables = sum(r["variables"] for r in results["ogis"]["oneshot"])
    incremental_clauses = sum(r["clauses"] for r in results["ogis"]["incremental"])
    oneshot_clauses = sum(r["clauses"] for r in results["ogis"]["oneshot"])
    assert oneshot_variables >= 2 * incremental_variables
    assert oneshot_clauses >= 2 * incremental_clauses
    # The sweeps share one solver per CFG too.  Clause counts can tie on
    # heavily sliced encodings; the variable reduction is the structural
    # win.
    for modes in results["sweeps"].values():
        assert modes["incremental"]["variables"] < modes["oneshot"]["variables"]
        assert modes["incremental"]["clauses"] <= modes["oneshot"]["clauses"]

    benchmark.extra_info.update(
        {
            "ogis_variable_reduction": oneshot_variables / max(incremental_variables, 1),
            "ogis_clause_reduction": oneshot_clauses / max(incremental_clauses, 1),
        }
    )


def test_model_after_unsat_raises():
    # Regression pinned alongside the benchmark: incremental callers must
    # never read a model left over from an earlier SAT answer.
    solver = CdclSolver()
    x = solver.new_variable()
    solver.add_clause([make_literal(x)])
    assert solver.solve() is SatResult.SAT
    assert solver.model()[x] is True
    solver.add_clause([make_literal(x, True)])
    assert solver.solve() is SatResult.UNSAT
    with pytest.raises(SolverError):
        solver.model()
