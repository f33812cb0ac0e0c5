"""Tests for the synthesis encoder, the OGIS loop, and the baselines.

To keep the SAT queries small these tests use narrow widths (4 bits) and
tiny libraries; the full-width Figure 8 reproductions live in the
benchmark suite.
"""

import pytest

from repro.core import UnrealizableError
from repro.ogis import (
    EnumerativeSynthesizer,
    IOExample,
    OgisSynthesizer,
    ProgramIOOracle,
    SynthesisEncoder,
    component_add,
    component_library_hypothesis,
    component_shift_left,
    component_sub,
    component_xor,
    enumerate_programs,
    oracle_from_task_program,
)
from repro.cfg import Program, assign, binop, block, const, var


def _oracle(function, n_in, n_out, width=4):
    return ProgramIOOracle(function, n_in, n_out, width)


class TestSynthesisEncoder:
    def test_synthesize_consistent_program(self):
        encoder = SynthesisEncoder([component_xor()], num_inputs=2, num_outputs=1, width=4)
        examples = [IOExample((3, 5), (6,)), IOExample((1, 1), (0,))]
        program = encoder.synthesize(examples)
        for example in examples:
            assert program.run(example.inputs, width=4) == example.outputs

    def test_unrealizable_examples_rejected(self):
        encoder = SynthesisEncoder([component_xor()], num_inputs=2, num_outputs=1, width=4)
        # xor of the inputs (in any wiring) cannot produce these outputs.
        examples = [IOExample((0, 0), (5,))]
        with pytest.raises(UnrealizableError):
            encoder.synthesize(examples)

    def test_distinguishing_input_found_and_exhausted(self):
        encoder = SynthesisEncoder(
            [component_add(), component_xor()], num_inputs=2, num_outputs=1, width=4
        )
        examples = [IOExample((0, 0), (0,))]
        candidate = encoder.synthesize(examples)
        distinguishing = encoder.distinguishing_input(examples, candidate)
        # (0,0) cannot pin down add-vs-xor ordering; a distinguishing input
        # must exist.
        assert distinguishing is not None
        # After adding enough examples the loop converges (covered below).

    def test_semantic_difference(self):
        encoder = SynthesisEncoder([component_xor()], num_inputs=2, num_outputs=1, width=4)
        xor_prog = encoder.synthesize([IOExample((3, 5), (6,)), IOExample((2, 2), (0,))])
        add_encoder = SynthesisEncoder([component_add()], num_inputs=2, num_outputs=1, width=4)
        add_prog = add_encoder.synthesize([IOExample((1, 2), (3,))])
        witness = encoder.semantic_difference(xor_prog, add_prog)
        assert witness is not None
        assert xor_prog.run(witness, width=4) != add_prog.run(witness, width=4)
        assert encoder.semantic_difference(xor_prog, xor_prog) is None

    def test_symmetry_breaking_well_formedness(self):
        encoder = SynthesisEncoder(
            [component_xor(), component_xor()], num_inputs=1, num_outputs=1, width=4
        )
        program = encoder.synthesize([IOExample((5,), (5,))])
        # With two identical components their output lines must be ordered,
        # but the program must still reproduce the example.
        assert program.run((5,), width=4) == (5,)


class TestOgisSynthesizer:
    def test_recovers_double_function(self):
        oracle = _oracle(lambda v: ((v[0] + v[0]) % 16,), 1, 1)
        synthesizer = OgisSynthesizer([component_add()], oracle, width=4, seed=3)
        program = synthesizer.synthesize()
        assert program.equivalent_to(lambda v: ((v[0] * 2) % 16,), width=4)
        assert synthesizer.trace.oracle_queries >= 1

    def test_recovers_subtraction(self):
        oracle = _oracle(lambda v: ((v[0] - v[1]) % 16,), 2, 1)
        synthesizer = OgisSynthesizer([component_sub()], oracle, width=4, seed=5)
        program = synthesizer.synthesize()
        assert program.equivalent_to(lambda v: ((v[0] - v[1]) % 16,), width=4)

    def test_shift_add_composition(self):
        # 5*y = (y << 2) + y at width 4 -> coefficient 5 distinct from any
        # other reachable coefficient, so the result is exact.
        oracle = _oracle(lambda v: ((5 * v[0]) % 16,), 1, 1)
        synthesizer = OgisSynthesizer(
            [component_shift_left(2), component_add()], oracle, width=4, seed=2
        )
        program = synthesizer.synthesize()
        assert program.equivalent_to(lambda v: ((5 * v[0]) % 16,), width=4)

    def test_unrealizable_reports_infeasibility(self):
        oracle = _oracle(lambda v: ((v[0] + 1) % 16,), 1, 1)
        synthesizer = OgisSynthesizer([component_xor(), component_xor()], oracle, width=4, seed=1)
        result = synthesizer.run()
        assert not result.success
        assert result.details["outcome"] == "infeasibility-reported"

    def test_run_produces_certificate_and_trace(self):
        oracle = _oracle(lambda v: ((v[0] + v[1]) % 16,), 2, 1)
        synthesizer = OgisSynthesizer([component_add()], oracle, width=4, seed=9)
        result = synthesizer.run()
        assert result.success
        assert result.certificate is not None
        assert "loop-free" in result.certificate.statement()
        assert "program" in result.details

    def test_deductive_queries_counted(self):
        oracle = _oracle(lambda v: ((v[0] + v[1]) % 16,), 2, 1)
        result = OgisSynthesizer([component_add()], oracle, width=4, seed=9).run()
        details = result.details
        assert result.deductive_queries == (
            details["synthesis_queries"] + details["distinguishing_queries"]
        )
        assert result.deductive_queries >= 2
        # The infeasibility branch reports its SMT checks too.
        oracle = _oracle(lambda v: ((v[0] + 1) % 16,), 1, 1)
        synthesizer = OgisSynthesizer([component_xor(), component_xor()], oracle, width=4, seed=1)
        result = synthesizer.run()
        statistics = synthesizer.encoder.statistics
        assert not result.success
        assert result.deductive_queries == (
            statistics.synthesis_queries + statistics.distinguishing_queries
        )
        assert result.deductive_queries >= 1

    def test_hypothesis_membership_of_result(self):
        library = [component_add(), component_xor()]
        oracle = _oracle(lambda v: (((v[0] + v[1]) ^ v[0]) % 16,), 2, 1)
        synthesizer = OgisSynthesizer(library, oracle, width=4, seed=4)
        program = synthesizer.synthesize()
        hypothesis = component_library_hypothesis(library)
        assert hypothesis.contains(program)

    def test_oracle_from_task_program(self):
        task = Program(
            name="triple",
            parameters=("x",),
            body=block(assign("y", binop("*", var("x"), const(3)))),
            returns=("y",),
            word_width=4,
        )
        oracle = oracle_from_task_program(task)
        assert oracle.query((5,)) == ((15) % 16,)
        synthesizer = OgisSynthesizer(
            [component_shift_left(1), component_add()], oracle, width=4, seed=6
        )
        program = synthesizer.synthesize()
        assert program.equivalent_to(lambda v: ((3 * v[0]) % 16,), width=4)


class TestIncrementalEncoder:
    def test_growing_example_set_reuses_solver(self):
        encoder = SynthesisEncoder(
            [component_add(), component_xor()], num_inputs=2, num_outputs=1, width=4
        )
        examples = [IOExample((0, 0), (0,))]
        encoder.synthesize(examples)
        variables_first = encoder.smt_statistics().variables_generated
        examples.append(IOExample((1, 2), (3,)))
        encoder.synthesize(examples)
        variables_second = encoder.smt_statistics().variables_generated
        # The second call encodes only the new example, which is much
        # smaller than the initial well-formedness + example encoding.
        assert variables_second - variables_first < variables_first

    def test_non_extending_example_set_resets_solver(self):
        encoder = SynthesisEncoder([component_xor()], num_inputs=2, num_outputs=1, width=4)
        program = encoder.synthesize([IOExample((3, 5), (6,)), IOExample((1, 1), (0,))])
        assert program.run((3, 5), width=4) == (6,)
        # A disjoint example list (not an extension) still yields correct
        # results: the persistent solver is rebuilt.
        program = encoder.synthesize([IOExample((2, 7), (5,))])
        assert program.run((2, 7), width=4) == (5,)

    def test_distinguishing_assumption_does_not_leak(self):
        # Two consecutive distinguishing queries against *different*
        # candidates on the same encoder must be independent.  With the
        # single-XOR library the only consistent behaviours on (0,0)->(0,)
        # are `0` (xor(in0, in0)) and `in0 ^ in1`; if the first candidate's
        # disagreement constraint leaked into the solver (asserted instead
        # of assumed), the second query would demand a behaviour differing
        # from *both* and wrongly report convergence (None).
        from repro.ogis.program import ComponentInstance, LoopFreeProgram

        xor = component_xor()
        encoder = SynthesisEncoder([xor], num_inputs=2, num_outputs=1, width=4)
        examples = [IOExample((0, 0), (0,))]

        def xor_program(input_lines):
            return LoopFreeProgram(
                num_inputs=2,
                instances=[
                    ComponentInstance(
                        component=xor, input_lines=input_lines, output_line=2
                    )
                ],
                output_lines=(2,),
                width=4,
            )

        candidate_zero = xor_program((0, 0))  # computes 0
        candidate_xor = xor_program((0, 1))  # computes in0 ^ in1
        assert encoder.distinguishing_input(examples, candidate_zero) is not None
        assert encoder.distinguishing_input(examples, candidate_xor) is not None


class TestBaselines:
    def test_enumerate_programs_counts(self):
        programs = list(
            enumerate_programs([component_add()], num_inputs=2, num_outputs=1, width=4)
        )
        # One component, 2 inputs: wiring 2x2=4, outputs 3 lines -> 12 programs.
        assert len(programs) == 12

    def test_enumerative_baseline_matches_target(self):
        oracle = _oracle(lambda v: ((v[0] + v[0]) % 16,), 1, 1)
        baseline = EnumerativeSynthesizer([component_add()], oracle, width=4, seed=2)
        result = baseline.synthesize()
        assert result.program is not None
        assert result.program.equivalent_to(lambda v: ((2 * v[0]) % 16,), width=4)
        assert result.candidates_tested > 0
