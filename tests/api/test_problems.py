"""Problem-spec declarations: JSON round-trips and registry dispatch."""

import json

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.api import (
    DeobfuscationProblem,
    ProblemSpec,
    SwitchingLogicProblem,
    TimingAnalysisProblem,
    deobfuscation_task_names,
    problem_from_dict,
    problem_types,
    register_problem_type,
    timing_program_names,
)
from repro.ogis import synthesizer
from repro.core.exceptions import BudgetExceededError, ReproError


class TestSpecRoundTrips:
    SPECS = [
        DeobfuscationProblem(task="interchange", width=6, seed=3,
                             max_iterations=11, initial_examples=2),
        TimingAnalysisProblem(program="bounded_linear_search",
                              program_args={"length": 3, "word_width": 16},
                              bound=250, trials=9, seed=4),
        SwitchingLogicProblem(system="transmission", dwell_time=5.0,
                              omega_step=0.25, horizon=40.0,
                              validate_corners=True),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_roundtrip_through_registry(self, spec):
        data = spec.to_dict()
        assert data["kind"] == spec.kind
        rebuilt = problem_from_dict(data)
        assert type(rebuilt) is type(spec)
        assert rebuilt == spec
        # The wire form is genuinely JSON-serializable.
        import json

        assert problem_from_dict(json.loads(json.dumps(data))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown problem kind"):
            problem_from_dict({"kind": "alchemy"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ReproError, match="unknown fields"):
            problem_from_dict({"kind": "deobfuscation", "task": "multiply45",
                               "librarry": []})

    def test_builtin_kinds_registered(self):
        kinds = problem_types()
        assert {"deobfuscation", "timing-analysis", "switching-logic"} <= set(kinds)

    def test_name_catalogues(self):
        assert "multiply45" in deobfuscation_task_names()
        assert "multiply45_insufficient" in deobfuscation_task_names()
        assert "modular_exponentiation" in timing_program_names()


class TestRegistryExtension:
    def test_new_problem_type_plugs_in_without_touching_the_engine(self):
        @register_problem_type
        @dataclass
        class NullProblem(ProblemSpec):
            kind: ClassVar[str] = "test-null"
            needs_solver: ClassVar[bool] = False
            marker: int = 7

        try:
            rebuilt = problem_from_dict({"kind": "test-null", "marker": 9})
            assert isinstance(rebuilt, NullProblem) and rebuilt.marker == 9
        finally:
            problem_types_registry = __import__(
                "repro.api.problems", fromlist=["_PROBLEM_TYPES"]
            )._PROBLEM_TYPES
            problem_types_registry.pop("test-null", None)

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            @register_problem_type
            @dataclass
            class Impostor(ProblemSpec):
                kind: ClassVar[str] = "deobfuscation"

    def test_abstract_kind_rejected(self):
        with pytest.raises(ReproError, match="concrete 'kind'"):
            @register_problem_type
            @dataclass
            class Nameless(ProblemSpec):
                pass

    def test_unknown_task_names_fail_loudly(self):
        with pytest.raises(ReproError, match="unknown deobfuscation task"):
            DeobfuscationProblem(task="nonexistent").build()
        with pytest.raises(ReproError, match="unknown timing-analysis program"):
            TimingAnalysisProblem(program="nonexistent").build()
        with pytest.raises(ReproError, match="unknown switching-logic system"):
            SwitchingLogicProblem(system="nonexistent").build()


class TestShapeKeys:
    def test_shape_keys_encode_kind_and_width(self):
        assert DeobfuscationProblem(width=4).shape_key() == "deobfuscation/w4"
        assert DeobfuscationProblem(width=8).shape_key() == "deobfuscation/w8"
        timing = TimingAnalysisProblem(
            program="bounded_linear_search", program_args={"word_width": 16}
        )
        assert timing.shape_key() == "timing-analysis/bounded_linear_search/w16"
        assert SwitchingLogicProblem().shape_key() == "switching-logic"

    def test_same_shape_means_same_key_different_seeds(self):
        a = DeobfuscationProblem(task="multiply45", width=4, seed=0)
        b = DeobfuscationProblem(task="multiply45", width=4, seed=7)
        assert a.shape_key() == b.shape_key()


class TestResumableExamples:
    def test_examples_survive_the_wire(self):
        spec = DeobfuscationProblem(
            task="multiply45",
            width=4,
            examples=[[[3], [7]], [[5], [1]]],
        )
        rebuilt = problem_from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt.examples == [[[3], [7]], [[5], [1]]]

    def test_examples_seed_the_synthesizer_trace(self):
        spec = DeobfuscationProblem(
            task="multiply45", width=4, examples=[[[3], [7]]]
        )
        procedure = spec.build()
        assert [
            (list(example.inputs), list(example.outputs))
            for example in procedure.trace.examples
        ] == [([3], [7])]

    def test_a_runs_own_partial_examples_always_decode(self, monkeypatch):
        # multiply45/w4/seed0 converges on its second example.  Under a
        # one-example bound the first round stops before it queries that
        # example, so the partial stays within the bound, decodes as a
        # resubmission, and the resubmission stops the same way.
        monkeypatch.setattr(synthesizer, "MAX_EXAMPLES", 1)
        spec = DeobfuscationProblem(task="multiply45", width=4, seed=0, max_iterations=1)
        for _ in range(2):
            with pytest.raises(BudgetExceededError, match="more than 1 examples") as excinfo:
                spec.build().synthesize()
            examples = excinfo.value.partial["examples"]
            assert len(examples) == 1
            spec = DeobfuscationProblem(
                task="multiply45", width=4, seed=0, max_iterations=1, examples=examples
            )

    def test_example_bounds_are_accepted(self):
        bound = synthesizer.MAX_EXAMPLES
        DeobfuscationProblem(
            task="interchange", width=4, max_iterations=bound, initial_examples=bound
        )
        DeobfuscationProblem(task="multiply45", width=4, examples=[[[3], [7]]] * bound)
