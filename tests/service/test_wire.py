"""Wire-envelope validation of the HTTP front end."""

from __future__ import annotations

import pytest

from repro.service.wire import WireError, parse_job_request


def _valid_problem() -> dict:
    return {"kind": "deobfuscation", "task": "multiply45", "width": 4}


class TestParseJobRequest:
    def test_minimal_request_round_trips_the_problem(self):
        parsed = parse_job_request({"problem": _valid_problem()})
        assert parsed["problem"]["kind"] == "deobfuscation"
        assert parsed["problem"]["width"] == 4
        assert parsed["max_conflicts"] is None
        assert parsed["timeout"] is None
        assert parsed["label"] is None

    def test_options_are_normalized(self):
        parsed = parse_job_request(
            {
                "problem": _valid_problem(),
                "max_conflicts": 100,
                "timeout": 5,
                "label": "smoke",
            }
        )
        assert parsed["max_conflicts"] == 100
        assert parsed["timeout"] == 5.0 and isinstance(parsed["timeout"], float)
        assert parsed["label"] == "smoke"

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not-a-dict", "JSON object"),
            ({}, "'problem'"),
            ({"problem": []}, "'problem'"),
            ({"problem": {"kind": "nope"}}, "unknown problem kind"),
            (
                {"problem": {"kind": "deobfuscation", "bogus": 1}},
                "unknown fields",
            ),
            ({"problem": _valid_problem(), "extra": 1}, "unknown request fields"),
            ({"problem": _valid_problem(), "timeout": "fast"}, "'timeout'"),
            ({"problem": _valid_problem(), "timeout": -1}, "non-negative"),
            ({"problem": _valid_problem(), "max_conflicts": True}, "'max_conflicts'"),
            ({"problem": _valid_problem(), "label": 7}, "'label'"),
            # JSON's 1e400 and Infinity parse to inf, NaN to nan.
            ({"problem": _valid_problem(), "max_conflicts": float("inf")}, "finite"),
            ({"problem": _valid_problem(), "max_conflicts": float("nan")}, "finite"),
            ({"problem": _valid_problem(), "timeout": float("inf")}, "finite"),
            ({"problem": _valid_problem(), "timeout": float("nan")}, "finite"),
            ({"problem": _valid_problem(), "timeout": 10**400}, "finite"),
            ({"problem": _valid_problem(), "max_conflicts": 2.5}, "integer"),
        ],
    )
    def test_malformed_requests_fail_with_400(self, payload, fragment):
        with pytest.raises(WireError) as excinfo:
            parse_job_request(payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"integration_step": 0}, "positive"),
            ({"integration_step": -0.1}, "positive"),
            ({"integration_step": float("nan")}, "finite"),
            ({"integration_step": "x"}, "number"),
            ({"horizon": -5}, "positive"),
            ({"horizon": float("nan")}, "finite"),
            ({"horizon": float("inf")}, "finite"),
            ({"horizon": 10**400}, "finite"),
            ({"omega_step": 0}, "positive"),
            ({"omega_step": True}, "number"),
            ({"dwell_time": -1}, "non-negative"),
            ({"dwell_time": float("nan")}, "finite"),
            ({"validate_corners": 3}, "boolean"),
            ({"system": 7}, "string"),
        ],
    )
    def test_malformed_switching_specs_fail_with_400(self, fields, fragment):
        problem = {"kind": "switching-logic", **fields}
        with pytest.raises(WireError) as excinfo:
            parse_job_request({"problem": problem})
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)
        assert next(iter(fields)) in str(excinfo.value)

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"start_state": "hot"}, "'cold' or 'warm'"),
            ({"start_state": 7}, "'cold' or 'warm'"),
            ({"start_state": "snapshot"}, "'cold' or 'warm'"),
            ({"bound": float("nan")}, "integer"),
            ({"bound": "abc"}, "integer"),
            ({"bound": True}, "integer"),
            ({"bound": 10.0}, "integer"),
            ({"trials": 1.5}, "integer"),
            ({"trials": 0}, "at least 1"),
            ({"seed": "x"}, "integer"),
            ({"max_paths": -1}, "at least 1"),
            ({"trials": 10**12}, "at most 4096"),
            ({"max_paths": 10**12}, "at most 4096"),
            ({"distribution": "yes"}, "boolean"),
            ({"program": 7}, "string"),
            ({"program": "nope"}, "unknown timing-analysis program"),
            ({"program_args": [16]}, "object"),
            ({"program_args": {"exponent_bits": "x"}}, "must be an integer"),
            ({"program_args": {"exponent_bits": True}}, "must be an integer"),
            ({"program_args": {"word_width": 16.0}}, "must be an integer"),
            ({"program_args": {"exponent_bits": 24}}, "must be in [0, 16]"),
            ({"program_args": {"exponent_bits": -1}}, "must be in [0, 16]"),
            ({"program_args": {"word_width": 0}}, "must be in [1, 64]"),
            ({"program_args": {"word_width": 65}}, "must be in [1, 64]"),
            ({"program_args": {"length": 4}}, "not a parameter"),
            (
                {"program_args": {"length": 16}, "program": "bounded_linear_search"},
                "must be in [0, 8]",
            ),
            (
                {"program_args": {"length": 400}, "program": "bounded_linear_search"},
                "must be in [0, 8]",
            ),
            (
                {"program_args": {"depth": 17}, "program": "conditional_cascade"},
                "must be in [0, 16]",
            ),
            (
                {"program_args": {"depth": 4}, "program": "saturating_add"},
                "not a parameter",
            ),
        ],
    )
    def test_malformed_timing_specs_fail_with_400(self, fields, fragment):
        problem = {"kind": "timing-analysis", **fields}
        with pytest.raises(WireError) as excinfo:
            parse_job_request({"problem": problem})
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)
        assert next(iter(fields)) in str(excinfo.value)

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"task": "nope"}, "unknown deobfuscation task"),
            ({"task": ["multiply45"]}, "unknown deobfuscation task"),
            ({"width": "8"}, "integer"),
            ({"width": True}, "integer"),
            ({"width": 0}, "at least 1"),
            ({"width": -3}, "at least 1"),
            ({"width": 65}, "at most 64"),
            ({"max_iterations": 0}, "at least 1"),
            ({"max_iterations": -1}, "at least 1"),
            ({"max_iterations": 65}, "at most 64"),
            ({"initial_examples": 65, "width": 8}, "at most 64"),
            ({"initial_examples": 1.5}, "integer"),
            ({"initial_examples": -2}, "at least 1"),
            # multiply45 at width 4 has 16 distinct inputs to draw from.
            ({"initial_examples": 17}, "at most 2**4"),
            ({"seed": "x"}, "integer"),
            ({"seed": False}, "integer"),
            ({"examples": "abc"}, "must be a list"),
            ({"examples": [3]}, "[inputs, outputs] pair"),
            ({"examples": [[[1], [13], [0]]]}, "[inputs, outputs] pair"),
            ({"examples": [[[1, 2], [3]]]}, "1 input(s) and 1 output(s)"),
            ({"examples": [[[16], [0]]]}, "[0, 2**width)"),
            ({"examples": [[[-1], [3]]]}, "[0, 2**width)"),
            ({"examples": [[[True], [13]]]}, "[0, 2**width)"),
            ({"examples": [[[1], [13.0]]]}, "[0, 2**width)"),
            ({"examples": [[[3], [7]]] * 65}, "at most 64 examples"),
            # The oracle maps 1 to 45 mod 16 = 13 at width 4.
            ({"examples": [[[1], [5]]]}, "disagrees with the oracle"),
            ({"examples": [[[3], [7]], [[1], [5]]]}, "'examples'[1] disagrees"),
            (
                {"examples": [[[1, 2], [1, 2]]], "task": "interchange"},
                "maps [1, 2] to [2, 1]",
            ),
        ],
    )
    def test_malformed_deobfuscation_specs_fail_with_400(self, fields, fragment):
        problem = {**_valid_problem(), **fields}
        with pytest.raises(WireError) as excinfo:
            parse_job_request({"problem": problem})
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)
        assert next(iter(fields)) in str(excinfo.value)

    def test_timing_spec_boundaries_are_accepted(self):
        problem = {
            "kind": "timing-analysis",
            "program": "saturating_add",
            "program_args": {"word_width": 8},
            "bound": -5,
            "trials": 1,
            "seed": -1,
            "start_state": "warm",
            "distribution": True,
            "max_paths": 1,
        }
        parsed = parse_job_request({"problem": problem})
        assert parsed["problem"] == problem

    @pytest.mark.parametrize(
        "program, program_args",
        [
            ("modular_exponentiation", {"exponent_bits": 16, "word_width": 64}),
            ("modular_exponentiation", {"exponent_bits": 0, "word_width": 1}),
            ("conditional_cascade", {"depth": 16}),
            ("bounded_linear_search", {"length": 8, "word_width": 1}),
            ("figure4_toy", {}),
        ],
    )
    def test_timing_program_arg_bounds_are_accepted(self, program, program_args):
        problem = {
            "kind": "timing-analysis",
            "program": program,
            "program_args": program_args,
        }
        parsed = parse_job_request({"problem": problem})
        assert parsed["problem"]["program_args"] == program_args

    def test_switching_spec_boundaries_are_accepted(self):
        problem = {
            "kind": "switching-logic",
            "dwell_time": 0,
            "omega_step": 1,
            "integration_step": 0.5,
            "horizon": 10,
            "validate_corners": True,
        }
        parsed = parse_job_request({"problem": problem})
        # Validation never rewrites a value: the wire form (and with it
        # the spec's certificate fingerprint) is exactly what was sent.
        assert parsed["problem"] == {"system": "transmission", **problem}

    def test_integral_float_conflict_budget_is_accepted(self):
        parsed = parse_job_request({"problem": _valid_problem(), "max_conflicts": 3.0})
        assert parsed["max_conflicts"] == 3 and isinstance(parsed["max_conflicts"], int)
