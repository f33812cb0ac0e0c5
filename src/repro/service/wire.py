"""Request/response wire forms of the HTTP front end.

The service deliberately adds no serialization of its own: problems are
the engine's existing wire-form specs
(:func:`repro.api.problems.problem_from_dict`), results are the engine's
existing wire-form results (:func:`repro.api.results.result_to_dict`).
This module only validates the *envelope* — the job-submission payload
and the job record — and maps malformed input to structured HTTP errors
instead of tracebacks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.api.problems import problem_from_dict
from repro.core.exceptions import ReproError

if TYPE_CHECKING:  # a type-only edge; at runtime queue is a consumer of wire
    from repro.service.queue import ServiceJob


class WireError(ReproError):
    """A malformed request, carrying the HTTP status to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _optional_number(payload: dict, key: str, kind: type) -> Any:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"{key!r} must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise WireError(f"{key!r} must be finite, got {value}")
    if value < 0:
        raise WireError(f"{key!r} must be non-negative, got {value}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise WireError(f"{key!r} must be an integer, got {value}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise WireError(f"{key!r} must be finite, got {value}") from None


def parse_job_request(payload: Any) -> dict:
    """Validate a ``POST /jobs`` body.

    Expected shape::

        {"problem": {"kind": "deobfuscation", ...},   # required
         "max_conflicts": 10000,                      # optional
         "timeout": 30.0,                             # optional seconds
         "label": "nightly",                          # optional
         "client": "ci-shard-3"}                      # optional accounting tag

    Returns the normalized submission (the problem is round-tripped
    through the registry, so unknown kinds and unknown fields fail here,
    as a 400, not inside the engine).

    Raises:
        WireError: on any malformed field.
    """
    if not isinstance(payload, dict):
        raise WireError("request body must be a JSON object")
    unknown = set(payload) - {
        "problem", "max_conflicts", "timeout", "label", "client",
    }
    if unknown:
        raise WireError(f"unknown request fields: {sorted(unknown)}")
    problem_wire = payload.get("problem")
    if not isinstance(problem_wire, dict):
        raise WireError("'problem' must be a wire-form problem object")
    try:
        problem = problem_from_dict(problem_wire)
    except ReproError as error:
        raise WireError(str(error)) from error
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise WireError(f"'label' must be a string, got {type(label).__name__}")
    client = payload.get("client")
    if client is not None and not isinstance(client, str):
        raise WireError(
            f"'client' must be a string, got {type(client).__name__}"
        )
    return {
        "problem": problem.to_dict(),
        "max_conflicts": _optional_number(payload, "max_conflicts", int),
        "timeout": _optional_number(payload, "timeout", float),
        "label": label,
        "client": client,
    }


def job_record_wire(job: "ServiceJob") -> dict:
    """The ``GET /jobs/<id>`` record for a :class:`~repro.service.queue.ServiceJob`."""
    request = job.request
    view = job.view()
    outcome = view or {"error": None, "elapsed": 0.0}
    return {
        "job_id": job.job_id,
        "state": job.state,
        "done": view is not None,
        "problem": request.get("problem"),
        "max_conflicts": request.get("max_conflicts"),
        "timeout": request.get("timeout"),
        "label": request.get("label"),
        "client": request.get("client"),
        "error": outcome["error"],
        "elapsed": outcome["elapsed"],
        "from_certificate": job.from_certificate,
    }


def job_summary_wire(job: "ServiceJob") -> dict:
    """The compact entry used by ``GET /jobs``."""
    return {
        "job_id": job.job_id,
        "state": job.state,
        "kind": job.request.get("problem", {}).get("kind"),
        "label": job.request.get("label"),
    }


def error_wire(message: str, status: int, **extra: Any) -> dict:
    """A structured error body (``extra`` adds fields like ``retry_after``)."""
    body = {"error": message, "status": status}
    body.update(extra)
    return body
