"""Per-job records: what the harness keeps of each result wire.

Shared by the engine child, the service client and the report, so the
exact counters and the verdict checks mean the same on every workload.
"""

from __future__ import annotations

#: Exact per-job work counters, read from the result wire.  Two runs of
#: the same seed must agree on every one of them.
SAT_COUNTERS = ("conflicts", "decisions", "propagations")
SMT_COUNTERS = (
    "checks",
    "sat_answers",
    "unsat_answers",
    "variables_generated",
    "clauses_generated",
    "check_memo_hits",
    "shared_memo_hits",
)
RESULT_COUNTERS = ("iterations", "oracle_queries", "deductive_queries")


def job_record(state: str, result: dict | None, latency: float, elapsed: float) -> dict:
    """Summarize one finished job (``result`` is the result wire)."""
    result = result or {}
    details = result.get("details") or {}
    engine = details.get("engine") or {}
    sat = engine.get("sat_job_statistics") or {}
    smt = engine.get("smt_job_statistics") or {}
    counters = {f"sat.{name}": sat.get(name, 0) for name in SAT_COUNTERS}
    counters.update({f"smt.{name}": smt.get(name, 0) for name in SMT_COUNTERS})
    counters.update({name: result.get(name) or 0 for name in RESULT_COUNTERS})
    record = {
        "state": state,
        "success": bool(result.get("success")),
        "verdict": result.get("verdict"),
        "latency": latency,
        "elapsed": elapsed,
        "pooled": bool(engine.get("pooled")),
        "session_reused": bool(engine.get("session_reused")),
        "counters": counters,
    }
    distribution = details.get("distribution")
    if distribution is not None:
        measured = [path.get("measured") for path in distribution.get("paths", [])]
        record["max_measured"] = max((m for m in measured if m is not None), default=None)
    return record


def wrong_verdict(record: dict, expected: bool, wcet: int | None) -> str | None:
    """Why ``record`` disagrees with the catalogue, or None when it agrees."""
    if record["state"] != "completed" or not record["success"]:
        return f"job ended {record['state']} (success={record['success']})"
    if record["verdict"] is not expected:
        return f"verdict {record['verdict']!r}, expected {expected!r}"
    if "max_measured" in record and record["max_measured"] != wcet:
        return f"distribution maximum {record['max_measured']}, expected WCET {wcet}"
    return None
