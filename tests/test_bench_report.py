"""``BENCH_perf.json`` regeneration keeps blocks other tools merged in."""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "benchmarks"))

from bench_perf_suite import write_report  # noqa: E402


def test_write_report_keeps_foreign_top_level_keys(tmp_path):
    output = tmp_path / "BENCH_perf.json"
    cluster = {"p50_s": 0.5, "jobs": 12}
    output.write_text(json.dumps({"cluster": cluster, "checks": {"stale": False}}))

    write_report({"suite": "smt-perf", "checks": {"fresh": True}}, output)

    report = json.loads(output.read_text())
    assert report["cluster"] == cluster
    # Keys the suite produces are replaced wholesale, never merged.
    assert report["checks"] == {"fresh": True}
    assert report["suite"] == "smt-perf"


def test_write_report_creates_a_missing_file(tmp_path):
    output = tmp_path / "BENCH_perf.json"
    write_report({"suite": "smt-perf"}, output)
    assert json.loads(output.read_text()) == {"suite": "smt-perf"}
