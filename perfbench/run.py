"""The repository's benchmark: sciduction workloads, end to end and per layer.

    python3 perfbench/run.py --workload gametime-sweep --seed 1 --seconds 50 --trace 0

Run from the repository root (the program is imported from ``src/``).
Workloads:

* ``ogis-deobf`` — one in-process engine, closed loop, one job at a
  time: OGIS deobfuscation (``multiply45``/``interchange``, widths 4-7),
  every spec distinct.  Bound by CDCL search.  Not listed in
  ``BENCHMARK.json``: a run holds too few jobs for steady latency
  quantiles (see README.md).
* ``gametime-sweep`` — one in-process engine, closed loop: GameTime
  bound queries and all-path distribution sweeps over the registered
  programs, every shape submitted twice (the copy is served from the
  base scope and the check memo).
* ``service-mixed`` — ``python -m repro.service`` (one runner, fresh
  ``--data-dir``) driven over HTTP by two closed-loop clients with a
  seeded mix of all three problem kinds, a quarter of it exact
  duplicates answered from the certificate store.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh starts), jobs per second, median and 90th-percentile job
latency, and peak RSS of the engine or service process.  Every time is
stated at the nominal speed of a probe that runs beside the measured
processes (``hostspeed.py``); the unscaled times are printed as
``raw.*``.  A run is whole blocks of its workload's fixed mix (whole
rounds of each client's pattern on ``service-mixed``): the deadline is
checked only between them.  ``--trace 1``
gives the per-layer metrics instead: the same job stream runs first
untraced for half the time, then again, traced, in a fresh process, for
the same jobs.  The traced run's spans give each layer's self time; the
two runs must agree on every exact work counter (determinism check);
their wall times give the tracing overhead.

Every job's verdict is checked against the catalogue (see
``catalogue.py``).  Human-readable ``name value unit`` lines come first;
the last line of stdout is the JSON result.  The exit code is 1 when a
verdict is wrong, a job failed, or the exact counters disagree.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import (  # noqa: E402
    GAMETIME_ORDER,
    OGIS_BLOCK,
    SERVICE_PATTERNS,
    gametime_stream,
    ogis_stream,
    service_stream,
)
from hostspeed import window_factor  # noqa: E402
from records import job_record, wrong_verdict  # noqa: E402

WORKLOADS = ("ogis-deobf", "gametime-sweep", "service-mixed")
#: Fresh starts timed per run for ``setup_s`` (besides the measured one).
SETUP_SAMPLES = {"ogis-deobf": 8, "gametime-sweep": 8, "service-mixed": 6}
CHILD_TIMEOUT = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("smt.sat_solve_s", "s"),
    ("smt.sat_props_per_s", "1/s"),
    ("smt.sat_propagations", "count"),
    ("smt.sat_conflicts", "count"),
    ("smt.sat_decisions", "count"),
    ("smt.clauses", "count"),
    ("smt.variables", "count"),
    ("smt.simplify_s", "s"),
    ("smt.bitblast_s", "s"),
    ("smt.check_calls", "count"),
    ("smt.check_self_s", "s"),
    ("smt.unsat_frac", "fraction"),
    ("cfg.encode_s", "s"),
    ("cfg.basis_s", "s"),
    ("smt.memo_hit_frac", "fraction"),
    ("api.session_reuse_frac", "fraction"),
    ("api.lease_s", "s"),
    ("platform.measure_calls", "count"),
    ("platform.measure_s", "s"),
    ("ogis.synth_calls", "count"),
    ("ogis.synth_s", "s"),
    ("ogis.synth_total_s", "s"),
    ("ogis.disting_calls", "count"),
    ("ogis.disting_s", "s"),
    ("ogis.disting_total_s", "s"),
    ("ogis.oracle_calls", "count"),
    ("ogis.oracle_s", "s"),
    ("ogis.verify_s", "s"),
    ("ogis.iterations", "count"),
    ("ogis.oracle_queries", "count"),
    ("hybrid.reach_calls", "count"),
    ("hybrid.reach_s", "s"),
    ("service.submit_p50_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.journal_appends", "count"),
    ("service.journal_s", "s"),
    ("service.cert_hits", "count"),
    ("service.cert_hit_frac", "fraction"),
    ("api.decode_s", "s"),
    ("api.serialize_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.jobs", "count"),
]

#: Spans whose self time is reported as ``<span>_s``.
SELF_TIME_SPANS = (
    "smt.sat_solve", "smt.simplify", "smt.bitblast", "cfg.encode", "cfg.basis",
    "api.lease", "platform.measure", "ogis.synth", "ogis.disting", "ogis.oracle",
    "ogis.verify", "hybrid.reach", "api.decode", "api.serialize",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights, instead of one or two of them: a latency mix made of a few
    job kinds has gaps between the kinds, and a single order statistic
    jumps across a gap when one job more or less lands below it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoint rule within each order statistic's interval
    weights = []
    for index in range(n):
        mass = 0.0
        for step in range(steps):
            t = (index + (step + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(mass)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def stop_process(process: subprocess.Popen, timeout: float = 60.0) -> None:
    """SIGTERM, wait, and kill if the process does not end in time."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class Workspace:
    """Scratch files of one run, under ``perfbench/out`` in the checkout."""

    def __init__(self, workload: str, seed: int) -> None:
        root = HERE / "out"
        root.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=root))
        self.env = dict(os.environ)
        source = str(Path.cwd() / "src")
        self.env["PYTHONPATH"] = source + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"

    def file(self, name: str) -> Path:
        return self.path / name

    def keep_spans(self, spans: Path, name: str) -> None:
        if spans.exists():
            shutil.move(str(spans), str(HERE / "out" / name))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class HostProbe:
    """``hostspeed.py`` running beside the measured processes."""

    def __init__(self, ws: Workspace) -> None:
        self.out = ws.file("hostspeed.json")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "hostspeed.py"), str(self.out)], env=ws.env
        )

    def stop(self) -> list:
        """Stop the probe; return its (time, CPU seconds) samples."""
        stop_process(self.process)
        if not self.out.exists():
            raise BenchError("host speed probe wrote no samples")
        return json.loads(self.out.read_text())


# ---------------------------------------------------------------------------
# In-process engine workloads
# ---------------------------------------------------------------------------


def spawn_engine(ws: Workspace, *arguments: str) -> tuple[subprocess.Popen, tuple]:
    """Start an engine child; return it and its (spawn, ready) times."""
    began = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "engine_child.py"), *arguments],
        stdout=subprocess.PIPE,
        env=ws.env,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    ready = (began, time.monotonic())
    process.stdout.close()
    if line.strip() != "ready":
        stop_process(process, 5.0)
        raise BenchError("engine process did not start (is src/repro present?)")
    return process, ready


def run_engine(ws: Workspace, jobs_file: Path, tag: str, *limits: str) -> tuple[dict, tuple]:
    out = ws.file(f"{tag}.json")
    process, ready = spawn_engine(ws, "--jobs", str(jobs_file), "--out", str(out), *limits)
    try:
        process.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_process(process, 5.0)
        raise BenchError(f"engine run {tag} did not finish") from None
    if process.returncode != 0:
        raise BenchError(f"engine run {tag} exited with {process.returncode}")
    return json.loads(out.read_text()), ready


def engine_workload(ws: Workspace, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "ogis-deobf":
        jobs, block = ogis_stream(seed), len(OGIS_BLOCK)
    else:
        jobs, block = gametime_stream(seed), len(GAMETIME_ORDER)
    timed = ("--block", str(block), "--seconds")
    jobs_file = ws.file("jobs.json")
    jobs_file.write_text(json.dumps([job.spec for job in jobs]))
    if not trace:
        setups = []
        probe = HostProbe(ws)
        try:
            for _ in range(SETUP_SAMPLES[workload]):
                process, ready = spawn_engine(ws, "--setup-only")
                process.wait(timeout=CHILD_TIMEOUT)
                setups.append(ready)
            run, ready = run_engine(ws, jobs_file, "run", *timed, str(seconds))
            setups.append(ready)
        finally:
            samples = probe.stop()
        return {
            "jobs": jobs[: len(run["jobs"])],
            "records": run["jobs"],
            "block": block,
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
            "setups": setups,
            "probe": samples,
        }
    untraced, _ = run_engine(ws, jobs_file, "untraced", *timed, str(seconds / 2))
    count = len(untraced["jobs"])
    spans = ws.file("spans.jsonl")
    traced, _ = run_engine(
        ws, jobs_file, "traced", "--count", str(count), "--trace", str(spans)
    )
    ws.keep_spans(spans, f"{workload}-seed{seed}-spans.jsonl")
    return {
        "jobs": jobs[:count],
        "records": traced["jobs"],
        "reference": untraced["jobs"],
        "wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"],
        "trace": traced["trace"],
        "root": "job",
    }


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


class Service:
    """One ``python -m repro.service`` process on a fresh data directory."""

    def __init__(self, ws: Workspace, tag: str, traced: bool) -> None:
        self.summary = ws.file(f"{tag}-summary.json")
        self.spans = ws.file(f"{tag}-spans.jsonl")
        port_file = ws.file(f"{tag}.port")
        command = [sys.executable, str(HERE / "service_child.py")]
        if traced:
            command += ["--trace", str(self.spans), "--summary", str(self.summary)]
        command += [
            "--", "--host", "127.0.0.1", "--port", "0", "--port-file", str(port_file),
            "--data-dir", str(ws.file(f"{tag}-data")), "--quiet",
        ]
        began = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, env=ws.env
        )
        try:
            self._wait_ready(port_file)
        except BaseException:
            stop_process(self.process, 5.0)
            raise
        self.ready = (began, time.monotonic())

    def _wait_ready(self, port_file: Path) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError("service process exited during start-up")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text.isdigit():
                self.port = int(text)
                try:
                    status, _ = self.request("GET", "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    return
            time.sleep(0.005)
        raise BenchError("service did not become healthy")

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not available")

    def stop(self) -> dict | None:
        stop_process(self.process)
        if self.summary.exists():
            return json.loads(self.summary.read_text())
        return None


def run_client(service: Service, jobs: list, deadline: float | None, count: int | None,
               out: list, errors: list) -> None:
    """One closed-loop client: submit, long-poll, fetch, repeat.

    The deadline is checked only between whole rounds of the client's
    slot pattern, so every run submits the same mix.
    """
    try:
        for index, job in enumerate(jobs):
            if count is not None and index >= count:
                break
            at_boundary = index % len(SERVICE_PATTERNS[job.client]) == 0
            if deadline is not None and at_boundary and time.monotonic() >= deadline:
                break
            began = time.monotonic()
            status, reply = service.request(
                "POST", "/jobs", {"problem": job.spec, "client": f"client-{job.client}"}
            )
            submitted = time.monotonic()
            if status != 202:
                raise BenchError(f"POST /jobs answered {status}: {reply}")
            job_id = reply["job_id"]
            while True:
                status, record = service.request("GET", f"/jobs/{job_id}?wait=30")
                if status != 200:
                    raise BenchError(f"GET /jobs/{job_id} answered {status}")
                if record["done"]:
                    break
            fetch = time.monotonic()
            status, result = service.request("GET", f"/jobs/{job_id}/result")
            finished = time.monotonic()
            if status != 200:
                raise BenchError(f"GET /jobs/{job_id}/result answered {status}")
            latency = finished - began
            entry = job_record(record["state"], result, latency, record["elapsed"])
            entry["from_certificate"] = bool(reply["from_certificate"])
            entry["submit_s"] = submitted - began
            http_s = entry["submit_s"] + (finished - fetch)
            entry["queue_wait_s"] = max(0.0, latency - record["elapsed"] - http_s)
            entry["began"] = began
            entry["finished"] = finished
            out.append(entry)
    except Exception as error:  # noqa: BLE001 — reported by the caller
        errors.append(f"client {jobs[0].client if jobs else '?'}: {error}")


def drive_service(service: Service, streams: dict, seconds: float | None,
                  counts: dict | None) -> tuple[dict, float]:
    """Run both clients to the deadline (or counts); return records and wall."""
    records: dict = {client: [] for client in streams}
    errors: list = []
    started = time.monotonic()
    deadline = started + seconds if seconds is not None else None
    threads = [
        threading.Thread(
            target=run_client,
            args=(service, streams[client], deadline,
                  None if counts is None else counts[client], records[client], errors),
            daemon=True,
        )
        for client in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
        if thread.is_alive():
            raise BenchError("a service client did not finish")
    if errors:
        raise BenchError("; ".join(errors))
    ends = [entry["finished"] for entries in records.values() for entry in entries]
    return records, (max(ends) if ends else time.monotonic()) - started


def service_workload(ws: Workspace, seed: int, seconds: float, trace: bool) -> dict:
    streams = {client: service_stream(seed, client) for client in (0, 1)}

    def flatten(per_client: dict) -> tuple[list, list]:
        jobs, records = [], []
        for client in sorted(per_client):
            entries = per_client[client]
            jobs.extend(streams[client][: len(entries)])
            records.extend(entries)
        return jobs, records

    if not trace:
        setups = []
        probe = HostProbe(ws)
        try:
            for sample in range(SETUP_SAMPLES["service-mixed"]):
                fresh = Service(ws, f"setup{sample}", traced=False)
                setups.append(fresh.ready)
                fresh.stop()
            service = Service(ws, "run", traced=False)
            try:
                setups.append(service.ready)
                per_client, _ = drive_service(service, streams, seconds, None)
                _, stats = service.request("GET", "/stats")
                rss = service.peak_rss_mb()
            finally:
                service.stop()
        finally:
            samples = probe.stop()
        jobs, records = flatten(per_client)
        return {
            "jobs": jobs, "records": records, "peak_rss_mb": rss,
            "setups": setups, "stats": stats, "probe": samples,
        }
    service = Service(ws, "untraced", traced=False)
    try:
        reference, untraced_wall = drive_service(service, streams, seconds / 2, None)
    finally:
        service.stop()
    counts = {client: len(entries) for client, entries in reference.items()}
    service = Service(ws, "traced", traced=True)
    try:
        per_client, wall = drive_service(service, streams, None, counts)
        _, stats = service.request("GET", "/stats")
    finally:
        summary = service.stop()
    if summary is None:
        raise BenchError("traced service wrote no span summary")
    ws.keep_spans(service.spans, f"service-mixed-seed{seed}-spans.jsonl")
    jobs, records = flatten(per_client)
    _, reference_records = flatten(reference)
    return {
        "jobs": jobs, "records": records, "reference": reference_records,
        "wall_s": wall, "untraced_wall_s": untraced_wall, "trace": summary,
        "stats": stats, "root": "service.batch",
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def check_verdicts(run: dict) -> tuple[int, int, list]:
    """(wrong verdicts, failed jobs, messages) of a run."""
    wrong = failed = 0
    messages = []
    for index, (job, record) in enumerate(zip(run["jobs"], run["records"])):
        if record["state"] != "completed":
            failed += 1
        problem = wrong_verdict(record, job.verdict, job.wcet)
        if problem is not None:
            wrong += 1
            messages.append(f"job {index} {json.dumps(job.spec)}: {problem}")
    return wrong, failed, messages


def counter_mismatches(run: dict) -> list:
    """Jobs whose exact counters differ between the traced and untraced runs."""
    mismatches = []
    for index, (traced, untraced) in enumerate(zip(run["records"], run["reference"])):
        differ = sorted(
            name
            for name in traced["counters"]
            if traced["counters"][name] != untraced["counters"].get(name)
        )
        if traced.get("from_certificate") != untraced.get("from_certificate"):
            differ.append("from_certificate")
        if differ:
            mismatches.append(f"{index}:{','.join(differ)}")
    if len(run["records"]) != len(run["reference"]):
        mismatches.append("job count")
    return mismatches


def engine_records(run: dict) -> list:
    """Records whose counters describe work done in this run (no cert hits)."""
    return [record for record in run["records"] if not record.get("from_certificate")]


def latency_quantile(latencies: list, block: int | None, q: float) -> float:
    """The ``q`` quantile of job latency.

    An engine run is whole blocks of one fixed mix, but two, three or
    four of them, as the host's speed allows: the quantile is taken in
    each block and averaged, so the estimate does not depend on how many
    blocks a run holds.  The service run pools all its jobs.
    """
    if block is None:
        return hd_quantile(latencies, q)
    blocks = [latencies[start : start + block] for start in range(0, len(latencies), block)]
    return statistics.fmean(hd_quantile(part, q) for part in blocks)


def end_to_end_metrics(run: dict, normalize: bool = True) -> dict:
    """End-to-end metrics.

    With ``normalize``, every interval (a set-up, a job, the whole run)
    is divided by the host's speed factor while it ran (``hostspeed.py``).
    """

    def seconds(began: float, ended: float) -> float:
        factor = window_factor(run["probe"], began, ended) if normalize else 1.0
        return (ended - began) / factor

    records = run["records"]
    latencies = [seconds(record["began"], record["finished"]) for record in records]
    wall = seconds(
        min(record["began"] for record in records),
        max(record["finished"] for record in records),
    )
    return {
        "setup_s": statistics.median(seconds(*ready) for ready in run["setups"]),
        "jobs_per_s": len(records) / wall,
        "job_p50_s": latency_quantile(latencies, run.get("block"), 0.5),
        "job_p90_s": latency_quantile(latencies, run.get("block"), 0.9),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer_metrics(run: dict) -> dict:
    summary = run["trace"]
    self_s, total_s, calls = summary["self_s"], summary["total_s"], summary["calls"]
    records = engine_records(run)

    def total(counter: str) -> int:
        return sum(record["counters"][counter] for record in records)

    metrics = {f"{span}_s": self_s.get(span, 0.0) for span in SELF_TIME_SPANS}
    metrics["smt.check_self_s"] = self_s.get("smt.check", 0.0)
    metrics["smt.sat_props_per_s"] = ratio(
        total("sat.propagations"), metrics["smt.sat_solve_s"]
    )
    metrics["smt.sat_propagations"] = total("sat.propagations")
    metrics["smt.sat_conflicts"] = total("sat.conflicts")
    metrics["smt.sat_decisions"] = total("sat.decisions")
    metrics["smt.clauses"] = total("smt.clauses_generated")
    metrics["smt.variables"] = total("smt.variables_generated")
    checks = total("smt.checks")
    metrics["smt.check_calls"] = checks
    metrics["smt.unsat_frac"] = ratio(total("smt.unsat_answers"), checks)
    metrics["smt.memo_hit_frac"] = ratio(total("smt.check_memo_hits"), checks)
    pooled = [record for record in records if record["pooled"]]
    metrics["api.session_reuse_frac"] = ratio(
        sum(record["session_reused"] for record in pooled), len(pooled)
    )
    metrics["platform.measure_calls"] = calls.get("platform.measure", 0)
    for layer in ("ogis.synth", "ogis.disting", "ogis.oracle", "hybrid.reach"):
        metrics[f"{layer}_calls"] = calls.get(layer, 0)
    metrics["ogis.synth_total_s"] = total_s.get("ogis.synth", 0.0)
    metrics["ogis.disting_total_s"] = total_s.get("ogis.disting", 0.0)
    ogis = [
        record for job, record in zip(run["jobs"], run["records"])
        if job.spec["kind"] == "deobfuscation" and not record.get("from_certificate")
    ]
    metrics["ogis.iterations"] = sum(record["counters"]["iterations"] for record in ogis)
    metrics["ogis.oracle_queries"] = sum(
        record["counters"]["oracle_queries"] for record in ogis
    )
    service = "stats" in run
    all_records = run["records"]
    metrics["service.submit_p50_s"] = (
        statistics.median(record["submit_s"] for record in all_records) if service else 0.0
    )
    metrics["service.queue_wait_p50_s"] = (
        statistics.median(record["queue_wait_s"] for record in all_records)
        if service else 0.0
    )
    metrics["service.journal_appends"] = calls.get("service.journal", 0)
    metrics["service.journal_s"] = self_s.get("service.journal", 0.0) + self_s.get(
        "service.journal_sync", 0.0
    )
    certstore = run.get("stats", {}).get("certstore", {})
    metrics["service.cert_hits"] = certstore.get("hits", 0)
    metrics["service.cert_hit_frac"] = ratio(
        certstore.get("hits", 0), certstore.get("hits", 0) + certstore.get("misses", 0)
    )
    metrics["trace.overhead_frac"] = run["wall_s"] / run["untraced_wall_s"] - 1.0
    root = run["root"]
    metrics["trace.unattributed_frac"] = ratio(self_s.get(root, 0.0), total_s.get(root, 0.0))
    metrics["trace.jobs"] = len(all_records)
    return metrics


def repeat_shares(run: dict) -> dict:
    """Measured repeat share of the stream: duplicate specs and memo hits."""
    seen: set = set()
    shapes: set = set()
    duplicates = repeats = 0
    for job in run["jobs"]:
        key = json.dumps(job.spec, sort_keys=True)
        duplicates += key in seen
        seen.add(key)
        # A shape is the spec up to its seeds and bound.
        shape = {name: value for name, value in job.spec.items() if name not in ("seed", "bound")}
        shape_key = json.dumps(shape, sort_keys=True)
        repeats += shape_key in shapes
        shapes.add(shape_key)
    records = engine_records(run)
    checks = sum(record["counters"]["smt.checks"] for record in records)
    hits = sum(record["counters"]["smt.check_memo_hits"] for record in records)
    return {
        "repeat.duplicate_spec_frac": ratio(duplicates, len(run["jobs"])),
        "repeat.shape_frac": ratio(repeats, len(run["jobs"])),
        "repeat.memo_hit_frac": ratio(hits, checks),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    trace = bool(arguments.trace)
    ws = Workspace(arguments.workload, arguments.seed)
    try:
        if arguments.workload == "service-mixed":
            run = service_workload(ws, arguments.seed, arguments.seconds, trace)
        else:
            run = engine_workload(
                ws, arguments.workload, arguments.seed, arguments.seconds, trace
            )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        ws.close()

    wrong, failed, messages = check_verdicts(run)
    attempted = len(run["records"])
    problems = list(messages)
    if trace:
        spec, units = PER_LAYER, dict(PER_LAYER)
        values = per_layer_metrics(run)
        mismatches = counter_mismatches(run)
        if mismatches:
            problems.append(
                f"exact counters differ between two runs of seed {arguments.seed} "
                f"at jobs {mismatches[:10]}"
            )
        if run["trace"]["missing"]:
            print(f"note: entry points not found: {run['trace']['missing']}", file=sys.stderr)
    else:
        spec, units = END_TO_END, dict(END_TO_END)
        values = end_to_end_metrics(run)
    extra = [(name, value, "fraction") for name, value in repeat_shares(run).items()]
    if not trace:
        extra.append(("host.samples", len(run["probe"]), "count"))
        extra += [
            (f"raw.{name}", value, units[name])
            for name, value in end_to_end_metrics(run, normalize=False).items()
            if name != "peak_rss_mb"
        ]
    extra += [
        ("samples.jobs", attempted, "count"),
        ("samples.setup", len(run.get("setups", [])), "count"),
        ("wrong_verdicts", wrong, "count"),
        ("failed_frac", ratio(failed, attempted), "fraction"),
    ]
    for name, value, unit in extra:
        print(f"{name} {value:.6g} {unit}")
    for name, unit in spec:
        print(f"{name} {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name, _ in spec
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
