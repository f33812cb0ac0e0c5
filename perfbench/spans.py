"""Outside-in span tracing of the program's layers.

The program is not edited: ``install`` replaces public entry points of
each layer (a class method or a module function) with a wrapper that
records a span around the call.  Spans nest per thread; a layer's self
time is its span time minus the time of the spans it caused.  Span
records (name, start, end, parent span, job) stay in memory and are
written out when the run ends.  Calls of the ``HOT`` layers are only
summed into the aggregates, never recorded one by one, which keeps
memory bounded (``simplify_bool`` runs tens of thousands of times in
one large sweep).

A wrapped entry point that is already open on the calling thread is not
wrapped again, so recursive calls (``BitBlaster.blast_bool``) count once,
at the outermost call.  Targets that do not exist are skipped and
listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, span name).  A dotted attribute path names a
#: method; a plain name names a module function, which is replaced in
#: every other loaded ``repro`` module that imported it.
TARGETS = [
    ("repro.smt.sat", "CdclSolver.solve", "smt.sat_solve"),
    ("repro.smt.solver", "SmtSolver.check", "smt.check"),
    ("repro.smt.solver", "simplify_bool", "smt.simplify"),
    ("repro.smt.bitblast", "BitBlaster.blast_bool", "smt.bitblast"),
    ("repro.cfg.ssa", "PathConstraintBuilder.encode", "cfg.encode"),
    ("repro.cfg.basis", "extract_basis_paths", "cfg.basis"),
    ("repro.api.pool", "SolverPool.acquire", "api.lease"),
    ("repro.api.pool", "SolverPool.release", "api.lease"),
    ("repro.api.pool", "SolverLease.base_session", "api.lease"),
    ("repro.api.pool", "SolverLease.seal_base", "api.lease"),
    ("repro.platform.measurement", "MeasurementHarness.run", "platform.measure"),
    ("repro.ogis.encoding", "SynthesisEncoder.synthesize", "ogis.synth"),
    ("repro.ogis.encoding", "SynthesisEncoder.distinguishing_input", "ogis.disting"),
    ("repro.ogis.oracle", "ProgramIOOracle.query", "ogis.oracle"),
    ("repro.ogis.program", "LoopFreeProgram.equivalent_to", "ogis.verify"),
    ("repro.hybrid.reachability", "ReachabilityOracle.label_state", "hybrid.reach"),
    ("repro.service.journal", "JobJournal.append", "service.journal"),
    ("repro.service.journal", "JobJournal.sync", "service.journal_sync"),
    ("repro.api.problems", "problem_from_dict", "api.decode"),
    ("repro.api.results", "result_to_dict", "api.serialize"),
    ("repro.api.engine", "SciductionEngine.run_batch", "service.batch"),
]

#: Packages imported before wrapping.
LAYER_PACKAGES = [
    "repro.api", "repro.smt", "repro.cfg", "repro.platform", "repro.gametime",
    "repro.ogis", "repro.hybrid", "repro.service.queue", "repro.service.wire",
]

#: Layers summed into the aggregates only.
HOT = {"smt.simplify", "smt.bitblast", "ogis.oracle", "hybrid.reach", "platform.measure"}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        # Open frames: [name, start, child_seconds, span_index].
        self.stack: list[list] = []
        self.open: dict[str, int] = {}
        self.job = None


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self._thread = _ThreadState()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> list:
        state = self._thread
        parent = state.stack[-1][3] if state.stack else None
        index = None
        if name not in HOT:
            with self._lock:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, state.job))
        frame = [name, time.perf_counter(), 0.0, index]
        state.stack.append(frame)
        state.open[name] = state.open.get(name, 0) + 1
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        state = self._thread
        state.stack.pop()
        name, start, children, index = frame
        state.open[name] -= 1
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        with self._lock:
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            if index is not None:
                record = self.spans[index]
                self.spans[index] = (name, start, end, record[3], record[4])

    def job(self, job_id: object) -> "_JobSpan":
        """Context manager: a root ``job`` span tagging its children."""
        return _JobSpan(self, job_id)

    def wrap(self, name: str, function):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer._thread.open.get(name):
                return function(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of ``TARGETS`` that exists.

        Every layer is imported first: the engine imports some of them
        lazily, and a module function must be replaced in its importers.
        """
        for package in LAYER_PACKAGES:
            try:
                importlib.import_module(package)
            except ImportError:
                self.missing.append(package)
        for module_name, path, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, attribute, None) if owner else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                setattr(owner, attribute, self.wrap(name, original))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            # Replaced where it is imported, not in its own module, so the
            # function's recursive and internal calls stay unwrapped.
            traced = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                if loaded_name == original.__module__:
                    continue
                if getattr(loaded, attribute, None) is original:
                    setattr(loaded, attribute, traced)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "missing": list(self.missing),
            }

    def write_spans(self, path: Path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job) in enumerate(spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


class _JobSpan:
    def __init__(self, tracer: Tracer, job_id: object) -> None:
        self._tracer = tracer
        self._job = job_id
        self._frame: list | None = None

    def __enter__(self) -> None:
        self._tracer._thread.job = self._job
        self._frame = self._tracer.enter("job")

    def __exit__(self, *exc_info: object) -> None:
        assert self._frame is not None
        self._tracer.exit(self._frame)
        self._tracer._thread.job = None
