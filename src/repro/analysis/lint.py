"""Stdlib-``ast`` invariant lint for the sciduction engine.

Every rule here encodes an invariant that a previous PR shipped a fix
for — the lint exists so the *next* violation is caught at gate time,
not bisected out of a byte-parity failure:

``ND01`` — nondeterministic iteration.  Wire digests, scheduler plans
    and result payloads must not depend on Python ``set`` iteration
    order (or ``vars()``/``globals()``/``os.environ`` order).  Iterating
    a set directly — in a ``for`` loop, a comprehension, ``list()`` /
    ``tuple()`` / ``enumerate()`` / ``iter()``, or ``str.join`` — is
    flagged in deterministic modules, including sets reaching the site
    through module-level constants, class-level constants, and
    set-annotated parameters; wrap the expression in ``sorted(...)``.

``WC01`` — clock reads in deterministic modules.  Wall-clock *and*
    monotonic reads both perturb solver-path determinism unless the
    site is a sanctioned budget/deadline/elapsed read, which must carry
    an inline allowlist entry naming the invariant it satisfies.

``WIRE01`` — process-boundary purity.  Dataclasses that cross the
    worker process boundary (problem specs registered with
    ``register_problem_type``, or classes defining both ``to_dict`` and
    ``from_dict``) must hold only JSON-shaped fields: no callables,
    locks, futures, solver handles or sets.

``LOCK02`` / ``BLK01`` / ``RES01`` — flow-sensitive rules over a
    per-function CFG (see :mod:`repro.analysis.flowrules`): guarded
    fields provably locked on *every* path reaching a mutation, no
    blocking I/O while a lock is held in the service/cluster layers,
    and no closeable resource escaping on an exception edge.

``PROTO01`` — cluster wire-vocabulary conformance (see
    :mod:`repro.analysis.proto`): every ``{"op": …}`` frame and every
    op dispatch checked against the registry declared in
    :mod:`repro.cluster.protocol`, plus cross-module coverage.

``AL00``/``AL01`` — allowlist hygiene.  An
    ``# analysis: allow[RULE] reason`` comment must carry a non-empty
    reason (``AL00``) and must actually suppress a finding on its line
    (``AL01``) — the gate has *zero unexplained allowlist entries* by
    construction.

Suppression: put ``# analysis: allow[ND01] <why this is sound>`` on the
physical line the finding is reported at.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.analysis.common import (
    Finding,
    _decorator_name,
    _self_attribute,
)
from repro.analysis.flowrules import check_flow_rules
from repro.analysis.proto import (
    OpSpecLike,
    check_op_coverage,
    check_protocol_usage,
)

#: Module path prefixes (relative to the scan root, ``/``-separated)
#: subject to the determinism rules ND01/WC01.  The application layers
#: (``ogis``/``gametime``/``hybrid``/``platform``) legitimately consume
#: randomness and measured time; the solver core, engine, and service
#: must not.
DETERMINISTIC_PREFIXES = (
    "smt/",
    "core/",
    "api/",
    "service/",
    "analysis/",
    "cluster/",
)

#: Prefixes where the blocking-I/O and resource rules apply (BLK01 /
#: RES01): the layers that own sockets, files and long-held locks.
IO_SENSITIVE_PREFIXES = (
    "service/",
    "cluster/",
)

#: Cluster modules whose wire usage PROTO01 checks, by relative path.
PROTO_MODULES = {
    "cluster/protocol.py": "protocol",
    "cluster/coordinator.py": "coordinator",
    "cluster/node.py": "node",
    "cluster/memoclient.py": "memoclient",
}

#: ``module.attr`` clock reads flagged by WC01 (plus bare-name imports).
CLOCK_CALLS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "localtime",
        "gmtime", "ctime", "strftime",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Annotation atoms accepted in wire-crossing dataclass fields (WIRE01).
WIRE_SAFE_NAMES = {
    "str", "int", "float", "bool", "None", "dict", "list", "tuple",
    "Dict", "List", "Tuple", "Optional", "Union", "Any", "ClassVar",
    "Mapping", "Sequence",
}

_ALLOW_RE = re.compile(r"#\s*analysis:\s*allow\[([A-Z]+\d+)\]\s*(.*?)\s*$")


# ---------------------------------------------------------------------------
# ND01 — nondeterministic iteration
# ---------------------------------------------------------------------------


class _SetTracker(ast.NodeVisitor):
    """Collects ``self.X`` attributes that are sets, per class body."""

    def __init__(self) -> None:
        self.set_attrs: set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = _self_attribute(target)
            if attr is not None and _is_set_expr(node.value, {}, set()):
                self.set_attrs.add(attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = _self_attribute(node.target)
        if attr is not None and _annotation_is_set(node.annotation):
            self.set_attrs.add(attr)
        self.generic_visit(node)


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet", "AbstractSet")
    return isinstance(annotation, ast.Name) and annotation.id in (
        "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
    )


def _is_set_expr(
    node: ast.AST, local_sets: dict[str, bool], class_set_attrs: set[str]
) -> bool:
    """Whether ``node`` statically evaluates to an unordered collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset", "vars", "globals", "locals"):
            return True
    if isinstance(node, ast.Attribute):
        if (
            node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            return True
        attr = _self_attribute(node)
        if attr is not None and attr in class_set_attrs:
            return True
    if isinstance(node, ast.Name):
        return local_sets.get(node.id, False)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_set_expr(node.left, local_sets, class_set_attrs) or _is_set_expr(
            node.right, local_sets, class_set_attrs
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "difference", "union", "intersection", "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, local_sets, class_set_attrs)
    return False


def _module_level_sets(tree: ast.Module) -> dict[str, bool]:
    """Module-level names statically known to hold sets, in textual order."""
    known: dict[str, bool] = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            is_set = _is_set_expr(statement.value, known, set())
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    known[target.id] = is_set
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            known[statement.target.id] = _annotation_is_set(
                statement.annotation
            ) or (
                statement.value is not None
                and _is_set_expr(statement.value, known, set())
            )
    return known


class _NondeterminismChecker(ast.NodeVisitor):
    """Flags iteration whose order depends on set/hash ordering."""

    def __init__(
        self, path: str, findings: list[Finding], tree: ast.Module
    ) -> None:
        self.path = path
        self.findings = findings
        #: Module-level names known to hold sets — visible in functions
        #: unless shadowed by a local binding or a parameter.
        self.module_sets: dict[str, bool] = _module_level_sets(tree)
        #: Names in the current scope currently known to hold sets.
        self.local_sets: dict[str, bool] = {}
        #: ``self.X`` attributes of the enclosing class known to be sets.
        self.class_set_attrs: set[str] = set()
        #: Generator expressions feeding directly into ``set(...)`` /
        #: ``frozenset(...)`` — unordered-to-unordered, so order-free.
        self._order_free: set[ast.AST] = set()

    def _flag(self, node: ast.AST, context: str) -> None:
        self.findings.append(
            Finding(
                "ND01",
                self.path,
                getattr(node, "lineno", 0),
                f"iteration over an unordered collection ({context}); wrap "
                "in sorted(...) or restructure — hash order must never "
                "reach digests, plans, or wire forms",
            )
        )

    def _is_set(self, node: ast.AST) -> bool:
        return _is_set_expr(node, self.local_sets, self.class_set_attrs)

    # -- scope bookkeeping -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        tracker = _SetTracker()
        outer = self.class_set_attrs
        class_sets = set()
        for statement in node.body:
            tracker.visit(statement)
            # Class-level set constants (KINDS = frozenset(...)) are
            # reached as self.KINDS from methods.
            if isinstance(statement, ast.Assign):
                if _is_set_expr(statement.value, self.module_sets, set()):
                    class_sets.update(
                        target.id
                        for target in statement.targets
                        if isinstance(target, ast.Name)
                    )
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                if _annotation_is_set(statement.annotation) or (
                    statement.value is not None
                    and _is_set_expr(statement.value, self.module_sets, set())
                ):
                    class_sets.add(statement.target.id)
        self.class_set_attrs = tracker.set_attrs | class_sets
        self.generic_visit(node)
        self.class_set_attrs = outer

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        outer = self.local_sets
        # A function sees module-level set constants; its parameters
        # shadow them (and set-annotated parameters are sets).
        scope = dict(self.module_sets)
        arguments = node.args
        for arg in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
            *([arguments.vararg] if arguments.vararg else []),
            *([arguments.kwarg] if arguments.kwarg else []),
        ):
            scope[arg.arg] = arg.annotation is not None and _annotation_is_set(
                arg.annotation
            )
        self.local_sets = scope
        self.generic_visit(node)
        self.local_sets = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.local_sets[target.id] = is_set
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.local_sets[node.target.id] = _annotation_is_set(
                node.annotation
            ) or (node.value is not None and self._is_set(node.value))
        self.generic_visit(node)

    # -- iteration contexts ------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        if node not in self._order_free:
            for generator in getattr(node, "generators", []):
                if self._is_set(generator.iter):
                    self._flag(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is order-free; only materializing an
        # *ordered* sequence from one is flagged.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("set", "frozenset")
            and node.args
            and isinstance(node.args[0], ast.GeneratorExp)
        ):
            # Materializing an unordered collection from an unordered
            # source — mirror of the SetComp exemption.
            self._order_free.add(node.args[0])
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "enumerate", "iter")
            and node.args
            and self._is_set(node.args[0])
        ):
            self._flag(node, f"{func.id}()")
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self._is_set(node.args[0])
        ):
            self._flag(node, "str.join")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# WC01 — clock reads
# ---------------------------------------------------------------------------


class _ClockChecker(ast.NodeVisitor):
    """Flags clock reads; sanctioned deadline sites carry allow entries."""

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings
        #: Bare names bound to clock functions by ``from time import …``.
        self.clock_names: set[str] = set()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        functions = CLOCK_CALLS.get(node.module or "")
        if functions:
            for alias in node.names:
                if alias.name in functions:
                    self.clock_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        flagged: str | None = None
        if isinstance(func, ast.Attribute):
            base = func.value
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):  # datetime.datetime.now
                base_name = base.attr
            if base_name in CLOCK_CALLS and func.attr in CLOCK_CALLS[base_name]:
                flagged = f"{base_name}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in self.clock_names:
            flagged = func.id
        if flagged is not None:
            self.findings.append(
                Finding(
                    "WC01",
                    self.path,
                    node.lineno,
                    f"clock read {flagged}() in a deterministic module; "
                    "only sanctioned budget/deadline/elapsed sites may read "
                    "the clock — allow with `# analysis: allow[WC01] <why>`",
                )
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# WIRE01 — process-boundary purity
# ---------------------------------------------------------------------------


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Every atom name referenced by an annotation expression."""
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            try:
                yield from _annotation_names(
                    ast.parse(annotation.value, mode="eval").body
                )
            except SyntaxError:
                yield annotation.value
        elif annotation.value is None:
            yield "None"
        return
    if isinstance(annotation, ast.Name):
        yield annotation.id
        return
    if isinstance(annotation, ast.Attribute):
        yield annotation.attr
        return
    if isinstance(annotation, ast.Subscript):
        yield from _annotation_names(annotation.value)
        yield from _annotation_names(annotation.slice)
        return
    if isinstance(annotation, ast.Tuple):
        for element in annotation.elts:
            yield from _annotation_names(element)
        return
    if isinstance(annotation, ast.BinOp):
        yield from _annotation_names(annotation.left)
        yield from _annotation_names(annotation.right)
        return


def _is_classvar(annotation: ast.AST) -> bool:
    names = list(_annotation_names(annotation))
    return bool(names) and names[0] == "ClassVar"


class _WireChecker(ast.NodeVisitor):
    """Checks wire-crossing dataclasses for non-JSON field types."""

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._is_wire_class(node):
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                if _is_classvar(statement.annotation):
                    continue
                bad = sorted(
                    name
                    for name in _annotation_names(statement.annotation)
                    if name not in WIRE_SAFE_NAMES
                )
                if bad:
                    self.findings.append(
                        Finding(
                            "WIRE01",
                            self.path,
                            statement.lineno,
                            f"field {statement.target.id!r} of wire-crossing "
                            f"class {node.name!r} has non-JSON type atoms "
                            f"{bad}; specs/configs must ship as pure wire "
                            "dictionaries across the worker boundary",
                        )
                    )
        self.generic_visit(node)

    @staticmethod
    def _is_wire_class(node: ast.ClassDef) -> bool:
        if any(
            _decorator_name(decorator) == "register_problem_type"
            for decorator in node.decorator_list
        ):
            return True
        methods = {
            statement.name
            for statement in node.body
            if isinstance(statement, ast.FunctionDef)
        }
        return "to_dict" in methods and "from_dict" in methods


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _parse_allows(source: str, path: str) -> tuple[dict[int, str], list[Finding]]:
    """Allowlist entries by line, plus AL00 findings for missing reasons.

    Uses ``tokenize`` so only actual comments count — the allow pattern
    appearing inside a string literal or docstring (e.g. in this very
    module's documentation) is not an allowlist entry.
    """
    allows: dict[int, str] = {}
    findings: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}, []  # the ast parse reports the syntax error
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        number = token.start[0]
        rule, reason = match.group(1), match.group(2)
        if not reason:
            findings.append(
                Finding(
                    "AL00",
                    path,
                    number,
                    f"allowlist entry for {rule} has no reason; every entry "
                    "must name the invariant it satisfies",
                )
            )
            continue
        allows[number] = rule
    return allows, findings


def lint_source(
    source: str,
    path: str,
    deterministic: bool = True,
    io_sensitive: bool = True,
    proto_module: str | None = None,
    proto_registry: Mapping[str, OpSpecLike] | None = None,
    proto_constants: Mapping[str, str] | None = None,
    handled_ops: dict[str, set[str]] | None = None,
) -> list[Finding]:
    """Lint one module's source text; ``path`` is used for reporting.

    ``deterministic`` gates ND01/WC01 and ``io_sensitive`` gates
    BLK01/RES01 (the directory-driven defaults come from
    :func:`run_lint`).  When ``proto_module`` names a cluster module and
    a registry is supplied, PROTO01 construction/dispatch checks run;
    the ops the module dispatches on are recorded into ``handled_ops``
    for the cross-module coverage pass.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Finding("SYN", path, error.lineno or 0, f"syntax error: {error.msg}")]
    raw: list[Finding] = []
    if deterministic:
        _NondeterminismChecker(path, raw, tree).visit(tree)
        _ClockChecker(path, raw).visit(tree)
    _WireChecker(path, raw).visit(tree)
    raw.extend(check_flow_rules(tree, path, io_sensitive))
    if proto_module is not None and proto_registry is not None:
        proto_findings, handled = check_protocol_usage(
            tree, path, proto_module, proto_registry, proto_constants or {}
        )
        raw.extend(proto_findings)
        if handled_ops is not None:
            handled_ops.setdefault(proto_module, set()).update(handled)
    allows, findings = _parse_allows(source, path)
    used: set[int] = set()
    for finding in raw:
        if allows.get(finding.line) == finding.rule:
            used.add(finding.line)
            continue
        findings.append(finding)
    for line, rule in allows.items():
        if line not in used:
            findings.append(
                Finding(
                    "AL01",
                    path,
                    line,
                    f"stale allowlist entry for {rule}: it suppresses no "
                    "finding on this line — remove it",
                )
            )
    return findings


def _protocol_registry() -> tuple[
    Mapping[str, OpSpecLike] | None, Mapping[str, str] | None
]:
    """The declared cluster vocabulary, if importable."""
    try:
        from repro.cluster import protocol as cluster_protocol
    except Exception:  # pragma: no cover — broken tree mid-refactor
        return None, None
    return cluster_protocol.OPS_BY_NAME, cluster_protocol.OP_CONSTANTS


def run_lint(root: Path | None = None) -> list[Finding]:
    """Lint every module under ``root`` (default: the installed package).

    Returns findings sorted by path, line, rule.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    registry, constants = _protocol_registry()
    findings: list[Finding] = []
    handled_ops: dict[str, set[str]] = {}
    module_paths: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        proto_module = PROTO_MODULES.get(relative) if registry else None
        if proto_module is not None:
            module_paths[proto_module] = relative
        findings.extend(
            lint_source(
                path.read_text(encoding="utf-8"),
                relative,
                deterministic=relative.startswith(DETERMINISTIC_PREFIXES),
                io_sensitive=relative.startswith(IO_SENSITIVE_PREFIXES),
                proto_module=proto_module,
                proto_registry=registry,
                proto_constants=constants,
                handled_ops=handled_ops,
            )
        )
    if registry is not None and handled_ops:
        findings.extend(check_op_coverage(handled_ops, module_paths, registry))
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return findings


def iter_rules() -> Iterable[tuple[str, str]]:
    """(rule, one-line description) pairs for reporting."""
    return (
        ("ND01", "nondeterministic iteration over unordered collections"),
        ("WC01", "clock read outside sanctioned budget/deadline sites"),
        ("WIRE01", "non-JSON field in a wire-crossing dataclass"),
        ("LOCK02", "guarded mutation reachable without the declared lock"),
        ("BLK01", "blocking I/O while holding a lock"),
        ("RES01", "closeable resource escaping without close()"),
        ("PROTO01", "cluster frame/dispatch outside the declared registry"),
        ("AL00", "allowlist entry without a reason"),
        ("AL01", "stale allowlist entry"),
    )
