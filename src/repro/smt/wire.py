"""Process-independent wire digests for hash-consed terms.

Term *identity* is free under hash-consing but meaningless outside the
owning process.  The check memo (:mod:`repro.api.memo`) is shared across
sessions, worker processes and nodes, so it needs content-addressed keys
instead: this module digests terms structurally, so two processes that
build the same formula independently produce the same key.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.smt.terms import Term


def term_digest(term: Term, cache: dict[Term, str]) -> str:
    """Structural digest of a hash-consed term (process-independent).

    The digest is computed bottom-up over the term DAG with ``cache``
    memoizing shared sub-terms (keyed by term identity, which for
    interned terms *is* structural identity), so the cost is linear in
    the DAG size even when the tree form is exponential.  An explicit
    worklist keeps deep SSA chains clear of the recursion limit.
    """
    digest = cache.get(term)
    if digest is not None:
        return digest
    stack: list[Term] = [term]
    while stack:
        current = stack[-1]
        if current in cache:
            stack.pop()
            continue
        children = _term_children(current)
        pending = [child for child in children if child not in cache]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        parts = [type(current).__name__]
        parts.extend(_term_atoms(current))
        parts.extend(cache[child] for child in children)
        cache[current] = hashlib.sha1(
            "|".join(parts).encode("utf-8")
        ).hexdigest()
    return cache[term]


def _term_slots(cls: type) -> tuple[str, ...]:
    slots: list[str] = []
    for klass in reversed(cls.__mro__):
        slots.extend(getattr(klass, "__slots__", ()))
    return tuple(slots)


def _term_children(term: Term) -> list[Term]:
    children: list[Term] = []
    for slot in _term_slots(type(term)):
        value = getattr(term, slot)
        if isinstance(value, Term):
            children.append(value)
        elif isinstance(value, tuple):
            children.extend(item for item in value if isinstance(item, Term))
    return children


def _term_atoms(term: Term) -> list[str]:
    atoms: list[str] = []
    for slot in _term_slots(type(term)):
        if slot == "_id":  # process-local identity, never part of the wire
            continue
        value = getattr(term, slot)
        if isinstance(value, Term):
            continue
        if isinstance(value, tuple):
            if any(isinstance(item, Term) for item in value):
                atoms.append(str(len(value)))
                continue
        atoms.append(repr(value))
    return atoms


def check_wire_key(
    assertions: Sequence[Term],
    extras: Sequence[Term],
    frontier: int,
    cache: dict[Term, str],
) -> str:
    """The check-memo key for one ``check``: wire form of
    ``(assertions, extras, frontier)``.

    ``frontier`` is the solver's post-encoding SAT variable count, a
    layout witness that makes a hit's recorded model bits valid by
    construction (same formula sequence blasted from the same frontier
    yields the same variable layout).
    """
    digest = hashlib.sha1()
    for formula in assertions:
        digest.update(term_digest(formula, cache).encode("ascii"))
        digest.update(b"|")
    digest.update(b"#")
    for formula in extras:
        digest.update(term_digest(formula, cache).encode("ascii"))
        digest.update(b"|")
    return f"{frontier}:{digest.hexdigest()}"
