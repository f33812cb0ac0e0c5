"""Obfuscated benchmark programs (paper Figure 8) and their references.

The paper's Figure 8 shows two obfuscated code fragments and the programs
re-synthesized from them:

* **P1 — interchange**: swap two values (IP source/destination addresses)
  through a maze of XOR assignments and always-true conditionals; the
  deobfuscated program is the three-instruction XOR swap.
* **P2 — multiply by 45**: a flag-driven state machine that performs
  ``y = (y << 2) + y`` followed by ``y = (y << 3) + y``; the deobfuscated
  program is the four-instruction shift-and-add sequence.

Both obfuscated versions are implemented here as plain Python functions
over fixed-width unsigned integers (the ``~`` toggling of the one-bit
flags in the paper's C listing is rendered as ``flag ^ 1``, its intended
meaning) so they can serve as I/O oracles, plus reference (deobfuscated)
functions used by the tests to confirm that the synthesizer recovers
semantically identical programs.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import ReproError


def _mask(width: int) -> int:
    return (1 << width) - 1


# ---------------------------------------------------------------------------
# P1: interchange (XOR swap behind obfuscating conditionals)
# ---------------------------------------------------------------------------


def interchange_obfuscated(values: Sequence[int], width: int = 32) -> tuple[int, int]:
    """The obfuscated ``interchangeObs`` of Figure 8 (P1).

    Faithfully follows the published control flow: the nested conditionals
    test tautologies of the already-updated values, so every execution ends
    up performing the three XOR assignments of the classic swap, but the
    program text obscures that fact.

    Args:
        values: ``(src, dest)``.
        width: word width.

    Returns:
        The final ``(src, dest)`` pair — the inputs swapped.
    """
    if len(values) != 2:
        raise ReproError("interchange takes exactly two values")
    mask = _mask(width)
    src, dest = values[0] & mask, values[1] & mask
    src = (src ^ dest) & mask
    if src == (src ^ dest) & mask:
        src = (src ^ dest) & mask
        if src == (src ^ dest) & mask:
            dest = (src ^ dest) & mask
            if dest == (src ^ dest) & mask:
                src = (dest ^ src) & mask
                return src, dest
            src = (src ^ dest) & mask
            dest = (src ^ dest) & mask
            return src, dest
        src = (src ^ dest) & mask
    dest = (src ^ dest) & mask
    src = (src ^ dest) & mask
    return src, dest


def interchange_reference(values: Sequence[int], width: int = 32) -> tuple[int, int]:
    """The deobfuscated ``interchange`` of Figure 8 (P1): the XOR swap."""
    mask = _mask(width)
    src, dest = values[0] & mask, values[1] & mask
    dest = (src ^ dest) & mask
    src = (src ^ dest) & mask
    dest = (src ^ dest) & mask
    return src, dest


# ---------------------------------------------------------------------------
# P2: multiply by 45 (flag-driven state machine)
# ---------------------------------------------------------------------------


def multiply45_obfuscated(values: Sequence[int], width: int = 32) -> tuple[int]:
    """The obfuscated ``multiply45Obs`` of Figure 8 (P2).

    A four-state machine driven by the one-bit flags ``a``, ``b``, ``c``
    that computes ``45 * y`` via two shift-and-add rounds.  The paper's C
    listing toggles the flags with ``~``; on one-bit flags the intended
    semantics is logical negation, rendered here as ``flag ^ 1``.

    Args:
        values: ``(y,)``.
        width: word width.

    Returns:
        ``(45 * y mod 2**width,)``.
    """
    if len(values) != 1:
        raise ReproError("multiply45 takes exactly one value")
    mask = _mask(width)
    y = values[0] & mask
    a, b, z, c = 1, 0, 1, 0
    for _ in range(64):  # generous bound; the machine halts after 4 steps
        if a == 0:
            if b == 0:
                y = (z + y) & mask
                a ^= 1
                b ^= 1
                c ^= 1
                if c == 0:
                    break
            else:
                z = (z + y) & mask
                a ^= 1
                b ^= 1
                c ^= 1
                if c == 0:
                    break
        else:
            if b == 0:
                z = (y << 2) & mask
                a ^= 1
            else:
                z = (y << 3) & mask
                a ^= 1
                b ^= 1
    else:  # pragma: no cover - the state machine always terminates
        raise ReproError("obfuscated multiply45 failed to terminate")
    return (y,)


def multiply45_reference(values: Sequence[int], width: int = 32) -> tuple[int]:
    """The deobfuscated ``multiply45`` of Figure 8 (P2)."""
    mask = _mask(width)
    y = values[0] & mask
    z = (y << 2) & mask
    y = (z + y) & mask
    z = (y << 3) & mask
    y = (z + y) & mask
    return (y,)


# ---------------------------------------------------------------------------
# Additional deobfuscation-style benchmarks (ICSE'10 flavour)
# ---------------------------------------------------------------------------


def turn_off_rightmost_one_obfuscated(values: Sequence[int], width: int = 32) -> tuple[int]:
    """Clear the least-significant set bit, via an obfuscated detour.

    Reference behaviour: ``x & (x - 1)`` (Hacker's Delight / ICSE'10
    benchmark P1-style bit-twiddling task).
    """
    mask = _mask(width)
    x = values[0] & mask
    # Obfuscated: isolate the rightmost one, then subtract it.
    isolated = x & ((~x + 1) & mask)
    return ((x - isolated) & mask,)


def turn_off_rightmost_one_reference(values: Sequence[int], width: int = 32) -> tuple[int]:
    """Reference: ``x & (x - 1)``."""
    mask = _mask(width)
    x = values[0] & mask
    return (x & ((x - 1) & mask),)


def average_floor_obfuscated(values: Sequence[int], width: int = 32) -> tuple[int]:
    """Overflow-safe floor average of two words, obfuscated form.

    Reference behaviour: ``(x & y) + ((x ^ y) >> 1)``.
    """
    mask = _mask(width)
    x, y = values[0] & mask, values[1] & mask
    low_sum = (x & y) & mask
    spread = (x ^ y) & mask
    return ((low_sum + (spread >> 1)) & mask,)


def average_floor_reference(values: Sequence[int], width: int = 32) -> tuple[int]:
    """Reference floor-average: ``(x & y) + ((x ^ y) >> 1)``."""
    return average_floor_obfuscated(values, width)
