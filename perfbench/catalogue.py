"""Spec catalogue and seeded job streams for the three workloads.

Every job the benchmark submits is a wire-form problem spec drawn from
a fixed catalogue whose verdicts are known in advance.  A stream is a
list of ``Job`` entries: the spec the program receives, plus what the
harness keeps to itself (the expected verdict, the expected worst-case
cycle count of a timing task, and which client submits it).

How the expected verdicts were established:

* Deobfuscation (``multiply45``, ``interchange``) — verdict True: the
  paper (Section 4) reports that OGIS recovers both programs from the
  full component library, and the engine's verdict is the a-posteriori
  equivalence check of the synthesized program against the reference
  semantics at the synthesis width.
* Timing analysis — the verdict of a bound query is "every execution
  takes at most ``bound`` cycles".  ``WCET`` below is the true worst
  case, found by exhaustive simulation of the platform over every
  control-relevant input (``python3 perfbench/derive.py`` recomputes
  and checks each entry at every word width the stream uses).  Bounds
  are drawn a seeded distance above (verdict True) or below (verdict
  False) it.  A distribution sweep must also report a maximum measured
  path time equal to ``WCET``.
* Switching logic (transmission, Figure 9) — verdict True: the paper
  (Section 5, Eqs. 3 and 4) synthesizes safe guards for dwell times 0
  and 5; the stream stays inside that range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: True worst-case cycle counts, by ``program`` and ``program_args``,
#: from exhaustive simulation (see ``perfbench/derive.py``).  None of
#: these depends on the word width in 16..31.
WCET: dict[str, int] = {
    "figure4_toy()": 66,
    "saturating_add()": 49,
    "absolute_difference()": 56,
    "conditional_cascade(depth=4)": 269,
    "conditional_cascade(depth=6)": 393,
    "bounded_linear_search(length=4)": 217,
    "modular_exponentiation(exponent_bits=6)": 391,
    "modular_exponentiation(exponent_bits=8)": 509,
    "modular_exponentiation(exponent_bits=10)": 635,
}


def task_key(program: str, program_args: dict) -> str:
    """The ``WCET`` key of a timing task."""
    args = ",".join(f"{name}={program_args[name]}" for name in sorted(program_args))
    return f"{program}({args})"


@dataclass
class Job:
    """One submission: the wire spec plus the harness's expectations."""

    spec: dict
    verdict: bool
    client: int = 0
    wcet: int | None = None
    tags: dict = field(default_factory=dict)


def _timing_job(
    rng: random.Random,
    program: str,
    program_args: dict,
    word_width: int,
    distribution: bool,
    client: int = 0,
) -> Job:
    wcet = WCET[task_key(program, program_args)]
    within = rng.random() < 0.5
    distance = rng.randint(1, 40)
    bound = wcet + distance if within else wcet - distance
    args = dict(program_args, word_width=word_width)
    spec = {
        "kind": "timing-analysis",
        "program": program,
        "program_args": args,
        "bound": bound,
        "seed": rng.randrange(1 << 30),
        "distribution": distribution,
    }
    return Job(spec=spec, verdict=within, client=client, wcet=wcet)


def _deobfuscation_job(task: str, width: int, seed: int, client: int = 0) -> Job:
    spec = {"kind": "deobfuscation", "task": task, "width": width, "seed": seed}
    return Job(spec=spec, verdict=True, client=client)


#: Dwell times cycled through by switching-logic jobs.  The cost of a job
#: grows with its dwell time, so a fixed cycle keeps the mix steady.
DWELL_CYCLE = (0.5, 1.0, 1.5)


def _switching_job(rng: random.Random, occurrence: int, client: int = 0) -> Job:
    # A small seeded offset keeps switching specs distinct, within and
    # across clients, so the only exact duplicates are the planned ones.
    spec = {
        "kind": "switching-logic",
        "system": "transmission",
        "dwell_time": DWELL_CYCLE[occurrence % len(DWELL_CYCLE)] + rng.random() / 100,
        "omega_step": 0.1,
    }
    return Job(spec=spec, verdict=True, client=client)


# ---------------------------------------------------------------------------
# ogis-deobf
# ---------------------------------------------------------------------------

#: The (task, width) cells of the catalogue.
OGIS_CELLS = [
    (task, width) for width in (4, 5, 6, 7) for task in ("multiply45", "interchange")
]

#: The cells of a block, in the order they run: every cell once, heavy
#: and light cells alternating.  A timed run is whole blocks (the
#: deadline is checked between blocks), so every run has the same mix.
OGIS_BLOCK = [
    ("multiply45", 7), ("interchange", 4), ("multiply45", 5), ("interchange", 5),
    ("interchange", 7), ("multiply45", 4), ("multiply45", 6), ("interchange", 6),
]

#: OGIS seeds per cell.  Of the seeds 1..16, these needed one OGIS
#: iteration and SAT propagation counts within a narrow band around the
#: cell's median (at most +-9%), measured in one engine running every
#: cell in block order, so a seeded choice among them changes the inputs
#: but hardly the amount of search.
OGIS_SEEDS = {
    ("multiply45", 4): (12, 16, 3, 4, 8),
    ("interchange", 4): (4, 12, 3, 10, 14, 8),
    ("multiply45", 5): (9, 15, 6, 12, 8),
    ("interchange", 5): (14, 10, 11, 5, 8, 13),
    ("multiply45", 6): (9, 8, 13, 14, 11),
    ("interchange", 6): (12, 2, 4, 13, 11, 1),
    ("multiply45", 7): (2, 14, 12, 13, 8),
    ("interchange", 7): (1, 8, 14, 11, 7, 6, 5, 16),
}

#: Larger pools for width 4, where ``service-mixed`` runs all of its
#: deobfuscation jobs: the 32 seeds of 1..64 closest to the median.
SERVICE_OGIS_SEEDS = {
    ("multiply45", 4): (
        1, 6, 12, 14, 16, 18, 20, 21, 22, 23, 24, 25, 27, 28, 29, 30,
        31, 32, 34, 37, 41, 42, 46, 47, 49, 50, 54, 55, 56, 60, 61, 64,
    ),
    ("interchange", 4): (
        3, 4, 8, 10, 11, 12, 14, 15, 17, 18, 19, 21, 25, 27, 30, 32,
        33, 34, 38, 42, 43, 44, 47, 50, 51, 53, 55, 57, 59, 61, 63, 64,
    ),
}


def _seed_orders(rng: random.Random, pools: dict) -> dict:
    """A seeded permutation of each cell's OGIS seed pool."""
    orders = {}
    for cell, pool in pools.items():
        order = list(pool)
        rng.shuffle(order)
        orders[cell] = order
    return orders


def ogis_stream(seed: int, blocks: int = 64) -> list[Job]:
    """Deobfuscation jobs, one block of ``OGIS_BLOCK`` after another.

    Each cell walks through a seeded permutation of its seed pool, so no
    spec repeats within five blocks and every run does about the same
    search.  A run covers two to four blocks today; the stream is long
    so that much faster code does not run out of jobs (it would meet
    repeated specs).
    """
    orders = _seed_orders(
        random.Random(f"ogis-deobf/{seed}"), {cell: OGIS_SEEDS[cell] for cell in OGIS_CELLS}
    )
    used = {cell: 0 for cell in OGIS_CELLS}
    jobs = []
    for _ in range(blocks):
        for cell in OGIS_BLOCK:
            pool = orders[cell]
            jobs.append(_deobfuscation_job(*cell, pool[used[cell] % len(pool)]))
            used[cell] += 1
    return jobs


# ---------------------------------------------------------------------------
# gametime-sweep
# ---------------------------------------------------------------------------

#: (program, program_args, distribution) of each shape in a block: four
#: light shapes, three medium, one larger and two heavy.  With every
#: shape twice, the median job latency falls inside the medium group and
#: the 90th percentile inside the heavy one, not between two groups.
GAMETIME_SHAPES = [
    ("modular_exponentiation", {"exponent_bits": 8}, True),
    ("conditional_cascade", {"depth": 4}, True),
    ("bounded_linear_search", {"length": 4}, True),
    ("figure4_toy", {}, True),
    ("modular_exponentiation", {"exponent_bits": 6}, True),
    ("saturating_add", {}, True),
    ("modular_exponentiation", {"exponent_bits": 10}, False),
    ("absolute_difference", {}, False),
    ("conditional_cascade", {"depth": 6}, True),
    ("bounded_linear_search", {"length": 4}, False),
]

#: Shape order within a block: every shape twice, the copy two places
#: after the original, while the original's session is still warm.
GAMETIME_ORDER = [0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8, 9]


def gametime_stream(seed: int, blocks: int = 160) -> list[Job]:
    """Timing-analysis jobs, in blocks of twice-submitted shapes.

    Block ``b`` runs every shape of ``GAMETIME_SHAPES`` at word width
    ``16 + b % 16``, so shapes do not carry over from one block to the
    next within 16 blocks (a run covers fewer than ten today).  Both
    copies of a shape get their own seeded bound and measurement seed;
    the copy can be answered from the sealed base scope and the check
    memo.
    """
    rng = random.Random(f"gametime-sweep/{seed}")
    jobs = []
    for block in range(blocks):
        seen: set = set()
        for index in GAMETIME_ORDER:
            program, args, distribution = GAMETIME_SHAPES[index]
            job = _timing_job(rng, program, args, 16 + block % 16, distribution)
            job.tags["repeat"] = index in seen
            seen.add(index)
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

#: Per-client slot patterns.  "dup" resubmits, verbatim, one of the
#: client's own jobs from at least two positions back: that job's
#: batch has been harvested by then, so its certificate is stored and
#: the duplicate is a certificate-store hit.  Solver shapes never cross
#: clients (client 0: deobfuscation at width 4; client 1: two timing
#: tasks), so each shape's session history, and with it every exact
#: counter, does not depend on how the two clients interleave.
SERVICE_PATTERNS = {
    0: ["deobf", "switch", "dup", "deobf", "switch", "dup", "deobf", "switch"],
    1: ["modexp", "switch", "dup", "search", "modexp", "dup", "search", "switch"],
}


def service_stream(seed: int, client: int, length: int = 1000) -> list[Job]:
    """One closed-loop client's submissions for ``service-mixed``."""
    rng = random.Random(f"service-mixed/{seed}/{client}")
    tasks = ("multiply45", "interchange")
    orders = _seed_orders(rng, SERVICE_OGIS_SEEDS)
    pattern = SERVICE_PATTERNS[client]
    counts: dict = {}
    jobs: list[Job] = []
    for position in range(length):
        slot = pattern[position % len(pattern)]
        occurrence = counts.get(slot, 0)
        counts[slot] = occurrence + 1
        if slot == "dup":
            earlier = [job for job in jobs[:-1] if not job.tags.get("duplicate")]
            original = rng.choice(earlier)
            job = Job(
                spec=dict(original.spec),
                verdict=original.verdict,
                client=client,
                wcet=original.wcet,
                tags={"duplicate": True},
            )
        elif slot == "deobf":
            task = tasks[occurrence % 2]
            pool = orders[(task, 4)]
            job = _deobfuscation_job(task, 4, pool[(occurrence // 2) % len(pool)], client)
        elif slot == "switch":
            job = _switching_job(rng, occurrence, client)
        elif slot == "modexp":
            job = _timing_job(
                rng, "modular_exponentiation", {"exponent_bits": 6}, 16, True, client
            )
        else:
            job = _timing_job(
                rng, "bounded_linear_search", {"length": 4}, 16, False, client
            )
        jobs.append(job)
    return jobs
