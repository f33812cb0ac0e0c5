"""Declarative, JSON-serializable problem specs for the engine.

The paper frames GameTime, OGIS deobfuscation and switching-logic
synthesis as instances of one sciduction triple ⟨H, I, D⟩; this module
gives the three applications one declarative *problem* vocabulary to
match.  A problem spec is a plain dataclass naming a registered scenario
plus its parameters — no callables, no solver handles — so specs can be
serialized, queued, and replayed:

    spec = DeobfuscationProblem(task="multiply45", width=8)
    data = spec.to_dict()              # wire form
    spec2 = problem_from_dict(data)    # round-trips

New problem types plug in through :func:`register_problem_type` without
touching the engine: subclasses declare a ``kind`` discriminator, how to
build their underlying :class:`~repro.core.procedure.SciductionProcedure`
from a :class:`JobContext`, and (optionally) how to post-process the
result.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

from repro.api.config import EngineConfig
from repro.api.pool import SolverLease
from repro.core.exceptions import ReproError
from repro.core.procedure import SciductionProcedure, SciductionResult

if TYPE_CHECKING:
    from repro.platform.measurement import MeasurementMemo


@dataclass
class JobContext:
    """Everything a problem spec may draw on while building its procedure.

    Attributes:
        config: the engine configuration (one config per engine; problem
            specs carry *problem* parameters, never solver flags).
        lease: the pooled solver lease assigned to this job, or ``None``
            when the problem does not use SMT (or no pool is in play).
        deadline: ``time.monotonic()`` timestamp after which the job
            should be preempted.  SMT-backed jobs get it enforced inside
            the SAT loop via the lease; simulation-backed problems must
            wire it into their own deductive engine (see
            :meth:`SwitchingLogicProblem.build`).
        measurement_memo: the engine's memo of platform measurements, or
            ``None`` to run the simulator for every measurement.  Cycle
            counts are a function of the memo key, so a hit changes no
            result.
    """

    config: EngineConfig = field(default_factory=EngineConfig)
    lease: SolverLease | None = None
    deadline: float | None = None
    measurement_memo: MeasurementMemo | None = None


class ProblemSpec:
    """Base class for declarative problem specifications.

    Concrete specs are dataclasses; ``kind`` is the wire discriminator
    used by the registry.  The default :meth:`run` builds the procedure
    and runs it, stamping the spec and the ⟨H, I, D⟩ description into the
    result's details.
    """

    #: Wire-format discriminator (unique per registered problem type).
    kind: ClassVar[str] = "abstract"
    #: Whether the job should be given a pooled SMT solver session.
    needs_solver: ClassVar[bool] = True

    def shape_key(self) -> str:
        """Routing key for shape-aware session placement.

        Jobs with equal shape keys produce structurally similar SMT
        encodings (same problem kind, same bit widths), so the
        :class:`~repro.api.pool.SolverPool` routes them to the session
        that last solved the same shape — its bit-blast caches and
        sealed base scope then actually apply.  The engine's
        parallel executor also buckets jobs onto workers by this key,
        which keeps every shape's session history (and therefore every
        result) identical to the sequential run.  Subclasses refine the
        default (the bare ``kind``) with their width signature.
        """
        return self.kind

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        data = {"kind": self.kind}
        data.update(asdict(self))  # type: ignore[call-overload]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys fail)."""
        payload = {key: value for key, value in data.items() if key != "kind"}
        known = {spec_field.name for spec_field in fields(cls)}  # type: ignore[arg-type]
        unknown = set(payload) - known
        if unknown:
            raise ReproError(
                f"unknown fields for problem kind {cls.kind!r}: {sorted(unknown)}"
            )
        return cls(**payload)

    # -- execution --------------------------------------------------------

    def build(self, context: JobContext | None = None) -> SciductionProcedure:
        """Construct the underlying sciduction procedure."""
        raise NotImplementedError

    def run_kwargs(self) -> dict:
        """Extra keyword arguments for ``procedure.run()``."""
        return {}

    def finish(
        self, result: SciductionResult, procedure: SciductionProcedure
    ) -> SciductionResult:
        """Hook for per-problem post-processing (e.g. verdict checks)."""
        return result

    def run(self, context: JobContext | None = None) -> SciductionResult:
        """Build and run the procedure, annotating the result."""
        context = context or JobContext()
        procedure = self.build(context)
        result = procedure.run(**self.run_kwargs())
        result = self.finish(result, procedure)
        result.details.setdefault("problem", self.to_dict())
        result.details.setdefault("hid", procedure.describe())
        return result


#: Registry of problem types, keyed by their ``kind`` discriminator.
_PROBLEM_TYPES: dict[str, type[ProblemSpec]] = {}


def register_problem_type(cls: type[ProblemSpec]) -> type[ProblemSpec]:
    """Class decorator registering a spec under its ``kind``.

    Registration is what lets new scenarios plug into the engine without
    touching it: ``problem_from_dict`` (and therefore any queue/wire
    front end) dispatches purely on the registry.
    """
    if not cls.kind or cls.kind == "abstract":
        raise ReproError(f"{cls.__name__} must declare a concrete 'kind'")
    existing = _PROBLEM_TYPES.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ReproError(f"problem kind {cls.kind!r} is already registered")
    _PROBLEM_TYPES[cls.kind] = cls
    return cls


def problem_types() -> dict[str, type[ProblemSpec]]:
    """A copy of the registry (kind → spec class)."""
    return dict(_PROBLEM_TYPES)


def problem_from_dict(data: dict) -> ProblemSpec:
    """Instantiate the right spec class for a wire-format dictionary."""
    kind = data.get("kind")
    if kind not in _PROBLEM_TYPES:
        raise ReproError(
            f"unknown problem kind {kind!r} "
            f"(registered: {sorted(_PROBLEM_TYPES)})"
        )
    return _PROBLEM_TYPES[kind].from_dict(data)


# ---------------------------------------------------------------------------
# Deobfuscation (paper Section 4)
# ---------------------------------------------------------------------------


def _deobfuscation_tasks() -> dict:
    """Named OGIS benchmark tasks (library, obfuscated, reference, arity)."""
    from repro.ogis import (
        insufficient_multiply45_library,
        interchange_library,
        interchange_obfuscated,
        interchange_reference,
        multiply45_library,
        multiply45_obfuscated,
        multiply45_reference,
    )

    return {
        "interchange": (
            interchange_library, interchange_obfuscated, interchange_reference, 2, 2,
        ),
        "multiply45": (
            multiply45_library, multiply45_obfuscated, multiply45_reference, 1, 1,
        ),
        # The Figure 7 failure mode: an insufficient library, so synthesis
        # either reports infeasibility or produces an artifact that fails
        # the a-posteriori equivalence check (verdict False).
        "multiply45_insufficient": (
            insufficient_multiply45_library, multiply45_obfuscated,
            multiply45_reference, 1, 1,
        ),
    }


#: Largest synthesis width a deobfuscation spec may ask for (the paper's
#: Figure 8 programs are 32-bit).
MAX_DEOBFUSCATION_WIDTH = 64


@register_problem_type
@dataclass
class DeobfuscationProblem(ProblemSpec):
    """Recover a clean program from a named obfuscated I/O oracle.

    Attributes:
        task: registered task name (see :func:`deobfuscation_task_names`).
        width: synthesis bit width, 1 to :data:`MAX_DEOBFUSCATION_WIDTH`.
        seed: RNG seed for the initial oracle queries.
        max_iterations: OGIS candidate/distinguishing-input round budget.
        initial_examples: random seed inputs queried up front.
        examples: I/O examples seeding the loop, as
            ``[[inputs...], [outputs...]]`` pairs, each checked against
            the obfuscated program when the spec is built.  This is the
            wire form of the ``partial["examples"]`` payload a
            budget-exhausted run leaves in its result details.
            Resubmitting with them makes the job *resumable*: synthesis
            continues from the learned evidence instead of restarting
            from zero.  These three are at most
            :data:`repro.ogis.synthesizer.MAX_EXAMPLES`, and so is every
            run's example set, so a run's ``partial["examples"]`` decodes.
    """

    kind: ClassVar[str] = "deobfuscation"
    needs_solver: ClassVar[bool] = True

    task: str = "multiply45"
    width: int = 8
    seed: int = 0
    max_iterations: int = 32
    initial_examples: int = 1
    examples: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # Validated at decode, like TimingAnalysisProblem: a malformed spec
        # is a 400 at submission instead of a failure deep inside the
        # synthesis loop, and a seeded example the oracle disagrees with
        # is refused instead of steering synthesis to a wrong program.
        from repro.ogis.synthesizer import MAX_EXAMPLES

        tasks = _deobfuscation_tasks()
        if not isinstance(self.task, str) or self.task not in tasks:
            raise ReproError(
                f"unknown deobfuscation task {self.task!r} "
                f"(available: {sorted(tasks)})"
            )
        for name in ("width", "max_iterations", "initial_examples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(f"{name!r} must be an integer, got {type(value).__name__}")
            if name != "seed" and value < 1:
                raise ReproError(f"{name!r} must be at least 1, got {value}")
            if name in ("max_iterations", "initial_examples") and value > MAX_EXAMPLES:
                raise ReproError(f"{name!r} must be at most {MAX_EXAMPLES}, got {value}")
        # Checking a seeded example runs the oracle at this width, so the
        # width is bounded before any example is looked at.
        if self.width > MAX_DEOBFUSCATION_WIDTH:
            raise ReproError(
                f"'width' must be at most {MAX_DEOBFUSCATION_WIDTH}, got {self.width}"
            )
        _, obfuscated, _, num_inputs, num_outputs = tasks[self.task]
        # The random seeding phase draws distinct inputs, so it cannot ask
        # for more than the input space holds.
        input_bits = self.width * num_inputs
        if self.initial_examples > 1 << input_bits:
            raise ReproError(
                f"'initial_examples' must be at most 2**{input_bits} (the distinct "
                f"inputs of {self.task!r} at width {self.width}), got {self.initial_examples}"
            )
        if not isinstance(self.examples, list):
            raise ReproError(f"'examples' must be a list, got {type(self.examples).__name__}")
        if len(self.examples) > MAX_EXAMPLES:
            raise ReproError(
                f"'examples' must hold at most {MAX_EXAMPLES} examples, got {len(self.examples)}"
            )
        mask = (1 << self.width) - 1
        for index, example in enumerate(self.examples):
            where = f"'examples'[{index}]"
            if not (
                isinstance(example, list)
                and len(example) == 2
                and all(isinstance(part, list) for part in example)
            ):
                raise ReproError(f"{where} must be an [inputs, outputs] pair of lists")
            inputs, outputs = example
            if len(inputs) != num_inputs or len(outputs) != num_outputs:
                raise ReproError(
                    f"{where} must have {num_inputs} input(s) and {num_outputs} "
                    f"output(s) for task {self.task!r}"
                )
            for value in inputs + outputs:
                if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= mask:
                    raise ReproError(
                        f"{where} values must be integers in [0, 2**width), got {value!r}"
                    )
            # The obfuscated program itself, not the counting oracle, so a
            # resumed job's oracle_queries is unchanged.
            expected = [int(value) & mask for value in obfuscated(tuple(inputs), self.width)]
            if outputs != expected:
                raise ReproError(
                    f"{where} disagrees with the oracle: {self.task!r} maps "
                    f"{inputs} to {expected} at width {self.width}, not {outputs}"
                )

    def shape_key(self) -> str:
        return f"{self.kind}/w{self.width}"

    def _task(self) -> tuple:
        return _deobfuscation_tasks()[self.task]

    def build(self, context: JobContext | None = None) -> SciductionProcedure:
        from repro.ogis import OgisSynthesizer, ProgramIOOracle
        from repro.ogis.encoding import IOExample

        context = context or JobContext()
        library, obfuscated, _, num_inputs, num_outputs = self._task()
        oracle = ProgramIOOracle(
            lambda values: obfuscated(values, self.width),
            num_inputs,
            num_outputs,
            self.width,
        )
        return OgisSynthesizer(
            library(),
            oracle,
            width=self.width,
            max_iterations=self.max_iterations,
            initial_examples=self.initial_examples,
            seed=self.seed,
            config=context.config,
            lease=context.lease,
            examples=[
                IOExample(inputs=tuple(inputs), outputs=tuple(outputs))
                for inputs, outputs in self.examples
            ],
        )

    def finish(
        self, result: SciductionResult, procedure: SciductionProcedure
    ) -> SciductionResult:
        # A-posteriori structure-hypothesis check (paper Section 6): the
        # verdict is whether the synthesized program is equivalent to the
        # reference semantics at the synthesis width.
        _, _, reference, _, _ = self._task()
        if result.success and result.artifact is not None:
            result.verdict = bool(
                result.artifact.equivalent_to(
                    lambda values: reference(values, self.width), width=self.width
                )
            )
        elif not result.success:
            result.verdict = False
        return result


def deobfuscation_task_names() -> list[str]:
    """Names accepted by :class:`DeobfuscationProblem`."""
    return sorted(_deobfuscation_tasks())


# ---------------------------------------------------------------------------
# Timing analysis (paper Section 3)
# ---------------------------------------------------------------------------


def _timing_programs() -> dict:
    """Named task programs for timing analysis."""
    from repro.cfg.programs import (
        absolute_difference,
        bounded_linear_search,
        conditional_cascade,
        figure4_toy,
        modular_exponentiation,
        saturating_add,
    )

    return {
        "figure4_toy": figure4_toy,
        "modular_exponentiation": modular_exponentiation,
        "conditional_cascade": conditional_cascade,
        "saturating_add": saturating_add,
        "absolute_difference": absolute_difference,
        "bounded_linear_search": bounded_linear_search,
    }


#: Inclusive bounds on each ``program_args`` value of a timing spec.  The
#: size bounds are measured on a shared 2-core host: at them one job takes
#: about 3 s, while ``exponent_bits`` 24 and ``length`` 16 ran for over
#: 40 s and 60 s without finishing.  ``word_width`` shares the 64-bit
#: ceiling of :data:`MAX_DEOBFUSCATION_WIDTH`.
TIMING_ARG_BOUNDS = {
    "word_width": (1, MAX_DEOBFUSCATION_WIDTH),
    "exponent_bits": (0, 16),
    "depth": (0, 16),
    "length": (0, 8),
}

#: Largest measurement budget of a timing spec.  The learner lays out its
#: whole measurement schedule before the first run; the default budget,
#: 3 × the basis paths, is at most 207 within :data:`TIMING_ARG_BOUNDS`.
MAX_TIMING_TRIALS = 4096

#: Largest enumeration cap of a timing spec's distribution sweep, and its
#: default.
MAX_TIMING_PATHS = 4096


@register_problem_type
@dataclass
class TimingAnalysisProblem(ProblemSpec):
    """GameTime-style WCET analysis of a named task program.

    Attributes:
        program: registered program name (see
            :func:`timing_program_names`).
        program_args: keyword arguments for the program factory (e.g.
            ``{"exponent_bits": 4, "word_width": 16}``), each an integer
            within :data:`TIMING_ARG_BOUNDS`.
        bound: optional cycle bound for the ⟨TA⟩ decision problem; when
            given, the result's ``verdict`` answers "is the execution
            time always at most ``bound``?".
        trials: measurement budget (default: 3 × basis paths), at most
            :data:`MAX_TIMING_TRIALS`.
        seed: RNG seed for the measurement schedule.
        start_state: environment start state for measurements.
        distribution: additionally predict and measure *every* feasible
            path (the paper's Figure 6 distribution) and stamp the
            report into the result details.  Each path is checked once,
            in enumeration order, on the job's own leased session.
        max_paths: enumeration cap for the distribution sweep, at most
            :data:`MAX_TIMING_PATHS`.
    """

    kind: ClassVar[str] = "timing-analysis"
    needs_solver: ClassVar[bool] = True

    program: str = "modular_exponentiation"
    program_args: dict = field(default_factory=dict)
    bound: int | None = None
    trials: int | None = None
    seed: int = 0
    start_state: str = "cold"
    distribution: bool = False
    max_paths: int = MAX_TIMING_PATHS

    def __post_init__(self) -> None:
        # Validated at decode, so a malformed spec is a 400 at submission
        # instead of a silent wrong verdict (a NaN bound) or a failure
        # after the whole analysis has run.
        if not isinstance(self.program, str):
            raise ReproError(f"'program' must be a string, got {type(self.program).__name__}")
        programs = _timing_programs()
        if self.program not in programs:
            raise ReproError(
                f"unknown timing-analysis program {self.program!r} "
                f"(available: {sorted(programs)})"
            )
        if not isinstance(self.program_args, dict):
            raise ReproError(
                f"'program_args' must be an object, got {type(self.program_args).__name__}"
            )
        parameters = inspect.signature(programs[self.program]).parameters
        for name, value in self.program_args.items():
            if name not in parameters:
                raise ReproError(
                    f"'program_args' key {name!r} is not a parameter of "
                    f"{self.program!r} (expected: {sorted(parameters)})"
                )
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(
                    f"'program_args'[{name!r}] must be an integer, "
                    f"got {type(value).__name__}"
                )
            low, high = TIMING_ARG_BOUNDS[name]
            if not low <= value <= high:
                raise ReproError(
                    f"'program_args'[{name!r}] must be in [{low}, {high}], got {value}"
                )
        for name, minimum, maximum in (
            ("bound", None, None),
            ("trials", 1, MAX_TIMING_TRIALS),
            ("seed", None, None),
            ("max_paths", 1, MAX_TIMING_PATHS),
        ):
            value = getattr(self, name)
            if value is None and name in ("bound", "trials"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(f"{name!r} must be an integer, got {type(value).__name__}")
            if minimum is not None and value < minimum:
                raise ReproError(f"{name!r} must be at least {minimum}, got {value}")
            if maximum is not None and value > maximum:
                raise ReproError(f"{name!r} must be at most {maximum}, got {value}")
        if self.start_state not in ("cold", "warm"):
            raise ReproError(f"'start_state' must be 'cold' or 'warm', got {self.start_state!r}")
        if not isinstance(self.distribution, bool):
            raise ReproError(
                f"'distribution' must be a boolean, got {type(self.distribution).__name__}"
            )

    def shape_key(self) -> str:
        width = self.program_args.get("word_width", "default")
        return f"{self.kind}/{self.program}/w{width}"

    def build(self, context: JobContext | None = None) -> SciductionProcedure:
        from repro.gametime import GameTime

        context = context or JobContext()
        task = _timing_programs()[self.program](**self.program_args)
        # The path-constraint builder keeps a fingerprinted per-CFG base
        # scope open on the lease across same-shape jobs (memoized
        # feasibility verdicts), exactly like the OGIS encoder's skeleton
        # scope.
        return GameTime(
            task,
            start_state=self.start_state,
            trials=self.trials,
            seed=self.seed,
            config=context.config,
            lease=context.lease,
            measurement_memo=context.measurement_memo,
        )

    def run_kwargs(self) -> dict:
        return {
            "bound": self.bound,
            "distribution": self.distribution,
            "max_paths": self.max_paths,
        }


def timing_program_names() -> list[str]:
    """Names accepted by :class:`TimingAnalysisProblem`."""
    return sorted(_timing_programs())


# ---------------------------------------------------------------------------
# Switching-logic synthesis (paper Section 5)
# ---------------------------------------------------------------------------


@register_problem_type
@dataclass
class SwitchingLogicProblem(ProblemSpec):
    """Synthesize safe switching guards for a named multi-modal system.

    The deductive engine here is numerical simulation, not SMT, so these
    jobs do not draw on the solver pool.

    Attributes:
        system: registered system name (currently ``"transmission"``,
            the paper's Figure 9 example).
        dwell_time: minimum dwell time (0 for Eq. 3, 5.0 for Eq. 4).
        omega_step: guard-grid precision on ω.
        integration_step: RK4 step size of the simulation oracle.
        horizon: per-query simulation horizon.
        validate_corners: re-check learned guard corners (slower; yields
            hypothesis evidence).
    """

    kind: ClassVar[str] = "switching-logic"
    needs_solver: ClassVar[bool] = False

    system: str = "transmission"
    dwell_time: float = 0.0
    omega_step: float = 0.1
    integration_step: float = 0.02
    horizon: float = 60.0
    validate_corners: bool = False

    def __post_init__(self) -> None:
        # Validated at decode, so a malformed spec is a 400 at submission
        # instead of a simulation that never ends (a NaN step) or a
        # meaningless verdict (a NaN dwell time or horizon).
        if not isinstance(self.system, str):
            raise ReproError(f"'system' must be a string, got {type(self.system).__name__}")
        if not isinstance(self.validate_corners, bool):
            raise ReproError(
                "'validate_corners' must be a boolean, "
                f"got {type(self.validate_corners).__name__}"
            )
        for name in ("dwell_time", "omega_step", "integration_step", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ReproError(f"{name!r} must be a number, got {type(value).__name__}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                finite = False
            if not finite:
                raise ReproError(f"{name!r} must be finite, got {value}")
            if name == "dwell_time" and value < 0:
                raise ReproError(f"{name!r} must be non-negative, got {value}")
            if name != "dwell_time" and value <= 0:
                raise ReproError(f"{name!r} must be positive, got {value}")

    def build(self, context: JobContext | None = None) -> SciductionProcedure:
        from repro.hybrid import make_transmission_synthesizer

        context = context or JobContext()
        if self.system != "transmission":
            raise ReproError(
                f"unknown switching-logic system {self.system!r} "
                "(available: ['transmission'])"
            )
        setup = make_transmission_synthesizer(
            dwell_time=self.dwell_time,
            omega_step=self.omega_step,
            integration_step=self.integration_step,
            horizon=self.horizon,
            validate_corners=self.validate_corners,
        )
        # Deadlines cannot be enforced in a SAT loop here — the deductive
        # engine is numerical simulation — so hand them to the
        # reachability oracle's own preemption hook.
        setup.synthesizer.reachability.set_deadline(context.deadline)
        return setup.synthesizer

    def finish(
        self, result: SciductionResult, procedure: SciductionProcedure
    ) -> SciductionResult:
        # The verdict mirrors success: every transition kept a non-empty
        # safe guard, i.e. the closed-loop system was made safe.
        if result.verdict is None:
            result.verdict = result.success
        return result
