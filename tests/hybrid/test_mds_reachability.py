"""Tests for the MDS model, the reachability oracle, and the hyperbox learner."""

import numpy as np
import pytest

from repro.core import GridSpec, SimulationError
from repro.core.oracle import FunctionLabelingOracle
from repro.hybrid import (
    GridSweepGuardEstimator,
    HybridAutomaton,
    Hyperbox,
    HyperboxLearner,
    IntegratorConfig,
    Mode,
    MonteCarloGuardEstimator,
    MultiModalSystem,
    ReachabilityOracle,
    SwitchingStateLabeler,
    Transition,
)


def _thermostat_system(min_dwell: float = 0.0) -> MultiModalSystem:
    """A 1-D thermostat: heating raises x, cooling lowers it; keep 0 <= x <= 10."""
    return MultiModalSystem(
        name="thermostat",
        state_names=("x",),
        modes={
            "HEAT": Mode("HEAT", lambda state: np.array([1.0]), min_dwell=min_dwell),
            "COOL": Mode("COOL", lambda state: np.array([-1.0]), min_dwell=min_dwell),
        },
        transitions=[
            Transition("toCool", "HEAT", "COOL"),
            Transition("toHeat", "COOL", "HEAT"),
        ],
        safety=lambda mode, state: 0.0 <= state[0] <= 10.0,
        initial_mode="HEAT",
        initial_state=np.array([5.0]),
    )


class TestMultiModalSystem:
    def test_structure_queries(self):
        system = _thermostat_system()
        assert {t.name for t in system.exits_of("HEAT")} == {"toCool"}
        assert {t.name for t in system.entries_of("HEAT")} == {"toHeat"}
        assert system.transition_named("toCool").target == "COOL"
        with pytest.raises(SimulationError):
            system.transition_named("missing")
        assert system.state_dict(np.array([3.0])) == {"x": 3.0}

    def test_unknown_mode_in_transition_rejected(self):
        with pytest.raises(SimulationError):
            MultiModalSystem(
                name="broken",
                state_names=("x",),
                modes={"A": Mode("A", lambda s: np.zeros(1))},
                transitions=[Transition("t", "A", "B")],
                safety=lambda mode, state: True,
                initial_mode="A",
                initial_state=np.zeros(1),
            )


class TestReachabilityOracle:
    def test_safe_until_exit(self):
        system = _thermostat_system()
        oracle = ReachabilityOracle(system, IntegratorConfig(step=0.05), horizon=30.0)
        exit_guards = {"toCool": Hyperbox.from_bounds({"x": (8.0, 10.0)})}
        verdict = oracle.label_state("HEAT", [5.0], exit_guards)
        assert verdict.safe
        assert verdict.exit_transition == "toCool"
        assert verdict.exit_time == pytest.approx(3.0, abs=0.1)

    def test_unsafe_before_exit(self):
        system = _thermostat_system()
        oracle = ReachabilityOracle(system, IntegratorConfig(step=0.05), horizon=30.0)
        # Exit guard unreachable (empty-ish range above the safe bound).
        exit_guards = {"toCool": Hyperbox.from_bounds({"x": (20.0, 30.0)})}
        verdict = oracle.label_state("HEAT", [5.0], exit_guards)
        assert not verdict.safe
        assert verdict.violation_time is not None

    def test_unsafe_initial_state(self):
        system = _thermostat_system()
        oracle = ReachabilityOracle(system, horizon=5.0)
        verdict = oracle.label_state("HEAT", [11.0], {})
        assert not verdict.safe
        assert verdict.violation_time == 0.0

    def test_expired_deadline_preempts_queries(self):
        import time

        from repro.core import BudgetExceededError

        system = _thermostat_system()
        oracle = ReachabilityOracle(system, IntegratorConfig(step=0.05), horizon=30.0)
        oracle.set_deadline(time.monotonic() - 1.0)
        with pytest.raises(BudgetExceededError, match="deadline"):
            oracle.label_state("HEAT", [5.0], {})
        # Clearing the deadline restores normal service.
        oracle.set_deadline(None)
        assert oracle.label_state("HEAT", [5.0], {}).safe in (True, False)

    def test_deadline_preempts_mid_simulation(self):
        import time

        from repro.core import BudgetExceededError

        system = _thermostat_system()
        oracle = ReachabilityOracle(system, IntegratorConfig(step=1e-5), horizon=30.0)
        # A deadline a few milliseconds out expires inside the (very
        # finely stepped) trajectory, between the periodic polls.
        oracle.set_deadline(time.monotonic() + 0.005)
        with pytest.raises(BudgetExceededError, match="deadline"):
            oracle.label_state("HEAT", [5.0], {})

    def test_dwell_time_delays_exit(self):
        system = _thermostat_system()
        oracle = ReachabilityOracle(system, IntegratorConfig(step=0.05), horizon=30.0)
        exit_guards = {"toCool": Hyperbox.from_bounds({"x": (0.0, 10.0)})}
        verdict = oracle.label_state("HEAT", [9.5], exit_guards, min_dwell=2.0)
        # Must stay 2 seconds, but x exceeds 10 after 0.5s -> unsafe.
        assert not verdict.safe
        immediate = oracle.label_state("HEAT", [9.5], exit_guards, min_dwell=0.0)
        assert immediate.safe

    def test_no_exit_policy(self):
        system = _thermostat_system()
        lenient = ReachabilityOracle(system, horizon=2.0, allow_no_exit=True)
        strict = ReachabilityOracle(system, horizon=2.0, allow_no_exit=False)
        assert lenient.label_state("HEAT", [1.0], {}).safe
        assert not strict.label_state("HEAT", [1.0], {}).safe

    def test_labeler_adapter_counts_queries(self):
        system = _thermostat_system()
        oracle = ReachabilityOracle(system, horizon=10.0)
        labeler = SwitchingStateLabeler(
            oracle, mode="COOL",
            exit_guards={"toHeat": Hyperbox.from_bounds({"x": (0.0, 2.0)})},
        )
        assert labeler.label({"x": 5.0}) is True
        assert labeler.label({"x": 11.0}) is False
        assert labeler.query_count == 2


class TestHyperboxLearner:
    def _target_box_oracle(self):
        return FunctionLabelingOracle(
            lambda point: 2.0 <= point["x"] <= 6.0 and 1.0 <= point["y"] <= 3.0
        )

    def test_learns_target_box(self):
        grids = {"x": GridSpec(0.0, 10.0, 0.5), "y": GridSpec(0.0, 10.0, 0.5)}
        learner = HyperboxLearner(grids)
        over = Hyperbox.from_bounds({"x": (0.0, 10.0), "y": (0.0, 10.0)})
        result = learner.learn(over, self._target_box_oracle(), {"x": 4.0, "y": 2.0})
        assert result.seed_was_safe
        assert result.box.interval("x").low == pytest.approx(2.0)
        assert result.box.interval("x").high == pytest.approx(6.0)
        assert result.box.interval("y").low == pytest.approx(1.0)
        assert result.box.interval("y").high == pytest.approx(3.0)
        assert learner.validate_corners(result.box, self._target_box_oracle())

    def test_unsafe_seed_returns_empty_box(self):
        grids = {"x": GridSpec(0.0, 10.0, 0.5), "y": GridSpec(0.0, 10.0, 0.5)}
        learner = HyperboxLearner(grids)
        over = Hyperbox.from_bounds({"x": (0.0, 10.0), "y": (0.0, 10.0)})
        result = learner.learn(over, self._target_box_oracle(), {"x": 9.0, "y": 9.0})
        assert not result.seed_was_safe
        assert result.box.is_empty

    def test_search_respects_overapproximation(self):
        grids = {"x": GridSpec(0.0, 10.0, 0.5)}
        learner = HyperboxLearner(grids)
        oracle = FunctionLabelingOracle(lambda point: point["x"] <= 8.0)
        over = Hyperbox.from_bounds({"x": (3.0, 5.0)})
        result = learner.learn(over, oracle, {"x": 4.0})
        assert result.box.interval("x").low >= 3.0
        assert result.box.interval("x").high <= 5.0

    def test_query_budget_much_smaller_than_grid(self):
        grids = {"x": GridSpec(0.0, 100.0, 0.01)}
        learner = HyperboxLearner(grids)
        oracle = FunctionLabelingOracle(lambda point: 10.0 <= point["x"] <= 90.0)
        over = Hyperbox.from_bounds({"x": (0.0, 100.0)})
        result = learner.learn(over, oracle, {"x": 50.0})
        assert result.queries < 80  # vs 10001 grid points


class TestGuardBaselines:
    def test_grid_sweep_matches_learner_but_costs_more(self):
        grids = {"x": GridSpec(0.0, 20.0, 0.1)}
        oracle_factory = lambda: FunctionLabelingOracle(
            lambda point: 4.0 <= point["x"] <= 9.0
        )
        over = Hyperbox.from_bounds({"x": (0.0, 20.0)})
        learner = HyperboxLearner(grids)
        learned = learner.learn(over, oracle_factory(), {"x": 6.0})
        sweep = GridSweepGuardEstimator(grids).estimate(over, oracle_factory(), {"x": 6.0})
        assert sweep.box.equals(learned.box, tol=1e-9)
        assert sweep.queries > learned.queries

    def test_monte_carlo_underapproximates(self):
        grids = {"x": GridSpec(0.0, 20.0, 0.1)}
        oracle = FunctionLabelingOracle(lambda point: 4.0 <= point["x"] <= 9.0)
        estimator = MonteCarloGuardEstimator(grids, samples=50, seed=1)
        estimate = estimator.estimate(Hyperbox.from_bounds({"x": (0.0, 20.0)}), oracle)
        assert estimate.box.interval("x").low >= 4.0 - 1e-9
        assert estimate.box.interval("x").high <= 9.0 + 1e-9
        assert estimate.queries == 50


class TestHybridAutomaton:
    def test_schedule_simulation_switches_and_stays_safe(self):
        system = _thermostat_system()
        logic = {
            "toCool": Hyperbox.from_bounds({"x": (0.0, 9.0)}),
            "toHeat": Hyperbox.from_bounds({"x": (1.0, 10.0)}),
        }
        automaton = HybridAutomaton(system, logic, IntegratorConfig(step=0.05))
        trace = automaton.simulate_schedule(["toCool", "toHeat"], horizon=40.0)
        assert trace.safe
        assert trace.transitions_taken == ["toCool", "toHeat"]
        modes_visited = [interval[0] for interval in trace.mode_intervals()]
        assert modes_visited[:3] == ["HEAT", "COOL", "HEAT"]

    def test_missing_guard_rejected(self):
        system = _thermostat_system()
        with pytest.raises(SimulationError):
            HybridAutomaton(system, {"toCool": Hyperbox.from_bounds({"x": (0.0, 9.0)})})

    def test_asap_policy_switches_earlier_than_latest(self):
        system = _thermostat_system()
        logic = {
            "toCool": Hyperbox.from_bounds({"x": (6.0, 9.0)}),
            "toHeat": Hyperbox.from_bounds({"x": (1.0, 4.0)}),
        }
        automaton = HybridAutomaton(system, logic, IntegratorConfig(step=0.05))
        asap = automaton.simulate_schedule(["toCool"], horizon=20.0, switch_policy="asap")
        latest = automaton.simulate_schedule(["toCool"], horizon=20.0, switch_policy="latest")
        x_at_switch_asap = asap.points[[p.mode for p in asap.points].index("COOL")].state[0]
        x_at_switch_latest = latest.points[[p.mode for p in latest.points].index("COOL")].state[0]
        assert x_at_switch_asap <= x_at_switch_latest

    @pytest.mark.parametrize("rate, stalled", [(1e-4, True), (1e-2, False)])
    def test_latest_policy_switches_at_once_when_the_mode_stalls(self, rate, stalled):
        # x = 5 moves by rate * 0.05 per step.  The stall tolerance is
        # 1e-12 plus 1e-5 of the current value (5e-5 here), so the slow
        # mode counts as stalled and the fast one does not.
        system = MultiModalSystem(
            name="creep",
            state_names=("x",),
            modes={
                "A": Mode("A", lambda state: (rate,)),
                "B": Mode("B", lambda state: (0.0,)),
            },
            transitions=[Transition("toB", "A", "B")],
            safety=lambda mode, state: True,
            initial_mode="A",
            initial_state=(5.0,),
        )
        logic = {"toB": Hyperbox.from_bounds({"x": (0.0, 10.0)})}
        automaton = HybridAutomaton(system, logic, IntegratorConfig(step=0.05))
        # Without a stall the guard holds for the whole horizon, so the
        # latest policy never switches.
        trace = automaton.simulate_schedule(["toB"], horizon=1.0)
        assert trace.transitions_taken == (["toB"] if stalled else [])
        assert trace.points[1].mode == ("B" if stalled else "A")
