"""Tests for the agent-level simulation engine."""

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.potential import configuration_energy
from repro.scheduling.adversarial import SingleColorScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.convergence import OutputConsensus, StableCircles
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import TraceObserver
from repro.simulation.population import Population
from repro.simulation.trace import Trace


def _simulation(colors, scheduler=None):
    protocol = CirclesProtocol(max(colors) + 1)
    population = Population.from_colors(protocol, colors)
    scheduler = scheduler or RoundRobinScheduler(len(population))
    return AgentSimulation(protocol, population, scheduler), protocol


class TestStep:
    def test_step_applies_transition_to_scheduled_pair(self):
        protocol = CirclesProtocol(2)
        population = Population.from_colors(protocol, [0, 1])
        scheduler = SingleColorScheduler(2, [(0, 1)])
        simulation = AgentSimulation(protocol, population, scheduler)
        record = simulation.step()
        assert record.step == 0
        assert (record.initiator, record.responder) == (0, 1)
        assert record.changed
        assert simulation.states()[0].ket == 1

    def test_counters(self):
        simulation, _ = _simulation([0, 0, 1])
        for _ in range(10):
            simulation.step()
        assert simulation.steps_taken == 10
        assert 0 < simulation.interactions_changed <= 10

    def test_scheduler_population_size_mismatch(self):
        protocol = CirclesProtocol(2)
        population = Population.from_colors(protocol, [0, 1, 1])
        with pytest.raises(ValueError):
            AgentSimulation(protocol, population, RoundRobinScheduler(4))


class TestRun:
    def test_run_without_criterion_runs_exact_steps(self):
        simulation, _ = _simulation([0, 1, 1])
        assert simulation.run(25) is False
        assert simulation.steps_taken == 25

    def test_run_with_criterion_stops_early(self):
        simulation, protocol = _simulation([0, 0, 0, 1])
        converged = simulation.run(10_000, criterion=StableCircles(), check_interval=4)
        assert converged
        assert simulation.steps_taken < 10_000
        assert StableCircles().is_converged_configuration(
            protocol, simulation.population.configuration()
        )

    def test_run_returns_false_when_budget_too_small(self):
        simulation, _ = _simulation([0, 0, 1, 1, 2])
        assert simulation.run(1, criterion=OutputConsensus()) in (True, False)

    def test_negative_budget_rejected(self):
        simulation, _ = _simulation([0, 1])
        with pytest.raises(ValueError):
            simulation.run(-1)

    def test_immediately_converged_input(self):
        simulation, _ = _simulation([1, 1, 1])
        assert simulation.run(50, criterion=OutputConsensus()) is True
        assert simulation.steps_taken == 0


class TestTraceAndMetrics:
    def test_trace_records_every_step_with_metrics(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [0, 1, 2])
        trace = Trace()
        simulation = AgentSimulation(protocol, population, RoundRobinScheduler(3))
        simulation.add_observer(
            TraceObserver(trace, metrics={"energy": lambda states: configuration_energy(states, 3)})
        )
        for _ in range(7):
            simulation.step()
        assert len(trace) == 7
        energies = [value for _, value in trace.series("energy")]
        assert len(energies) == 7
        assert all(isinstance(value, int) for value in energies)
        assert energies == sorted(energies, reverse=True) or min(energies) >= 0

    def test_outputs_and_counts(self):
        simulation, _ = _simulation([0, 0, 1])
        counts = simulation.output_counts()
        assert counts == {0: 2, 1: 1}
        assert len(simulation.outputs()) == 3
