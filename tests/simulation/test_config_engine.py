"""Tests for the configuration-level (multiset) simulation engine."""

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.invariants import braket_invariant_holds
from repro.simulation.config_engine import ConfigurationSimulation
from repro.simulation.convergence import StableCircles
from repro.simulation.population import initial_states
from repro.utils.multiset import Multiset


class TestConstruction:
    def test_from_colors(self):
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(3), [0, 0, 1], seed=1)
        assert simulation.num_agents == 3
        assert len(simulation.configuration()) == 3

    def test_requires_two_agents(self):
        protocol = CirclesProtocol(2)
        with pytest.raises(ValueError):
            ConfigurationSimulation(protocol, [protocol.initial_state(0)])

    def test_from_colors_single_agent_message(self):
        with pytest.raises(ValueError, match="a population needs at least two agents"):
            ConfigurationSimulation.from_colors(CirclesProtocol(2), [1])

    def test_from_colors_keeps_first_appearance_order_uncompiled(self):
        protocol = CirclesProtocol(4)
        colors = [2, 3, 2, 0, 1, 3]
        simulation = ConfigurationSimulation.from_colors(protocol, colors, compiled=False)
        expected = Multiset(initial_states(protocol, colors))
        assert list(simulation.configuration().items()) == list(expected.items())


class TestDynamics:
    def test_population_size_is_preserved(self):
        simulation = ConfigurationSimulation.from_colors(
            CirclesProtocol(4), [0, 1, 2, 3, 0, 1], seed=3
        )
        for _ in range(200):
            simulation.step()
        assert len(simulation.configuration()) == 6

    def test_braket_invariant_preserved(self):
        simulation = ConfigurationSimulation.from_colors(
            CirclesProtocol(4), [0, 0, 1, 2, 3, 3], seed=5
        )
        for _ in range(300):
            simulation.step()
            assert braket_invariant_holds(list(simulation.configuration().elements()))

    def test_counters(self):
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(3), [0, 1, 2], seed=7)
        simulation.run(50)
        assert simulation.steps_taken == 50
        assert simulation.interactions_changed <= 50


class TestConvergence:
    def test_reaches_predicted_stable_configuration(self):
        colors = [0, 0, 0, 1, 1, 2]
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=11)
        converged = simulation.run(50_000, criterion=StableCircles(), check_interval=20)
        assert converged
        final_brakets = Multiset(
            state.braket for state in simulation.configuration().elements()
        )
        assert final_brakets == predicted_stable_brakets(colors)
        assert simulation.unanimous_output() == 0

    def test_output_counts(self):
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(3), [0, 0, 1], seed=13)
        assert simulation.output_counts() == {0: 2, 1: 1}
        assert simulation.unanimous_output() is None

    def test_negative_budget_rejected(self):
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(2), [0, 1], seed=1)
        with pytest.raises(ValueError):
            simulation.run(-5)

    def test_scales_to_large_populations(self):
        """10^4 agents: the per-step cost depends on distinct states, not on n."""
        colors = [0] * 5000 + [1] * 3000 + [2] * 2000
        simulation = ConfigurationSimulation.from_colors(CirclesProtocol(3), colors, seed=17)
        simulation.run(2_000)
        assert len(simulation.configuration()) == 10_000
