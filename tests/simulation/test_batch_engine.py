"""Tests for the batched configuration-level simulation engine.

The engine's claim is *exactness*: it samples the same Markov chain over
configurations as the agent engine under the uniform random scheduler, just
in cheaper windows.
Besides the usual unit checks, this module therefore carries a
distributional agreement test (two-sample chi-squared on output-count
histograms across hundreds of seeded runs) and invariant checks on the
window machinery (population conservation, pool/configuration consistency,
exact budget accounting across windows).
"""

import pytest

from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.invariants import braket_invariant_holds
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation.convergence import StableCircles
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import CallbackObserver
from repro.simulation.population import initial_states
from repro.utils.multiset import Multiset


class TestConstruction:
    def test_from_colors(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0, 0, 1], seed=1
        )
        assert simulation.num_agents == 3
        assert len(simulation.configuration()) == 3

    def test_requires_two_agents(self):
        protocol = CirclesProtocol(2)
        with pytest.raises(ValueError):
            BatchConfigurationSimulation(protocol, [protocol.initial_state(0)])

    def test_from_colors_single_agent_message(self):
        with pytest.raises(ValueError, match="a population needs at least two agents"):
            BatchConfigurationSimulation.from_colors(CirclesProtocol(2), [1])

    def test_from_colors_keeps_first_appearance_order_uncompiled(self, force_uncompiled):
        protocol = CirclesProtocol(4)
        colors = [2, 3, 2, 0, 1, 3]
        simulation = BatchConfigurationSimulation.from_colors(protocol, colors)
        assert simulation.compiled_protocol is None
        expected = Multiset(initial_states(protocol, colors))
        assert list(simulation.configuration().items()) == list(expected.items())

    def test_output_counts(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0, 0, 1], seed=13
        )
        assert simulation.output_counts() == {0: 2, 1: 1}
        assert simulation.unanimous_output() is None

    def test_engine_name(self):
        assert BatchConfigurationSimulation.engine_name == "batch"


class TestWindowMachinery:
    def test_exact_budget_accounting(self):
        """run(T) executes exactly T interactions, whatever the window split."""
        colors = [0] * 30 + [1] * 20 + [2] * 10
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), colors, seed=3
        )
        for budget in (1, 7, 1_000, 4_321):
            before = simulation.steps_taken
            simulation.run(budget)
            assert simulation.steps_taken == before + budget

    @pytest.mark.parametrize("num_agents", [16, 17, 33, 90])
    def test_population_and_pool_stay_consistent(self, num_agents):
        """The agent pool and the count table describe the same multiset."""
        colors = [index % 3 for index in range(num_agents)]
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), colors, seed=num_agents
        )
        for _ in range(50):
            simulation.run_burst()
            assert Multiset(simulation.states()) == simulation.configuration()
            assert len(simulation.configuration()) == num_agents

    def test_braket_invariant_preserved(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(4), [0, 0, 1, 2, 3, 3] * 5, seed=5
        )
        for _ in range(40):
            simulation.run_burst()
            assert braket_invariant_holds(simulation.states())

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
    def test_braket_invariant_holds_after_every_interaction(self, compiled, request):
        if not compiled:
            request.getfixturevalue("force_uncompiled")
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(4), [0, 0, 1, 2, 3, 3], seed=5
        )
        assert (simulation.compiled_protocol is not None) == compiled
        for _ in range(300):
            simulation.run(1)
            assert braket_invariant_holds(simulation.states())
        assert len(simulation.configuration()) == 6

    def test_counters(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), [0, 1, 2], seed=7
        )
        simulation.run(50)
        assert simulation.steps_taken == 50
        assert 0 < simulation.interactions_changed <= 50

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
    def test_small_populations_keep_budget_and_pool(self, compiled, request):
        """A window is at most n interactions; any budget is met exactly."""
        if not compiled:
            request.getfixturevalue("force_uncompiled")
        colors = [0, 0, 1] * 4  # n = 12
        simulation = BatchConfigurationSimulation.from_colors(CirclesProtocol(2), colors, seed=7)
        assert (simulation.compiled_protocol is not None) == compiled
        assert simulation.run_burst() == len(colors)
        assert simulation.run_burst(5) == 5
        simulation.run(500)
        assert simulation.steps_taken == len(colors) + 5 + 500
        assert Multiset(simulation.states()) == simulation.configuration()
        assert len(simulation.configuration()) == len(colors)

    def test_same_seed_same_trajectory(self):
        colors = [0] * 20 + [1] * 12
        runs = []
        for _ in range(2):
            simulation = BatchConfigurationSimulation.from_colors(
                CirclesProtocol(2), colors, seed=11
            )
            simulation.run(2_000)
            runs.append(simulation.configuration())
        assert runs[0] == runs[1]

    def test_observer_counts_match_interactions_changed(self):
        observed = 0

        def observe(initiator, responder, result, count):
            nonlocal observed
            observed += count

        colors = [0] * 25 + [1] * 15 + [2] * 10
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), colors, seed=13
        )
        simulation.add_observer(CallbackObserver(observe))
        simulation.run(5_000)
        assert observed == simulation.interactions_changed > 0


class TestConvergence:
    def test_reaches_predicted_stable_configuration(self):
        colors = [0] * 8 + [1] * 6 + [2] * 4  # n = 18
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(3), colors, seed=17
        )
        converged = simulation.run(500_000, criterion=StableCircles())
        assert converged
        final_brakets = Multiset(state.braket for state in simulation.states())
        assert final_brakets == predicted_stable_brakets(colors)
        assert simulation.unanimous_output() == 0

    def test_negative_budget_rejected(self):
        simulation = BatchConfigurationSimulation.from_colors(
            CirclesProtocol(2), [0, 1], seed=1
        )
        with pytest.raises(ValueError):
            simulation.run(-5)


class TestDistributionalAgreement:
    """The batch engine samples the agent engine's uniform-scheduler chain."""

    TRIALS = 300
    HORIZON = 60
    COLORS = [0] * 12 + [1] * 8  # n = 20: three windows per run

    def _majority_count_histogram(self, engine_cls, seed_base: int) -> dict[int, int]:
        histogram: dict[int, int] = {}
        protocol = CirclesProtocol(2)
        for trial in range(self.TRIALS):
            seed = seed_base + trial
            if engine_cls is AgentSimulation:
                scheduler = UniformRandomScheduler(len(self.COLORS), seed=seed)
                simulation = AgentSimulation.from_colors(
                    protocol, self.COLORS, scheduler=scheduler
                )
            else:
                simulation = engine_cls.from_colors(protocol, self.COLORS, seed=seed)
            simulation.run(self.HORIZON)
            count = simulation.output_counts().get(0, 0)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def test_output_count_distributions_agree(self, two_sample_chi_squared):
        batched = self._majority_count_histogram(BatchConfigurationSimulation, 40_000)
        agent = self._majority_count_histogram(AgentSimulation, 80_000)
        statistic, critical = two_sample_chi_squared(batched, agent)
        assert statistic < critical, (
            f"chi-squared {statistic:.1f} exceeds the 99.9% critical value {critical:.1f}: "
            f"batched {batched} vs agent {agent}"
        )
