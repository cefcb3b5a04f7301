"""Tests for the naive cancellation-plurality baseline (including its known failure)."""

from repro.protocols.cancellation_plurality import CancellationPluralityProtocol, PluralityState
from repro.scheduling.adversarial import SingleColorScheduler
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population
from repro.simulation.convergence import OutputConsensus
from repro.simulation.runner import run_protocol


class TestDefinition:
    def test_two_k_states(self):
        for k in (2, 3, 5):
            assert CancellationPluralityProtocol(k).state_count() == 2 * k

    def test_initial_state_is_active(self):
        assert CancellationPluralityProtocol(3).initial_state(2) == PluralityState(2, True)


class TestTransitions:
    def test_active_pair_of_different_colors_cancels(self):
        protocol = CancellationPluralityProtocol(3)
        result = protocol.transition(PluralityState(0, True), PluralityState(2, True))
        assert result.initiator == PluralityState(0, False)
        assert result.responder == PluralityState(2, False)

    def test_active_converts_passive(self):
        protocol = CancellationPluralityProtocol(3)
        result = protocol.transition(PluralityState(1, True), PluralityState(0, False))
        assert result.responder == PluralityState(1, False)

    def test_two_passives_change_nothing(self):
        protocol = CancellationPluralityProtocol(3)
        pair = (PluralityState(1, False), PluralityState(0, False))
        assert protocol.transition(*pair).as_pair() == pair

    def test_same_color_actives_change_nothing(self):
        protocol = CancellationPluralityProtocol(3)
        pair = (PluralityState(1, True), PluralityState(1, True))
        assert protocol.transition(*pair).as_pair() == pair


class TestBehaviour:
    def test_correct_for_two_colors_with_margin(self):
        colors = [0] * 8 + [1] * 4
        outcome = run_protocol(
            CancellationPluralityProtocol(2), colors, criterion=OutputConsensus(), seed=3
        )
        assert outcome.converged and outcome.correct

    def test_documented_failure_with_three_colors(self):
        """Counts 3/2/2: a schedule that cancels all of color 0's actives yields a wrong answer.

        This is the failure mode motivating always-correct plurality protocols
        (and the reason the naive protocol is only a baseline).
        """
        protocol = CancellationPluralityProtocol(3)
        colors = [0, 0, 0, 1, 1, 2, 2]
        population = Population.from_colors(protocol, colors)
        # Agents 0,1,2 have color 0; cancel them against 3,4 (color 1) and 5 (color 2),
        # then let the surviving color-2 active (agent 6) convert everyone.
        forced = [(0, 3), (1, 4), (2, 5)] + [(6, i) for i in range(6)]
        scheduler = SingleColorScheduler(len(colors), forced)
        simulation = AgentSimulation(protocol, population, scheduler)
        simulation.run(len(forced))
        outputs = set(simulation.outputs())
        assert outputs == {2}, "the naive protocol converges to a non-majority color"
