"""Tests for the O(k^2)-state color-ordering protocol (§4, unordered setting)."""

from repro.protocols.ordering import (
    ColorOrderingProtocol,
    OrderingState,
    is_valid_ordering,
    label_assignment,
)
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population


class TestDefinition:
    def test_state_count_is_2k_squared(self):
        for k in (2, 3, 5):
            protocol = ColorOrderingProtocol(k)
            assert protocol.state_count() == 2 * k * k
            assert sum(1 for _ in protocol.states()) == 2 * k * k

    def test_initial_state(self):
        assert ColorOrderingProtocol(4).initial_state(2) == OrderingState(2, True, 0)

    def test_output_is_label(self):
        assert ColorOrderingProtocol(4).output(OrderingState(2, False, 3)) == 3


class TestTransitions:
    def test_same_color_leaders_elect(self):
        protocol = ColorOrderingProtocol(3)
        result = protocol.transition(OrderingState(1, True, 2), OrderingState(1, True, 0))
        assert result.initiator.leader
        assert not result.responder.leader
        assert result.responder.label == 2  # adopts the surviving leader's label

    def test_follower_copies_leader_label(self):
        protocol = ColorOrderingProtocol(3)
        result = protocol.transition(OrderingState(1, True, 2), OrderingState(1, False, 0))
        assert result.responder.label == 2
        mirrored = protocol.transition(OrderingState(1, False, 0), OrderingState(1, True, 2))
        assert mirrored.initiator.label == 2

    def test_label_collision_bumps_responder(self):
        protocol = ColorOrderingProtocol(4)
        result = protocol.transition(OrderingState(0, True, 1), OrderingState(2, True, 1))
        assert result.responder.label == 2
        assert result.responder.leader

    def test_label_collision_wraps_modulo_k(self):
        protocol = ColorOrderingProtocol(3)
        result = protocol.transition(OrderingState(0, True, 2), OrderingState(1, True, 2))
        assert result.responder.label == 0

    def test_distinct_labels_do_not_interact(self):
        protocol = ColorOrderingProtocol(3)
        pair = (OrderingState(0, True, 1), OrderingState(2, True, 0))
        assert protocol.transition(*pair).as_pair() == pair


class TestHelpers:
    def test_label_assignment_uses_leaders_only(self):
        states = [
            OrderingState(0, True, 2),
            OrderingState(0, False, 1),
            OrderingState(1, True, 0),
        ]
        assert label_assignment(states) == {0: 2, 1: 0}

    def test_is_valid_ordering(self):
        valid = [
            OrderingState(0, True, 0),
            OrderingState(0, False, 0),
            OrderingState(1, True, 1),
        ]
        assert is_valid_ordering(valid, 2)
        duplicate_labels = [OrderingState(0, True, 1), OrderingState(1, True, 1)]
        assert not is_valid_ordering(duplicate_labels, 2)
        missing_leader = [OrderingState(0, True, 0), OrderingState(1, False, 1)]
        assert not is_valid_ordering(missing_leader, 2)
        two_leaders = [
            OrderingState(0, True, 0),
            OrderingState(0, True, 1),
            OrderingState(1, True, 2),
        ]
        assert not is_valid_ordering(two_leaders, 3)


class TestConvergence:
    def test_reaches_valid_ordering_under_random_scheduler(self):
        k = 3
        colors = [0, 0, 1, 1, 1, 2, 2]
        protocol = ColorOrderingProtocol(k)
        population = Population.from_colors(protocol, colors)
        scheduler = UniformRandomScheduler(len(colors), seed=5)
        simulation = AgentSimulation(protocol, population, scheduler)
        simulation.run(300 * len(colors) * len(colors))
        assert is_valid_ordering(simulation.states(), k)
