"""Tests for populations and configurations."""

import random

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.core.circles import CirclesProtocol
from repro.core.state import CirclesState
from repro.protocols.registry import get_protocol
from repro.simulation.population import Population, initial_configuration, initial_states
from repro.utils.multiset import Multiset


class TestInitialStates:
    def test_maps_through_input_function(self):
        protocol = CirclesProtocol(3)
        states = initial_states(protocol, [0, 2, 2])
        assert states == [CirclesState(0, 0, 0), CirclesState(2, 2, 2), CirclesState(2, 2, 2)]

    def test_requires_two_agents(self):
        protocol = CirclesProtocol(3)
        with pytest.raises(ValueError):
            initial_states(protocol, [0])


class TestInitialConfiguration:
    """Counts-first set-up must equal the per-agent multiset, item order included:
    past the compile cap the engines number their codes in that order."""

    @pytest.mark.parametrize(
        "name", ["circles", "circles-unordered", "exact-majority", "leader-election"]
    )
    def test_equals_per_agent_multiset_in_item_order(self, name):
        protocol = get_protocol(name, 2 if name == "exact-majority" else 4)
        rng = random.Random(name)
        for _ in range(20):
            k = protocol.num_colors
            colors = [rng.randrange(k) for _ in range(rng.randrange(2, 60))]
            expected = Multiset(initial_states(protocol, colors))
            got = initial_configuration(protocol, colors)
            assert got == expected
            assert list(got.items()) == list(expected.items())

    def test_first_appearance_order_out_of_sorted_order(self):
        protocol = CirclesProtocol(4)
        colors = [3, 1, 3, 0, 2, 1, 0]
        items = list(initial_configuration(protocol, colors).items())
        assert items == [
            (CirclesState(3, 3, 3), 2),
            (CirclesState(1, 1, 1), 2),
            (CirclesState(0, 0, 0), 2),
            (CirclesState(2, 2, 2), 1),
        ]

    def test_accepts_a_one_shot_iterable(self):
        protocol = CirclesProtocol(3)
        assert initial_configuration(protocol, iter([2, 0, 2])) == Multiset(
            {CirclesState(2, 2, 2): 2, CirclesState(0, 0, 0): 1}
        )

    def test_invalid_color_raises_the_input_map_error(self):
        with pytest.raises(ValueError, match="color 5 out of range"):
            initial_configuration(CirclesProtocol(3), [0, 1, 5, 1, 7])


class TestPopulation:
    def test_from_colors(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [0, 1, 1])
        assert len(population) == 3
        assert population[1] == CirclesState(1, 1, 1)

    def test_requires_two_agents(self):
        with pytest.raises(ValueError):
            Population([CirclesState(0, 0, 0)])

    def test_setitem_and_states_copy(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [0, 1])
        population[0] = CirclesState(0, 1, 0)
        snapshot = population.states()
        snapshot[0] = CirclesState(2, 2, 2)
        assert population[0] == CirclesState(0, 1, 0)

    def test_configuration_is_a_multiset(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [1, 1, 0])
        configuration = population.configuration()
        assert configuration.count(CirclesState(1, 1, 1)) == 2
        assert len(configuration) == 3

    def test_outputs_and_counts(self):
        protocol = CirclesProtocol(3)
        population = Population.from_colors(protocol, [0, 1, 1])
        assert population.outputs(protocol) == [0, 1, 1]
        assert population.output_counts(protocol) == {0: 1, 1: 2}

    def test_iteration(self):
        protocol = CirclesProtocol(2)
        population = Population.from_colors(protocol, [0, 1])
        assert list(population) == population.states()
