"""Populations: the bridge between input colors and protocol states.

A *population* is the indexed collection of agent states; a *configuration*
(Definition 1.1) is its anonymous view — the multiset of states.  The helpers
here create initial populations from input color assignments and convert
between the two views.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Generic, TypeVar

from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset

State = TypeVar("State", bound=Hashable)


def initial_states(
    protocol: PopulationProtocol[State], colors: Iterable[int]
) -> list[State]:
    """Map every input color through the protocol's input function."""
    states = [protocol.initial_state(color) for color in colors]
    if len(states) < 2:
        raise ValueError("a population protocol needs at least two agents")
    return states


def initial_configuration(
    protocol: PopulationProtocol[State], colors: Iterable[int]
) -> Multiset[State]:
    """The input's configuration, built from its color counts.

    Calls ``initial_state`` once per distinct color, in order of first
    appearance, so the result equals ``Multiset(initial_states(...))`` item
    order included.  The engines that take it check the population size.
    """
    return configuration_from_counts(protocol, Counter(colors))


def configuration_from_counts(
    protocol: PopulationProtocol[State], counts: Mapping[int, int]
) -> Multiset[State]:
    """The configuration of ``color -> agents`` counts, in their item order."""
    configuration: Multiset[State] = Multiset()
    for color, count in counts.items():
        configuration.add(protocol.initial_state(color), count)
    return configuration


class Population(Generic[State]):
    """An indexed population of agent states with a configuration view."""

    __slots__ = ("_states",)

    def __init__(self, states: Sequence[State]) -> None:
        if len(states) < 2:
            raise ValueError("a population needs at least two agents")
        self._states = list(states)

    @classmethod
    def from_colors(
        cls, protocol: PopulationProtocol[State], colors: Iterable[int]
    ) -> "Population[State]":
        """Create the initial population for ``protocol`` from input colors."""
        return cls(initial_states(protocol, colors))

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index: int) -> State:
        return self._states[index]

    def __setitem__(self, index: int, state: State) -> None:
        self._states[index] = state

    def __iter__(self):
        return iter(self._states)

    def states(self) -> list[State]:
        """A copy of the agent state list."""
        return list(self._states)

    def configuration(self) -> Multiset[State]:
        """The anonymous view: the multiset of states (Definition 1.1)."""
        return Multiset(self._states)

    def outputs(self, protocol: PopulationProtocol[State]) -> list[int]:
        """Every agent's current output color."""
        return [protocol.output(state) for state in self._states]

    def output_counts(self, protocol: PopulationProtocol[State]) -> dict[int, int]:
        """How many agents currently output each color."""
        counts: dict[int, int] = {}
        for state in self._states:
            color = protocol.output(state)
            counts[color] = counts.get(color, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"Population(n={len(self._states)})"
