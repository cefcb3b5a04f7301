"""The color-ordering protocol of the unordered-setting extension (§4).

In the *unordered* setting agents can only compare colors for equality and
memorize them; they cannot use a color's numeric value.  The paper sketches an
``O(k^2)``-state protocol that *generates* an ordering: leader election within
each color class, then "the leaders increment a numeric label every time they
meet another leader with the same label", while non-leaders copy the label of
their color's leader.  Once every leader holds a distinct label, the label map
is an injective numbering of the colors — exactly what Circles needs as a
substitute for the numeric color values.

The full version of the paper (announced, unpublished) presumably proves a
bound on the label growth; this reproduction uses labels in ``[0, k-1]`` with
increments modulo ``k``, which keeps the declared state count at ``2k^2``
(color × leader bit × label) and converges almost surely under randomized
fair schedulers.  The deviation (modular increments instead of whatever the
full version does) is this reproduction's own choice, and its empirical
behaviour is measured in experiment E7 rather than claimed as a theorem.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult


class OrderingState(NamedTuple):
    """An input color, the leader bit and the current numeric label."""

    color: int
    leader: bool
    label: int

    def __str__(self) -> str:
        return f"{'L' if self.leader else 'f'}{self.color}:{self.label}"


class ColorOrderingProtocol(PopulationProtocol[OrderingState]):
    """Generate an injective color -> label map with ``2k^2`` states."""

    name = "color-ordering"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def states(self) -> Iterator[OrderingState]:
        for color in range(self.num_colors):
            for leader in (True, False):
                for label in range(self.num_colors):
                    yield OrderingState(color, leader, label)

    def state_count(self) -> int:
        """``2k^2`` without enumeration."""
        return 2 * self.num_colors * self.num_colors

    def initial_state(self, color: int) -> OrderingState:
        self.validate_color(color)
        return OrderingState(color, leader=True, label=0)

    def output(self, state: OrderingState) -> int:
        """The agent's current label for its own color."""
        return state.label

    def transition(
        self, initiator: OrderingState, responder: OrderingState
    ) -> TransitionResult[OrderingState]:
        new_initiator, new_responder = initiator, responder
        if initiator.color == responder.color:
            if initiator.leader and responder.leader:
                # Same-color leader election: the responder is demoted and
                # adopts the surviving leader's label.
                new_responder = OrderingState(responder.color, False, initiator.label)
            elif initiator.leader and not responder.leader:
                # Followers copy their leader's label.
                if responder.label != initiator.label:
                    new_responder = OrderingState(responder.color, False, initiator.label)
            elif responder.leader and not initiator.leader:
                if initiator.label != responder.label:
                    new_initiator = OrderingState(initiator.color, False, responder.label)
        else:
            if (
                initiator.leader
                and responder.leader
                and initiator.label == responder.label
            ):
                # Label collision between leaders of different colors: the
                # responder moves on to the next label (modulo k).
                new_responder = OrderingState(
                    responder.color, True, (responder.label + 1) % self.num_colors
                )
        return TransitionResult(new_initiator, new_responder)

    def is_symmetric(self) -> bool:
        return False


def label_assignment(states: Sequence[OrderingState]) -> dict[int, int]:
    """The color -> label map defined by the current leaders.

    Returns the label of each color's (first) leader; colors without a leader
    are absent.  The map is well defined once per-color leader election has
    stabilized, and injective once the ordering protocol has converged.
    """
    assignment: dict[int, int] = {}
    for state in states:
        if state.leader and state.color not in assignment:
            assignment[state.color] = state.label
    return assignment


def is_valid_ordering(states: Sequence[OrderingState], num_colors: int) -> bool:
    """Whether every present color has exactly one leader and all leader labels differ."""
    leaders: dict[int, list[int]] = {}
    present: set[int] = set()
    for state in states:
        present.add(state.color)
        if state.leader:
            leaders.setdefault(state.color, []).append(state.label)
    if set(leaders) != present:
        return False
    if any(len(labels) != 1 for labels in leaders.values()):
        return False
    labels = [labels[0] for labels in leaders.values()]
    return len(labels) == len(set(labels)) and all(0 <= label < num_colors for label in labels)
