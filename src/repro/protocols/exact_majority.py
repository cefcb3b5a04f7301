"""The classical four-state exact majority protocol (two colors).

This is the standard always-correct exact-majority protocol for ``k = 2``
colors (Angluin-Aspnes-Eisenstat-style "strong/weak opinion" dynamics, also
known as the ambassador protocol).  Every agent holds an opinion in
``{0, 1}`` and a strength bit:

* two *strong* agents with opposite opinions cancel — both become weak;
* a *strong* agent converts any *weak* agent to its own opinion;
* all other interactions change nothing.

The difference between the numbers of strong-0 and strong-1 agents is
invariant, so strong agents of the minority color run out first and the
surviving strong agents of the majority color eventually convert everyone.
Under a weakly fair scheduler and a non-tied input the protocol is
always correct; it is the natural ``k = 2`` comparison point for Circles
(which needs ``2^3 = 8`` states for two colors, versus 4 here).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult


class MajorityState(NamedTuple):
    """An opinion in {0, 1} plus a strength flag."""

    opinion: int
    strong: bool

    def __str__(self) -> str:
        return f"{'S' if self.strong else 'w'}{self.opinion}"


class ExactMajorityProtocol(PopulationProtocol[MajorityState]):
    """Four-state exact majority for two colors."""

    name = "exact-majority"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def __init__(self, num_colors: int = 2) -> None:
        if num_colors != 2:
            raise ValueError("the four-state exact majority protocol only supports k = 2")
        super().__init__(num_colors)

    def states(self) -> Iterator[MajorityState]:
        for opinion in range(2):
            for strong in (True, False):
                yield MajorityState(opinion, strong)

    def initial_state(self, color: int) -> MajorityState:
        self.validate_color(color)
        return MajorityState(opinion=color, strong=True)

    def output(self, state: MajorityState) -> int:
        return state.opinion

    def transition(
        self, initiator: MajorityState, responder: MajorityState
    ) -> TransitionResult[MajorityState]:
        new_initiator, new_responder = initiator, responder
        if initiator.strong and responder.strong and initiator.opinion != responder.opinion:
            # Opposite strong opinions cancel.
            new_initiator = MajorityState(initiator.opinion, strong=False)
            new_responder = MajorityState(responder.opinion, strong=False)
        elif initiator.strong and not responder.strong:
            new_responder = MajorityState(initiator.opinion, strong=False)
        elif responder.strong and not initiator.strong:
            new_initiator = MajorityState(responder.opinion, strong=False)
        return TransitionResult(new_initiator, new_responder)
