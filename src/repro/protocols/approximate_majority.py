"""The three-state approximate majority protocol (two colors).

Angluin, Aspnes and Eisenstat's celebrated three-state protocol: every agent
is either an ``0``-supporter, a ``1``-supporter or *blank*.  When two opposite
supporters meet, the responder becomes blank; when a supporter meets a blank
agent, the blank agent adopts the supporter's opinion.

The protocol converges very fast (``O(n log n)`` interactions in expectation
under the uniform random scheduler) but it is only correct *with high
probability* and only when the initial margin is large enough — it is **not**
an always-correct protocol.  It serves as the probabilistic baseline in the
convergence-time comparison (experiment E6), illustrating the trade-off the
paper's always-correct design deliberately avoids.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult


class OpinionState(NamedTuple):
    """An opinion in {0, 1} or blank (``opinion=None``)."""

    opinion: int | None

    def is_blank(self) -> bool:
        """True for the blank (undecided) state."""
        return self.opinion is None

    def __str__(self) -> str:
        return "blank" if self.opinion is None else f"opinion{self.opinion}"


class ApproximateMajorityProtocol(PopulationProtocol[OpinionState]):
    """Three-state approximate majority for two colors."""

    name = "approximate-majority"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def __init__(self, num_colors: int = 2) -> None:
        if num_colors != 2:
            raise ValueError("the three-state approximate majority protocol only supports k = 2")
        super().__init__(num_colors)
        self._last_output: dict[OpinionState, int] = {}

    def states(self) -> Iterator[OpinionState]:
        yield OpinionState(0)
        yield OpinionState(1)
        yield OpinionState(None)

    def initial_state(self, color: int) -> OpinionState:
        self.validate_color(color)
        return OpinionState(color)

    def output(self, state: OpinionState) -> int:
        """Blank agents report color 0 by convention (they hold no opinion)."""
        return state.opinion if state.opinion is not None else 0

    def transition(
        self, initiator: OpinionState, responder: OpinionState
    ) -> TransitionResult[OpinionState]:
        new_initiator, new_responder = initiator, responder
        if not initiator.is_blank() and not responder.is_blank():
            if initiator.opinion != responder.opinion:
                new_responder = OpinionState(None)
        elif not initiator.is_blank() and responder.is_blank():
            new_responder = OpinionState(initiator.opinion)
        elif initiator.is_blank() and not responder.is_blank():
            new_initiator = OpinionState(responder.opinion)
        return TransitionResult(new_initiator, new_responder)
