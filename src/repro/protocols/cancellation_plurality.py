"""Naive pairwise-cancellation plurality: a fast but *incorrect* baseline.

Each agent is either an *active* supporter of its input color or a *passive*
believer in some color.  Two active supporters of different colors cancel
(both become passive believers in their own colors); an active supporter
converts any passive agent it meets to believe in its color.

With two colors this coincides with a weak form of exact majority, but with
``k ≥ 3`` colors the protocol is **not** always correct: the plurality color's
active supporters can be cancelled by several different minority colors and
die out even though the color is in relative majority (e.g. counts 3/2/2).
The protocol is included as the "what goes wrong without the paper's
machinery" baseline: it uses only ``2k`` states and is fast, but experiment E6
measures a non-trivial error rate exactly where the paper's problem statement
predicts one.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult


class PluralityState(NamedTuple):
    """A color plus an active/passive flag."""

    color: int
    active: bool

    def __str__(self) -> str:
        return f"{'A' if self.active else 'p'}{self.color}"


class CancellationPluralityProtocol(PopulationProtocol[PluralityState]):
    """Pairwise cancellation plurality with ``2k`` states (not always correct)."""

    name = "cancellation-plurality"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def states(self) -> Iterator[PluralityState]:
        for color in range(self.num_colors):
            yield PluralityState(color, True)
            yield PluralityState(color, False)

    def initial_state(self, color: int) -> PluralityState:
        self.validate_color(color)
        return PluralityState(color, active=True)

    def output(self, state: PluralityState) -> int:
        return state.color

    def transition(
        self, initiator: PluralityState, responder: PluralityState
    ) -> TransitionResult[PluralityState]:
        new_initiator, new_responder = initiator, responder
        if initiator.active and responder.active:
            if initiator.color != responder.color:
                # Mutual cancellation: both demote to passive believers.
                new_initiator = PluralityState(initiator.color, active=False)
                new_responder = PluralityState(responder.color, active=False)
        elif initiator.active and not responder.active:
            new_responder = PluralityState(initiator.color, active=False)
        elif responder.active and not initiator.active:
            new_initiator = PluralityState(responder.color, active=False)
        return TransitionResult(new_initiator, new_responder)
