"""Tie-aware layers on top of Circles (§4, "Handling ties").

The paper announces (for an unpublished full version) that Circles can be
extended to handle ties "by adding simple extra-layer protocols ... while
keeping the state complexity at O(k^3)", and names three possible semantics:
*tie report* (all agents indicate a tie with a special output), *tie break*
(agree on one winning color) and *tie share* (winners output their own color,
losers output any winning color).

The constructions themselves are not given in the brief announcement, so this
module implements a best-effort **tie report** layer with precisely stated
guarantees:

* when the input has a **unique** relative majority, the layer behaves exactly
  like Circles and is therefore always correct (the extra freshness bit never
  changes the winning outputs after stabilization);
* when the input is **tied**, the layer exploits the structural fact (from
  Lemma 3.2 / 3.6) that tied inputs stabilize *without any diagonal bra-ket*:
  an agent reports ``TIE`` unless it has heard from a diagonal agent since its
  own bra-ket last changed.  This is a heuristic — a transient diagonal heard
  just before the agent's last exchange of the run can leave a stale non-tie
  output — and experiment E7 measures how often it succeeds instead of
  claiming a theorem.

The declared state count is ``2·k^3`` (a Circles state plus one freshness
bit), i.e. still ``O(k^3)`` as announced.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.core.braket import BraKet, braket_weight
from repro.protocols.base import PopulationProtocol, TransitionResult


class TieAwareState(NamedTuple):
    """A Circles state plus a freshness bit for the output."""

    bra: int
    ket: int
    out: int
    fresh: bool

    @property
    def braket(self) -> BraKet:
        """The bra-ket part of the state."""
        return BraKet(self.bra, self.ket)

    def is_diagonal(self) -> bool:
        """True when the bra-ket is ``⟨i|i⟩``."""
        return self.bra == self.ket

    def __str__(self) -> str:
        marker = "!" if self.fresh else "?"
        return f"⟨{self.bra}|{self.ket}⟩·out={self.out}{marker}"


class TieReportCircles(PopulationProtocol[TieAwareState]):
    """Circles plus a freshness bit; stale agents report the TIE sentinel."""

    name = "circles-tie-report"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def __init__(self, num_colors: int) -> None:
        super().__init__(num_colors)

    @property
    def tie_output(self) -> int:
        """The sentinel output value meaning "I believe the input is tied"."""
        return self.num_colors

    def states(self) -> Iterator[TieAwareState]:
        k = self.num_colors
        for bra in range(k):
            for ket in range(k):
                for out in range(k):
                    for fresh in (True, False):
                        yield TieAwareState(bra, ket, out, fresh)

    def state_count(self) -> int:
        """``2·k^3`` without enumeration."""
        return 2 * self.num_colors**3

    def initial_state(self, color: int) -> TieAwareState:
        self.validate_color(color)
        return TieAwareState(color, color, color, fresh=True)

    def output(self, state: TieAwareState) -> int:
        """The stored color if the agent is diagonal or fresh, else the TIE sentinel."""
        if state.is_diagonal():
            return state.bra
        return state.out if state.fresh else self.tie_output

    def _should_exchange(self, first: BraKet, second: BraKet) -> bool:
        k = self.num_colors
        before = min(braket_weight(first, k), braket_weight(second, k))
        after = min(
            braket_weight(first.with_ket(second.ket), k),
            braket_weight(second.with_ket(first.ket), k),
        )
        return after < before

    def transition(
        self, initiator: TieAwareState, responder: TieAwareState
    ) -> TransitionResult[TieAwareState]:
        new_initiator, new_responder = initiator, responder

        # Step 1: the Circles ket exchange; an exchange invalidates both outputs.
        if self._should_exchange(initiator.braket, responder.braket):
            new_initiator = TieAwareState(
                initiator.bra, responder.ket, initiator.out, fresh=False
            )
            new_responder = TieAwareState(
                responder.bra, initiator.ket, responder.out, fresh=False
            )

        # Step 2: a diagonal agent broadcasts its color and refreshes both outputs.
        broadcast: int | None = None
        if new_initiator.is_diagonal():
            broadcast = new_initiator.bra
        elif new_responder.is_diagonal():
            broadcast = new_responder.bra
        if broadcast is not None:
            new_initiator = TieAwareState(new_initiator.bra, new_initiator.ket, broadcast, True)
            new_responder = TieAwareState(new_responder.bra, new_responder.ket, broadcast, True)

        return TransitionResult(new_initiator, new_responder)

    def is_symmetric(self) -> bool:
        return True
