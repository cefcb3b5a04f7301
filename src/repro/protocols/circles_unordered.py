"""Circles in the unordered setting (§4, "Unordered setting").

In the unordered setting agents can only compare colors for equality and
memorize them — the numeric value of a color (which Circles' weight function
uses) is not available.  The paper sketches an ``O(k^4)``-state adaptation:
run the ``O(k^2)`` ordering protocol (per-color leader election + label
incrementing) to *generate* numeric labels for the colors, write the label
directly into the bra, and re-initialize an agent's Circles layer whenever the
label representing its color changes.

This module implements that sketch directly.  The agent state is

    ``(color, leader, bra_label, ket_label, out_color)``

for ``2·k^4`` declared states (``O(k^4)`` as announced):

* the *ordering layer* elects one leader per color and resolves label
  collisions between leaders of different colors (labels live in ``[0, k-1]``,
  incremented modulo ``k`` — the same documented deviation as
  :mod:`repro.protocols.ordering`);
* whenever an agent's own label changes, its Circles layer is re-initialized
  to the diagonal ``⟨label|label⟩`` and its output to its own color;
* the *Circles layer* runs on labels: kets are exchanged when that strictly
  decreases the minimum weight, and a diagonal agent (``bra_label ==
  ket_label``) broadcasts its *color* as the output.

The brief announcement notes the full construction needs additional "undo"
states to stay consistent across re-initializations; those are not specified
and are not implemented here, so the protocol is evaluated empirically
(experiment E7 measures the correctness rate under randomized fair
schedulers) rather than claimed always-correct.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.core.braket import BraKet, braket_weight
from repro.protocols.base import PopulationProtocol, TransitionResult


class UnorderedState(NamedTuple):
    """Color, leader bit, Circles-on-labels bra/ket, and the output color."""

    color: int
    leader: bool
    bra_label: int
    ket_label: int
    out: int

    @property
    def braket(self) -> BraKet:
        """The label-space bra-ket of the Circles layer."""
        return BraKet(self.bra_label, self.ket_label)

    def is_diagonal(self) -> bool:
        """True when the label-space bra-ket is diagonal."""
        return self.bra_label == self.ket_label

    def __str__(self) -> str:
        role = "L" if self.leader else "f"
        return f"{role}{self.color}⟨{self.bra_label}|{self.ket_label}⟩·out={self.out}"


class UnorderedCirclesProtocol(PopulationProtocol[UnorderedState]):
    """The unordered-setting adaptation of Circles with ``2·k^4`` states."""

    name = "circles-unordered"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def states(self) -> Iterator[UnorderedState]:
        k = self.num_colors
        for color in range(k):
            for leader in (True, False):
                for bra_label in range(k):
                    for ket_label in range(k):
                        for out in range(k):
                            yield UnorderedState(color, leader, bra_label, ket_label, out)

    def state_count(self) -> int:
        """``2·k^4`` without enumeration."""
        return 2 * self.num_colors**4

    def initial_state(self, color: int) -> UnorderedState:
        self.validate_color(color)
        # All colors start with label 0; the ordering layer separates them later.
        return UnorderedState(color, leader=True, bra_label=0, ket_label=0, out=color)

    def output(self, state: UnorderedState) -> int:
        return state.out

    # -- layers -----------------------------------------------------------------

    def _ordering_layer(
        self, initiator: UnorderedState, responder: UnorderedState
    ) -> tuple[UnorderedState, UnorderedState]:
        """Leader election + label management; re-initializes on label change."""
        new_initiator, new_responder = initiator, responder
        if initiator.color == responder.color:
            if initiator.leader and responder.leader:
                new_responder = self._with_label(responder, initiator.bra_label, leader=False)
            elif initiator.leader and responder.bra_label != initiator.bra_label:
                new_responder = self._with_label(responder, initiator.bra_label, leader=False)
            elif responder.leader and initiator.bra_label != responder.bra_label:
                new_initiator = self._with_label(initiator, responder.bra_label, leader=False)
        elif (
            initiator.leader
            and responder.leader
            and initiator.bra_label == responder.bra_label
        ):
            bumped = (responder.bra_label + 1) % self.num_colors
            new_responder = self._with_label(responder, bumped, leader=True)
        return new_initiator, new_responder

    def _with_label(self, state: UnorderedState, label: int, leader: bool) -> UnorderedState:
        """Update an agent's label, re-initializing its Circles layer if the label changed."""
        if label == state.bra_label:
            return UnorderedState(state.color, leader, state.bra_label, state.ket_label, state.out)
        return UnorderedState(state.color, leader, label, label, state.color)

    def _should_exchange(self, first: BraKet, second: BraKet) -> bool:
        k = self.num_colors
        before = min(braket_weight(first, k), braket_weight(second, k))
        after = min(
            braket_weight(first.with_ket(second.ket), k),
            braket_weight(second.with_ket(first.ket), k),
        )
        return after < before

    def _circles_layer(
        self, initiator: UnorderedState, responder: UnorderedState
    ) -> tuple[UnorderedState, UnorderedState]:
        """The Circles dynamics on label-space bra-kets plus output broadcast."""
        new_initiator, new_responder = initiator, responder
        if self._should_exchange(initiator.braket, responder.braket):
            new_initiator = UnorderedState(
                initiator.color,
                initiator.leader,
                initiator.bra_label,
                responder.ket_label,
                initiator.out,
            )
            new_responder = UnorderedState(
                responder.color,
                responder.leader,
                responder.bra_label,
                initiator.ket_label,
                responder.out,
            )
        broadcast: int | None = None
        if new_initiator.is_diagonal():
            broadcast = new_initiator.color
        elif new_responder.is_diagonal():
            broadcast = new_responder.color
        if broadcast is not None:
            new_initiator = new_initiator._replace(out=broadcast)
            new_responder = new_responder._replace(out=broadcast)
        return new_initiator, new_responder

    # -- transition ------------------------------------------------------------------

    def transition(
        self, initiator: UnorderedState, responder: UnorderedState
    ) -> TransitionResult[UnorderedState]:
        after_ordering = self._ordering_layer(initiator, responder)
        new_initiator, new_responder = self._circles_layer(*after_ordering)
        return TransitionResult(new_initiator, new_responder)

    def is_symmetric(self) -> bool:
        return False
