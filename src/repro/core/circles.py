"""The Circles protocol (§2 of the paper).

Circles solves the relative majority problem with exactly ``k^3`` states and
is always correct under a weakly fair scheduler.  Its transition function is
deliberately minimal — two agents that interact perform two successive
operations:

1. they *exchange their kets* if doing so strictly decreases the minimum
   weight of their two bra-kets (an energy-minimization move);
2. if either agent now holds a diagonal bra-ket ``⟨i|i⟩``, both agents set
   their output to ``i``.

The module also exposes :class:`CirclesVariant`, a set of ablation switches
used by experiment E5's ablation benches: an alternative
exchange rule (decrease of the *sum* of weights instead of the minimum) and an
alternative output-propagation rule (epidemic copying instead of
diagonal-broadcast).  The paper's protocol corresponds to the default
variant.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from repro.core.braket import BraKet, braket_weight
from repro.core.state import CirclesState
from repro.protocols.base import PopulationProtocol, TransitionResult


class ExchangeRule(enum.Enum):
    """Which quantity a ket exchange must strictly decrease."""

    #: The paper's rule: the minimum of the two bra-ket weights must decrease.
    MIN_WEIGHT = "min-weight"
    #: Ablation: the sum of the two bra-ket weights must decrease.
    SUM_WEIGHT = "sum-weight"


class OutputRule(enum.Enum):
    """How the output color spreads through the population."""

    #: The paper's rule: a diagonal agent ``⟨i|i⟩`` overwrites both outputs with ``i``.
    DIAGONAL_BROADCAST = "diagonal-broadcast"
    #: Ablation: additionally, non-diagonal agents copy each other's output
    #: epidemically (responder adopts initiator's output when neither is diagonal).
    EPIDEMIC = "epidemic"


class CirclesVariant:
    """A bundle of ablation switches for the Circles transition function."""

    __slots__ = ("exchange_rule", "output_rule")

    def __init__(
        self,
        exchange_rule: ExchangeRule = ExchangeRule.MIN_WEIGHT,
        output_rule: OutputRule = OutputRule.DIAGONAL_BROADCAST,
    ) -> None:
        self.exchange_rule = exchange_rule
        self.output_rule = output_rule

    @classmethod
    def paper(cls) -> "CirclesVariant":
        """The exact protocol described in the paper."""
        return cls()

    def __repr__(self) -> str:
        return (
            f"CirclesVariant(exchange_rule={self.exchange_rule.value!r}, "
            f"output_rule={self.output_rule.value!r})"
        )


class CirclesProtocol(PopulationProtocol[CirclesState]):
    """The Circles relative-majority protocol with ``k^3`` states."""

    name = "circles"

    def __init__(self, num_colors: int, variant: CirclesVariant | None = None) -> None:
        super().__init__(num_colors)
        self.variant = variant or CirclesVariant.paper()

    def compile_signature(self):
        """Pure function of ``(class, k, variant)``: the ablation switches are
        part of the transition function, so each variant compiles its own
        tables."""
        return (
            type(self),
            self.num_colors,
            self.variant.exchange_rule,
            self.variant.output_rule,
        )

    def default_criterion(self):
        """``StableCircles``: the stable structure Theorem 3.7 reaches and keeps."""
        from repro.simulation.convergence import StableCircles

        return StableCircles()

    # -- protocol maps ---------------------------------------------------------

    def states(self) -> Iterator[CirclesState]:
        """All triples ``(bra, ket, out) ∈ [0, k-1]^3`` — exactly ``k^3`` states."""
        k = self.num_colors
        for bra in range(k):
            for ket in range(k):
                for out in range(k):
                    yield CirclesState(bra, ket, out)

    def state_count(self) -> int:
        """``k^3``, without enumerating (kept exact for large ``k`` in E1)."""
        return self.num_colors**3

    def initial_state(self, color: int) -> CirclesState:
        """Input map: start as ``⟨color|color⟩`` with ``out = color``."""
        self.validate_color(color)
        return CirclesState.initial(color)

    def output(self, state: CirclesState) -> int:
        """Output map: report the stored ``out`` color."""
        return state.out

    # -- transition ---------------------------------------------------------------

    def weight(self, braket: BraKet) -> int:
        """The weight ``w(⟨i|j⟩)`` for this protocol's ``k``."""
        return braket_weight(braket, self.num_colors)

    def should_exchange(self, first: BraKet, second: BraKet) -> bool:
        """Whether step (1) of the transition swaps the two kets."""
        weight_first = self.weight(first)
        weight_second = self.weight(second)
        swapped_first = first.with_ket(second.ket)
        swapped_second = second.with_ket(first.ket)
        new_first = self.weight(swapped_first)
        new_second = self.weight(swapped_second)
        if self.variant.exchange_rule is ExchangeRule.MIN_WEIGHT:
            return min(new_first, new_second) < min(weight_first, weight_second)
        return new_first + new_second < weight_first + weight_second

    def transition(
        self, initiator: CirclesState, responder: CirclesState
    ) -> TransitionResult[CirclesState]:
        """Apply the two-step Circles transition to one interaction."""
        new_initiator = initiator
        new_responder = responder

        # Step 1: exchange kets when that strictly lowers the minimum weight.
        if self.should_exchange(initiator.braket, responder.braket):
            new_initiator = initiator.with_ket(responder.ket)
            new_responder = responder.with_ket(initiator.ket)

        # Step 2: a diagonal agent broadcasts its color as the output of both.
        broadcast_color: int | None = None
        if new_initiator.is_diagonal():
            broadcast_color = new_initiator.bra
        elif new_responder.is_diagonal():
            broadcast_color = new_responder.bra
        if broadcast_color is not None:
            new_initiator = new_initiator.with_out(broadcast_color)
            new_responder = new_responder.with_out(broadcast_color)
        elif self.variant.output_rule is OutputRule.EPIDEMIC:
            new_responder = new_responder.with_out(new_initiator.out)

        return TransitionResult(new_initiator, new_responder)

    # -- convenience -----------------------------------------------------------------

    def is_symmetric(self) -> bool:
        """The paper's Circles protocol treats initiator and responder identically.

        The epidemic output ablation breaks the symmetry (the responder copies
        the initiator), so only the default variant reports symmetry without
        an exhaustive check.
        """
        if self.variant.output_rule is OutputRule.DIAGONAL_BROADCAST:
            return True
        return super().is_symmetric()

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["exchange_rule"] = self.variant.exchange_rule.value
        info["output_rule"] = self.variant.output_rule.value
        return info
