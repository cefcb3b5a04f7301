"""Correctness verification by exhaustive model checking (experiment E3).

The paper claims *always-correctness under weak fairness*: on every input
with a unique relative majority and every weakly fair interaction sequence,
all agents eventually output the majority color forever (Theorem 3.7).

For small populations the claim can be checked mechanically on the
configuration graph — the :class:`~repro.exact.chain.ConfigurationChain` of
the input, whose edges are the configuration-changing interactions.  A
configuration is **correct** when every agent outputs the majority color.
The standard stabilization check under *global* fairness asks that from
every reachable configuration some *correct-closed* configuration (one
whose every successor is again correct) stays reachable.  On a finite graph
that is a closed-class query:

1. every configuration reaches some closed class (a bottom strongly
   connected component), and a closed class is all a run ever sees again
   once it enters one;
2. a member of a closed class reaches exactly its class, so it is
   correct-closed iff the whole class is correct;
3. hence the protocol *stabilizes correctly* iff every closed class is all
   correct, and it has an *incorrect trap* (a configuration from which no
   correct configuration is reachable) iff some closed class contains no
   correct configuration.

:func:`repro.exact.absorption.closed_classes` finds the classes in linear
time.  A graph past the configuration cap proves nothing either way, so a
truncated check reports neither stabilization nor a trap.

Global fairness implies weak fairness for the schedules it admits, so this
check is a strong mechanical corroboration rather than a literal proof of the
weak-fairness theorem; the adversarial-scheduler simulations in experiment E3
cover the weak-fairness side empirically (the paper's own proof covers it
exactly).  The distinction is documented here.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import TypeVar

from repro.core.greedy_sets import predicted_majority
from repro.exact.absorption import closed_classes
from repro.exact.chain import ChainTooLarge, ConfigurationChain
from repro.protocols.base import PopulationProtocol

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class VerificationResult:
    """The verdict of the exhaustive correctness check for one input."""

    protocol_name: str
    colors: tuple[int, ...]
    majority: int
    num_configurations: int
    always_stabilizes_correctly: bool
    has_incorrect_trap: bool
    truncated: bool

    @property
    def verified(self) -> bool:
        """True when the check passed completely (no truncation, no traps)."""
        return (
            self.always_stabilizes_correctly
            and not self.has_incorrect_trap
            and not self.truncated
        )


def verify_always_correct(
    protocol: PopulationProtocol[State],
    colors: Sequence[int],
    max_configurations: int = 200_000,
) -> VerificationResult:
    """Exhaustively check that the protocol stabilizes to the majority output.

    Args:
        protocol: the protocol to verify.
        colors: an input assignment with a unique relative majority.
        max_configurations: exploration cap; past it the result is
            ``truncated`` with ``num_configurations == max_configurations``
            and neither flag set — non-verified rather than wrong.

    Raises:
        ValueError: when the input has no unique majority.
    """
    majority = predicted_majority(colors)
    try:
        chain = ConfigurationChain.from_colors(
            protocol, colors, max_configurations=max_configurations
        )
    except ChainTooLarge:
        return VerificationResult(
            protocol_name=protocol.name,
            colors=tuple(colors),
            majority=majority,
            num_configurations=max_configurations,
            always_stabilizes_correctly=False,
            has_incorrect_trap=False,
            truncated=True,
        )
    correct = ((majority, chain.num_agents),)
    class_correct = [
        [chain.output_key(member) == correct for member in members]
        for members in closed_classes(chain.weights)
    ]
    return VerificationResult(
        protocol_name=protocol.name,
        colors=tuple(colors),
        majority=majority,
        num_configurations=chain.num_configurations,
        always_stabilizes_correctly=all(all(flags) for flags in class_correct),
        has_incorrect_trap=not all(any(flags) for flags in class_correct),
        truncated=False,
    )
