"""Translating population protocols into chemical reaction networks.

A population protocol with state set ``Q`` and transition function ``δ`` is
the CRN whose species are the states and which has, for every ordered pair
``(a, b)`` with ``δ(a, b) = (a', b') ≠ (a, b)``, the bimolecular reaction

    a + b  →  a' + b'        (unit rate)

A well-mixed stochastic simulation of that CRN is exactly the population
protocol under the uniform random scheduler, which is what makes the paper's
"energy minimization in chemical settings" analogy precise.

Because declared state sets can be huge (Circles has ``k^3`` states), the
translation works from a set of *seed* species (e.g. the initial states of a
concrete input) and only adds species/reactions reachable from them.  Species
discovery is the same δ-closure every compiled engine uses
(:func:`repro.compile.enumerate_states`) rather than a private re-derivation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.compile import StateSpaceCapExceeded, enumerate_states
from repro.protocols.base import PopulationProtocol

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class Reaction(Generic[State]):
    """One bimolecular reaction ``a + b → c + d`` with a rate constant."""

    reactants: tuple[State, State]
    products: tuple[State, State]
    rate: float = 1.0

    def __str__(self) -> str:
        a, b = self.reactants
        c, d = self.products
        return f"{a} + {b} -> {c} + {d} (rate {self.rate:g})"


@dataclass
class CRN(Generic[State]):
    """A chemical reaction network: species plus bimolecular reactions."""

    species: set[State] = field(default_factory=set)
    reactions: list[Reaction[State]] = field(default_factory=list)

    @property
    def num_species(self) -> int:
        """How many species the network contains."""
        return len(self.species)

    @property
    def num_reactions(self) -> int:
        """How many reactions the network contains."""
        return len(self.reactions)

    def reactions_involving(self, species: State) -> list[Reaction[State]]:
        """Every reaction that consumes the given species."""
        return [reaction for reaction in self.reactions if species in reaction.reactants]


def protocol_to_crn(
    protocol: PopulationProtocol[State],
    seed_species: Iterable[State],
    max_species: int = 100_000,
) -> CRN[State]:
    """Build the CRN induced by a protocol, restricted to states reachable from the seeds.

    Args:
        protocol: the protocol to translate.
        seed_species: the species to start the closure from (typically the
            initial states of a concrete input assignment).
        max_species: safety cap on the closure size.

    Raises:
        RuntimeError: if the closure exceeds ``max_species`` (the caller
            should seed with a concrete input rather than the full state set).
    """
    try:
        species = enumerate_states(
            protocol, seed_states=list(seed_species), max_states=max_species
        )
    except StateSpaceCapExceeded as exc:
        raise RuntimeError(
            "CRN closure exceeded the species cap; seed with a concrete input"
        ) from exc
    crn: CRN[State] = CRN(species=set(species))
    for initiator in species:
        for responder in species:
            result = protocol.transition(initiator, responder)
            if result.as_pair() != (initiator, responder):
                crn.reactions.append(
                    Reaction(reactants=(initiator, responder), products=result.as_pair())
                )
    return crn
