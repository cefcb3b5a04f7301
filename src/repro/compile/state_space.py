"""Reachable-state-space discovery.

Every protocol in this library is a finite ``(Q, I, O, δ)`` tuple
(Definition 1.1), but the *declared* state set ``Q`` is often much larger
than the set of states any execution can actually visit: Circles declares
``k^3`` states, yet from a concrete input only the closure of the initial
states under ``δ`` is ever populated.  :func:`enumerate_states` computes that
closure exactly — the least set containing the seed states and closed under
``δ`` applied to every ordered pair — in a deterministic order, which is what
:mod:`repro.compile.compiled` indexes to build flat transition tables and
what the E1 state-complexity accounting reuses instead of rediscovering
states ad hoc.

The closure is a fixpoint over pairs: when the ``i``-th discovered state is
processed it is paired (in both orders) with every state discovered up to and
including itself, so each unordered pair is evaluated exactly once and the
whole discovery costs ``O(d²)`` transition evaluations for a closure of size
``d``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TypeVar

from repro.protocols.base import PopulationProtocol

State = TypeVar("State", bound=Hashable)


class StateSpaceCapExceeded(RuntimeError):
    """The δ-closure grew past the caller's ``max_states`` cap."""


def enumerate_states(
    protocol: PopulationProtocol[State],
    input_colors: Iterable[int] | None = None,
    *,
    seed_states: Iterable[State] | None = None,
    max_states: int | None = None,
) -> list[State]:
    """Discover the reachable state space by closing ``δ`` over initial states.

    Args:
        protocol: the protocol whose transition function is closed over.
        input_colors: the input colors whose initial states seed the closure;
            defaults to every color in ``range(protocol.num_colors)``.
            Repeated colors are fine (workload color assignments can be passed
            directly) — only the distinct initial states matter.
        seed_states: seed the closure from explicit states instead of input
            colors (mutually exclusive with ``input_colors``); used by engines
            constructed from an arbitrary configuration.
        max_states: optional cap on the closure size.  Seed states never
            count against the cap; discovering a state beyond it raises
            :class:`StateSpaceCapExceeded`.

    Returns:
        The reachable states in deterministic discovery order (seeds first).
    """
    if seed_states is not None and input_colors is not None:
        raise ValueError("pass input_colors or seed_states, not both")
    if seed_states is not None:
        # Seed containers may be sets; sort for a deterministic ordering.
        seeds: list[State] = sorted(set(seed_states), key=repr)
    else:
        colors = range(protocol.num_colors) if input_colors is None else input_colors
        seeds = []
        seen: set[State] = set()
        for color in colors:
            state = protocol.initial_state(color)
            if state not in seen:
                seen.add(state)
                seeds.append(state)
    if not seeds:
        raise ValueError("state enumeration needs at least one seed state")

    states: list[State] = []
    index: dict[State, int] = {}
    for state in seeds:
        index[state] = len(states)
        states.append(state)

    transition = protocol.transition
    processed = 0
    while processed < len(states):
        current = states[processed]
        processed += 1
        # Pair `current` with every state discovered up to and including
        # itself; states discovered later are paired with `current` when their
        # own turn comes, so every ordered pair is evaluated exactly once.
        for other in states[:processed]:
            for initiator, responder in ((current, other), (other, current)):
                result = transition(initiator, responder)
                for product in (result.initiator, result.responder):
                    if product not in index:
                        if max_states is not None and len(states) >= max_states:
                            raise StateSpaceCapExceeded(
                                f"δ-closure of {protocol.name!r} exceeded the cap of "
                                f"{max_states} states"
                            )
                        index[product] = len(states)
                        states.append(product)
    return states


def reachable_state_count(
    protocol: PopulationProtocol[State],
    input_colors: Iterable[int] | None = None,
    *,
    max_states: int | None = None,
) -> int:
    """The exact size of the δ-closure (cf. the declared ``state_count``)."""
    return len(enumerate_states(protocol, input_colors, max_states=max_states))
