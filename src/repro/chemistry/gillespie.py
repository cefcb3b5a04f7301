"""The Gillespie SSA of a protocol's reaction network, on the scheduler's own chain.

Read as a chemical reaction network, a population protocol has one species
per state and one bimolecular reaction ``p + q → a + b`` per ordered pair of
states whose transition ``δ(p, q) = (a, b)`` changes a state.
:func:`simulate_crn` runs the exact stochastic simulation algorithm of that
network (Gillespie 1977) with the rates of the uniform random scheduler.

**Time scale.** Every ordered pair of distinct agents interacts at rate 1,
so ``n(n-1)`` interactions make one unit of time, and the reaction of the
ordered pair ``(p, q)`` fires at rate ``c_p·(c_q - [p=q])``.  Between
reactions the clock advances by an Exp(``W``) waiting time, ``W`` being the
sum of those rates, and the next reaction is drawn by
:class:`~repro.simulation.batch_engine.ActivePairMass`, the event chain of
the batch engine's sparse regime.  The sequence of configurations is
therefore the scheduler's chain with its null interactions removed.  On
protocols without a changing same-state pair (Circles among them) ``W`` is
also the mass-action propensity sum with unit rate constants.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.compile import StateSpaceCapExceeded, compile_from_states
from repro.protocols.base import PopulationProtocol
from repro.simulation.batch_engine import ActivePairMass
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike, make_rng

State = TypeVar("State", bound=Hashable)


@dataclass
class GillespieResult(Generic[State]):
    """The outcome of one SSA run."""

    final_counts: dict[State, int]
    time: float
    reactions_fired: int
    exhausted: bool
    trajectory: list[tuple[float, dict[State, int]]] = field(default_factory=list)

    def final_multiset(self) -> Multiset[State]:
        """The final mixture as a configuration multiset."""
        return Multiset(self.final_counts)


def simulate_crn(
    protocol: PopulationProtocol[State],
    initial_counts: Mapping[State, int] | Multiset[State],
    max_reactions: int = 100_000,
    max_time: float = math.inf,
    seed: RngLike = None,
    record_every: int | None = None,
) -> GillespieResult[State]:
    """Run the SSA until no reaction can fire or a budget is hit.

    Args:
        protocol: the protocol whose reaction network is simulated; its
            δ-closure from the initial species must fit the compile cap.
        initial_counts: molecule counts per species (a mapping or a multiset).
        max_reactions: cap on the number of reaction firings.
        max_time: cap on simulated (continuous) time.
        seed: RNG seed for reproducibility.
        record_every: when given, a ``(time, counts)`` snapshot is stored every
            that many firings, plus the initial and the final mixture (the
            final one only when it differs from the last snapshot).

    Returns:
        A :class:`GillespieResult`; ``exhausted`` is True when the run stopped
        because no reaction could fire (a chemically "dead", i.e. silent,
        mixture).  The reported ``time`` never exceeds ``max_time``: when the
        sampled waiting time overshoots the cap, the mixture is reported as
        observed at ``max_time`` (the overshooting reaction has not fired).

    Raises:
        ValueError: on a negative count or ``max_reactions``, a negative or
            NaN ``max_time``, or ``record_every < 1``.
        StateSpaceCapExceeded: when the δ-closure is over the compile cap.
    """
    if max_reactions < 0:
        raise ValueError(f"max_reactions must be non-negative, got {max_reactions}")
    if not max_time >= 0:
        raise ValueError(f"max_time must be a non-negative number, got {max_time}")
    if record_every is not None and record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    mixture = initial_counts if isinstance(initial_counts, Multiset) else Multiset(initial_counts)
    try:
        compiled = compile_from_states(protocol, mixture.support())
    except StateSpaceCapExceeded as exc:
        raise StateSpaceCapExceeded(
            f"the SSA runs on compiled tables, and this mixture's closure is too large: {exc}"
        ) from exc
    counts = compiled.multiset_to_counts(mixture)
    chain = ActivePairMass(compiled, counts)

    def snapshot() -> dict[State, int]:
        return compiled.counts_to_multiset(counts).counts()

    rng = make_rng(seed)
    uniform = rng.random
    time = 0.0
    fired = 0
    exhausted = False
    trajectory: list[tuple[float, dict[State, int]]] = []
    if record_every:
        trajectory.append((time, snapshot()))
    while fired < max_reactions and time < max_time:
        mass = chain.sums()[-1]
        if not mass:
            exhausted = True
            break
        time += rng.expovariate(mass)
        if time > max_time:
            # The next reaction would fire after the cap: the mixture is
            # observed *at* the cap, so the reported time must not overshoot.
            time = max_time
            break
        p, q, a, b = chain.draw(uniform())
        counts[p] -= 1
        counts[q] -= 1
        counts[a] += 1
        counts[b] += 1
        fired += 1
        if record_every and fired % record_every == 0:
            trajectory.append((time, snapshot()))
    if record_every and (fired % record_every or trajectory[-1][0] != time):
        trajectory.append((time, snapshot()))
    return GillespieResult(
        final_counts=snapshot(),
        time=time,
        reactions_fired=fired,
        exhausted=exhausted,
        trajectory=trajectory,
    )
