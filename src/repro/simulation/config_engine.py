"""The configuration-level simulation engine.

Agents are anonymous (Definition 1.1), so under the *uniform random*
scheduler the population's evolution depends only on the configuration — the
multiset of states.  :class:`ConfigurationSimulation` exploits this: it keeps
state counts instead of an agent array and samples the interacting pair of
states from the counts.  The per-step cost is ``O(d)`` in the number of
distinct states (at most ``k^3`` for Circles and usually far fewer), which
makes populations of 10^5–10^6 agents cheap to simulate; for still larger
budgets see the batched engine in :mod:`repro.simulation.batch_engine`,
which samples the same chain from an agent pool, by skipping null
interactions, or in vectorized rounds.

By default the engine runs *compiled* (see :mod:`repro.compile`): the
configuration is an integer count vector indexed by the protocol's reachable
state space and each interaction is one flat-table lookup plus four index
updates — no Python dispatch through ``transition`` and no hashing of state
objects.  ``compiled=False`` (or a δ-closure above the compile cap) selects
the original multiset path.

The engine is *exact* either way: its induced Markov chain over
configurations is the same as the agent-level engine's under
:class:`UniformRandomScheduler`; a dedicated integration test checks the
agreement distributionally.

Observation and convergence detection are inherited from
:class:`~repro.simulation.base.ConfigurationEngine`: attached observers
(:mod:`repro.simulation.observers`) receive one exact
:class:`~repro.simulation.observers.CountDelta` per changed interaction, and
on the compiled path quiescence checks are answered incrementally by the
:class:`~repro.simulation.convergence.ActivePairTracker` instead of an
``O(d²)`` rescan.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Generic, TypeVar

from repro.simulation.base import ConfigurationEngine

State = TypeVar("State", bound=Hashable)


class ConfigurationSimulation(ConfigurationEngine[State], Generic[State]):
    """Simulate a protocol on the multiset of states under the random scheduler."""

    engine_name = "configuration"

    # -- sampling ------------------------------------------------------------------

    def _sample_state(self, exclude: State | None = None) -> State:
        """Sample one agent's state proportionally to its count (uncompiled path).

        When ``exclude`` is given, one copy of that state is set aside first
        (the initiator already drawn), so the responder is sampled from the
        remaining ``n - 1`` agents.
        """
        total = self._num_agents - (1 if exclude is not None else 0)
        target = self._rng.randrange(total)
        cumulative = 0
        for state, count in self._configuration.items():
            effective = count - (1 if exclude is not None and state == exclude else 0)
            cumulative += effective
            if target < cumulative:
                return state
        raise RuntimeError("sampling failed: configuration counts are inconsistent")

    def _sample_code(self, exclude: int | None = None) -> int:
        """Sample one agent's encoded state from the count vector (compiled path)."""
        total = self._num_agents - (1 if exclude is not None else 0)
        target = self._rng.randrange(total)
        cumulative = 0
        for code, count in enumerate(self._counts):
            if exclude is not None and exclude == code:
                count -= 1
            cumulative += count
            if target < cumulative:
                return code
        raise RuntimeError("sampling failed: count vector is inconsistent")

    # -- stepping -------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one uniformly random interaction; return whether it changed anything."""
        compiled = self._compiled
        if compiled is None:
            initiator = self._sample_state()
            responder = self._sample_state(exclude=initiator)
            result = self.protocol.transition(initiator, responder).judged_from(
                initiator, responder
            )
            if result.changed:
                self._apply_changed_transition(initiator, responder, result, 1)
            self.steps_taken += 1
            return result.changed
        p = self._sample_code()
        q = self._sample_code(exclude=p)
        a, b, changed = compiled.transition_codes(p, q)
        if changed:
            self._book_changed_codes(p, q, a, b, 1)
        self.steps_taken += 1
        return changed

    def _advance(self, max_interactions: int) -> int:
        for _ in range(max_interactions):
            self.step()
        return max_interactions
