"""Adversarial schedulers: fair-but-slow and deliberately unfair schedules.

The paper's guarantee is *always-correctness*: the protocol converges to the
right answer under **every** weakly fair schedule, however adversarial.  Two
kinds of adversaries are useful experimentally:

* :class:`GreedyStallScheduler` — an adaptive adversary that prefers
  interactions that change nothing, but is forced (by a patience bound) to
  eventually schedule every pair.  Its infinite schedule is weakly fair, so
  Circles must still converge; it simply takes as long as the adversary can
  make it (experiment E3 uses it as the hardest fair case).
* :class:`IsolationScheduler` and :class:`SingleColorScheduler` — **unfair**
  schedulers that exclude some agents or colors from interacting.  They are
  negative controls for experiment E8: correctness may legitimately fail,
  demonstrating that the weak-fairness assumption (Definition 1.2) is
  necessary.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from typing import Any

from repro.protocols.base import PopulationProtocol
from repro.scheduling.base import Scheduler, all_ordered_pairs
from repro.utils.rng import RngLike, choose_distinct_pair


class GreedyStallScheduler(Scheduler):
    """An adaptive, weakly fair adversary that stalls progress as long as it can.

    At each step the scheduler prefers a pair whose interaction would leave
    both states unchanged (a "null" interaction).  To remain weakly fair it
    keeps a round-robin backlog: every ``patience`` consecutive stalling steps
    it instead emits the next pair of the backlog, so every pair is scheduled
    infinitely often in the infinite schedule.
    """

    name = "greedy-stall"
    is_weakly_fair = True

    def __init__(
        self,
        num_agents: int,
        protocol: PopulationProtocol,
        seed: RngLike = None,
        patience: int = 8,
    ) -> None:
        """Create the adversary.

        Args:
            num_agents: population size.
            protocol: the protocol being scheduled.  An interaction changes
                something when δ returns states other than the pair it was
                given; δ is deterministic, so the adversary applies it once
                per distinct ordered pair of states and remembers the answer.
            seed: RNG seed used to pick among stalling pairs.
            patience: how many stalling steps are allowed between two forced
                backlog interactions; must be positive.
        """
        super().__init__(num_agents, seed)
        if patience < 1:
            raise ValueError(f"patience must be positive, got {patience}")
        self._protocol = protocol
        #: Whether δ changes the pair, per ordered state pair seen so far.
        self._changes: dict[tuple[Any, Any], bool] = {}
        self._patience = patience
        self._backlog = all_ordered_pairs(num_agents)
        self._backlog_position = 0
        self._stall_streak = 0

    def _backlog_pair(self) -> tuple[int, int]:
        pair = self._backlog[self._backlog_position]
        self._backlog_position = (self._backlog_position + 1) % len(self._backlog)
        self._stall_streak = 0
        return pair

    def next_pair(self, step: int, states: Sequence[Any]) -> tuple[int, int]:
        if self._stall_streak >= self._patience:
            return self._backlog_pair()
        changes = self._changes
        candidates = []
        for initiator in range(self._num_agents):
            first = states[initiator]
            for responder in range(self._num_agents):
                if initiator == responder:
                    continue
                pair = (first, states[responder])
                changed = changes.get(pair)
                if changed is None:
                    changed = self._protocol.transition(*pair).as_pair() != pair
                    changes[pair] = changed
                if not changed:
                    candidates.append((initiator, responder))
        if candidates:
            self._stall_streak += 1
            return candidates[self._rng.randrange(len(candidates))]
        return self._backlog_pair()

    def reset(self) -> None:
        self._backlog_position = 0
        self._stall_streak = 0


class IsolationScheduler(Scheduler):
    """An **unfair** scheduler that never lets a set of agents interact.

    The isolated agents keep their initial state forever, so protocols cannot
    in general be correct under this scheduler — which is the point: it
    demonstrates why Definition 1.2 is required (experiment E8).
    """

    name = "isolation"
    is_weakly_fair = False

    def __init__(
        self, num_agents: int, isolated: Set[int] | Sequence[int], seed: RngLike = None
    ) -> None:
        super().__init__(num_agents, seed)
        isolated = frozenset(isolated)
        for index in isolated:
            if not 0 <= index < num_agents:
                raise ValueError(f"isolated agent index {index} out of range")
        self._active = [index for index in range(num_agents) if index not in isolated]
        if len(self._active) < 2:
            raise ValueError("isolation must leave at least two agents able to interact")

    def next_pair(self, step: int, states: Sequence[Any]) -> tuple[int, int]:
        first, second = choose_distinct_pair(self._rng, len(self._active))
        return self._active[first], self._active[second]


class SingleColorScheduler(Scheduler):
    """An **unfair** scheduler that only schedules a fixed subset of pairs.

    It cycles through an explicitly provided pair list and never schedules
    anything else.  Used to build hand-crafted counterexample schedules in the
    scheduler-sensitivity experiment and in unit tests.
    """

    name = "fixed-pairs"
    is_weakly_fair = False

    def __init__(
        self, num_agents: int, pairs: Sequence[tuple[int, int]], seed: RngLike = None
    ) -> None:
        super().__init__(num_agents, seed)
        if not pairs:
            raise ValueError("at least one pair is required")
        self._pairs = [self._validate_pair(tuple(pair)) for pair in pairs]
        self._position = 0

    def next_pair(self, step: int, states: Sequence[Any]) -> tuple[int, int]:
        pair = self._pairs[self._position]
        self._position = (self._position + 1) % len(self._pairs)
        return pair

    def reset(self) -> None:
        self._position = 0
