"""The agent-level simulation engine.

:class:`AgentSimulation` tracks every agent's state individually and asks a
:class:`~repro.scheduling.base.Scheduler` for the interacting pair at every
step.  It is the most general engine — any protocol, any scheduler (including
adaptive adversaries) — at the cost of O(1) work per interaction plus the
(configurable) cost of convergence checks.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.protocols.base import PopulationProtocol
from repro.scheduling.base import Scheduler
from repro.simulation.base import SimulationEngine
from repro.simulation.convergence import ConvergenceCriterion
from repro.simulation.observers import CountDelta
from repro.simulation.population import Population
from repro.utils.rng import RngLike

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class StepRecord(Generic[State]):
    """The outcome of one simulated interaction."""

    step: int
    initiator: int
    responder: int
    before: tuple[State, State]
    after: tuple[State, State]

    @property
    def changed(self) -> bool:
        """Whether either agent's state changed."""
        return self.before != self.after


class AgentSimulation(SimulationEngine[State], Generic[State]):
    """Simulate a protocol over an indexed population under a scheduler."""

    engine_name = "agent"
    tracks_agents = True

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        population: Population[State] | Sequence[State],
        scheduler: Scheduler,
    ) -> None:
        """Create the simulation.

        Args:
            protocol: the protocol to run.
            population: initial agent states (a :class:`Population` or a
                plain sequence).
            scheduler: decides which pair interacts at each step.

        A trace is recorded by attaching a
        :class:`~repro.simulation.observers.TraceObserver`.
        """
        self.protocol = protocol
        self.population = (
            population if isinstance(population, Population) else Population(list(population))
        )
        if scheduler.num_agents != len(self.population):
            raise ValueError(
                f"scheduler built for {scheduler.num_agents} agents but population has "
                f"{len(self.population)}"
            )
        self.scheduler = scheduler
        self.steps_taken = 0
        self.interactions_changed = 0
        self._init_observers()

    @classmethod
    def from_colors(
        cls,
        protocol: PopulationProtocol[State],
        colors: Iterable[int],
        seed: RngLike = None,
        scheduler: Scheduler | None = None,
    ) -> "AgentSimulation[State]":
        """Create the initial population from input colors.

        When no scheduler is given, a seeded
        :class:`~repro.scheduling.permutation.RandomPermutationScheduler`
        (weakly fair and randomized — the same default as the high-level run
        API) is used.
        """
        from repro.scheduling.permutation import RandomPermutationScheduler

        population = Population.from_colors(protocol, colors)
        if scheduler is None:
            scheduler = RandomPermutationScheduler(len(population), seed=seed)
        return cls(protocol, population, scheduler)

    # -- stepping ---------------------------------------------------------------

    def step(self) -> StepRecord[State]:
        """Execute one interaction and return what happened."""
        states = self.population
        pair = self.scheduler.next_pair(self.steps_taken, states)
        initiator_index, responder_index = pair
        before = (states[initiator_index], states[responder_index])
        result = self.protocol.transition(*before)
        after = result.as_pair()
        changed = after != before
        if changed:
            states[initiator_index] = result.initiator
            states[responder_index] = result.responder
            self.interactions_changed += 1
        record = StepRecord(
            step=self.steps_taken,
            initiator=initiator_index,
            responder=responder_index,
            before=before,
            after=after,
        )
        if self._observers and (changed or self._wants_unchanged):
            delta = CountDelta(
                step=record.step,
                initiator=before[0],
                responder=before[1],
                result=result,
                count=1,
                initiator_index=initiator_index,
                responder_index=responder_index,
            )
            for observer in self._observers:
                if changed or observer.wants_unchanged:
                    observer.on_delta(delta)
        self.steps_taken += 1
        return record

    def _advance(self, max_interactions: int) -> int:
        for _ in range(max_interactions):
            self.step()
        return max_interactions

    def _converged(self, criterion: ConvergenceCriterion[State]) -> bool:
        return criterion.is_converged_configuration(self.protocol, self.population.configuration())

    # -- inspection ----------------------------------------------------------------

    @property
    def num_agents(self) -> int:
        """The (constant) population size."""
        return len(self.population)

    def states(self) -> list[State]:
        """A copy of the current agent states."""
        return self.population.states()

    def outputs(self) -> list[int]:
        """Every agent's current output color."""
        return self.population.outputs(self.protocol)

    def output_counts(self) -> dict[int, int]:
        """How many agents currently output each color."""
        return self.population.output_counts(self.protocol)
