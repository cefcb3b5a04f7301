"""Energy trajectories of Circles runs (experiment E5).

The title's "minimizing energy" refers to the sum of bra-ket weights: every
ket exchange strictly decreases the *minimum* of the two weights involved and
the population settles in the configuration the greedy-independent-set
construction predicts — the configuration of minimum energy among those
respecting the bra/ket conservation law.  ``energy_trajectory`` runs Circles
under the uniform random scheduler and records the relaxation curve through
an :class:`~repro.simulation.observers.EnergyObserver`, on **any** engine:

* ``engine="agent"`` (default) — one energy sample per interaction
  (including non-changing ones), the classic dense curve the experiment
  report (``python -m repro.experiments.report``) shows;
* ``engine="batch"`` — one sample per changed interaction below the kernel
  gate, and one per changed pair-type aggregate per kernel round from
  ``n = 4096``, which is what makes relaxation curves at ``n = 10^5``
  tractable.

Whatever the granularity, every sample is exact: the observer maintains the
energy incrementally from the engine's deltas, and the final sample equals
the energy of the final configuration recomputed from scratch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.circles import CirclesProtocol, CirclesVariant
from repro.core.potential import minimum_energy
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import EnergyObserver
from repro.simulation.population import Population
from repro.simulation.registry import get_engine
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class EnergyTrajectory:
    """The energy relaxation curve of one Circles run."""

    num_agents: int
    num_colors: int
    energies: tuple[int, ...]
    predicted_minimum: int
    reached_minimum: bool
    #: Interactions completed at each energy sample (same length as
    #: ``energies``).  For the agent engine this is exactly ``0..budget``;
    #: the configuration-level engines sample at change boundaries only, and
    #: on the batch engine's position kernel a sample's step lies within the
    #: bounds of the round whose aggregate produced it.
    steps: tuple[int, ...] = field(default=())
    #: Registry name of the engine that produced the curve.
    engine: str = "agent"

    @property
    def initial_energy(self) -> int:
        """The energy of the all-diagonal initial configuration (``n·k``)."""
        return self.energies[0]

    @property
    def final_energy(self) -> int:
        """The energy after the last recorded interaction."""
        return self.energies[-1]

    def series(self) -> list[tuple[int, int]]:
        """The ``(step, energy)`` samples of the curve."""
        return list(zip(self.steps, self.energies))

    def is_monotone_nonincreasing(self) -> bool:
        """Whether the recorded energy never increases along the run.

        Under the paper's MIN_WEIGHT exchange rule the *ordinal* potential
        strictly decreases at every exchange, and the scalar energy is
        non-increasing as well (the two new weights sum to at most the two old
        ones whenever the minimum drops); the property tests check this.
        """
        return all(later <= earlier for earlier, later in zip(self.energies, self.energies[1:]))


def energy_trajectory(
    colors: Sequence[int],
    num_colors: int | None = None,
    max_steps: int | None = None,
    seed: RngLike = 0,
    variant: CirclesVariant | None = None,
    engine: str = "agent",
) -> EnergyTrajectory:
    """Run Circles under the uniform random scheduler and record the energy.

    Args:
        colors: the input color assignment.
        num_colors: the protocol's ``k`` (defaults to ``max(colors) + 1``).
        max_steps: interaction budget (defaults to ``40·n²``).
        seed: RNG seed for the scheduler (agent engine) or the engine sampler.
        variant: optional ablation variant of the protocol.
        engine: engine registry name; all engines simulate the uniform random
            scheduler here, at the sampling granularities described in the
            module docstring.
    """
    colors = list(colors)
    k = num_colors if num_colors is not None else max(colors) + 1
    protocol = CirclesProtocol(k, variant=variant)
    budget = max_steps if max_steps is not None else 40 * len(colors) ** 2

    if engine == "agent":
        population = Population.from_colors(protocol, colors)
        scheduler = UniformRandomScheduler(len(population), seed=seed)
        simulation = AgentSimulation(protocol, population, scheduler)
        observer = simulation.add_observer(EnergyObserver(record_unchanged=True))
    else:
        engine_cls = get_engine(engine)
        simulation = engine_cls.from_colors(protocol, colors, seed=seed)
        observer = simulation.add_observer(EnergyObserver())
    simulation.run(budget)

    steps, energies = zip(*observer.samples)
    predicted = minimum_energy(colors, k)
    return EnergyTrajectory(
        num_agents=len(colors),
        num_colors=k,
        energies=tuple(energies),
        predicted_minimum=predicted,
        reached_minimum=energies[-1] == predicted,
        steps=tuple(steps),
        engine=engine,
    )
