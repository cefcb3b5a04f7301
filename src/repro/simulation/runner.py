"""High-level run API.

``run_protocol`` wraps the engines, schedulers and convergence criteria into
one call that the examples, the tests and the experiment harness all share;
``run_circles`` is ``run_protocol`` on a ``CirclesProtocol``.  The protocol
supplies the default criterion (:meth:`PopulationProtocol.default_criterion`),
and Circles runs also count ket exchanges and energies.  The result is a
:class:`RunResult` dataclass holding everything an experiment needs to
report: whether the run converged, whether the final outputs are correct,
how many interactions and ket exchanges it took, and the initial/final
energies.

Engine selection
----------------

Both entry points accept ``engine=`` with a registry name from
:mod:`repro.simulation.registry`:

* ``"agent"`` (default) — per-agent simulation; the only engine that
  supports custom schedulers (``scheduler=``) and trace recording
  (``observers=[TraceObserver()]``).
* ``"batch"`` — the configuration-level engine: exact sampling of the
  uniform random scheduler in windows; the fast path for large populations
  (E6-scale convergence sweeps).  ``"vector"`` is the batch engine plus a
  lockstep replicate driver.
* ``"exact"`` — the analytical engine (:mod:`repro.exact`): solves the
  uniform-random-scheduler Markov chain instead of sampling it.  The
  result's ``steps`` / ``interactions_changed`` are exact *expected* values,
  ``correct`` means "correct with probability one", ``outputs`` reflect the
  modal stable outcome, and the full :class:`~repro.exact.result.DistributionResult`
  rides on :attr:`RunResult.exact` (JSON-native, persisted into sweep
  records).  Small populations only — the configuration space is enumerated
  exhaustively.

The configuration-level engines *are* the uniform random scheduler, so they
reject an explicit ``scheduler=`` argument; results report the scheduler as
``"uniform-random"``.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

from repro.core.circles import CirclesProtocol, CirclesVariant
from repro.core.greedy_sets import color_counts, unique_majority
from repro.core.potential import configuration_energy
from repro.protocols.base import PopulationProtocol
from repro.scheduling.base import Scheduler
from repro.simulation.base import SimulationEngine
from repro.simulation.convergence import ConvergenceCriterion
from repro.simulation.engine import AgentSimulation
from repro.simulation.observers import (
    KetExchangeObserver,
    Observer,
    build_observer,
    ket_exchange_occurred,
)
from repro.simulation.population import configuration_from_counts
from repro.simulation.registry import get_engine
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike

State = TypeVar("State", bound=Hashable)

__all__ = [
    "RunResult",
    "default_max_steps",
    "ket_exchange_occurred",
    "run_circles",
    "run_protocol",
]


def default_max_steps(num_agents: int, num_colors: int) -> int:
    """A generous default interaction budget.

    Under weakly fair schedulers Circles stabilizes after at most
    ``O(n·k)`` ket exchanges, each realized within one scheduler cycle of
    ``n·(n-1)`` interactions, so ``c·n²·(n + k)`` interactions are ample for
    the population sizes the tests and examples use.  Benchmarks override
    this with experiment-specific budgets.
    """
    return max(2_000, 4 * num_agents * num_agents * (num_agents + num_colors))


def _resolve_observers(
    observers: Sequence[Observer | str | tuple] | None,
) -> list[Observer]:
    """Resolve an ``observers=`` argument into live observer instances.

    Accepts :class:`~repro.simulation.observers.Observer` instances, registry
    names, and ``(name, params)`` pairs (the ``RunSpec.observers`` spelling).
    """
    resolved: list[Observer] = []
    for entry in observers or ():
        if isinstance(entry, str):
            resolved.append(build_observer(entry))
        elif isinstance(entry, (tuple, list)):
            name, params = entry
            resolved.append(build_observer(name, **dict(params)))
        else:
            resolved.append(entry)
    return resolved


def _validate_input_colors(colors: Sequence[int]) -> None:
    """Population protocols need an interaction partner for every agent."""
    if len(colors) < 2:
        raise ValueError(
            f"at least two input colors are required (one per agent), got {len(colors)}"
        )


@dataclass
class RunResult:
    """Everything a single protocol run reports."""

    protocol_name: str
    num_agents: int
    num_colors: int
    input_colors: tuple[int, ...]
    scheduler_name: str
    converged: bool
    steps: int
    interactions_changed: int
    outputs: tuple[int, ...]
    majority: int | None
    correct: bool
    final_states: tuple = ()
    ket_exchanges: int | None = None
    initial_energy: int | None = None
    final_energy: int | None = None
    #: Registry name of the engine that produced the result.
    engine: str | None = None
    #: The integer seed the run was started with (``None`` for unseeded runs
    #: or runs seeded with a live ``random.Random`` instance).
    seed: int | None = None
    #: ``{observer name: summary}`` for the observers the run was asked to
    #: attach (JSON-native; sweeps persist it into ``RunRecord.extras``).
    observer_summaries: dict = field(default_factory=dict)
    #: For ``engine="exact"`` runs, the
    #: :meth:`~repro.exact.result.DistributionResult.to_dict` payload of the
    #: analytical result (absorption probabilities, exact expected
    #: interactions, correctness probability); ``None`` for sampled runs.
    exact: dict | None = None

    @property
    def unanimous(self) -> bool:
        """Whether every agent reports the same color."""
        return len(set(self.outputs)) == 1

    def summary(self) -> dict[str, object]:
        """A flat dictionary for tabular reports."""
        return {
            "protocol": self.protocol_name,
            "n": self.num_agents,
            "k": self.num_colors,
            "scheduler": self.scheduler_name,
            "engine": self.engine,
            "seed": self.seed,
            "converged": self.converged,
            "correct": self.correct,
            "steps": self.steps,
            "interactions_changed": self.interactions_changed,
            "ket_exchanges": self.ket_exchanges,
        }


def _resolve_engine(engine: str, scheduler: Scheduler | None) -> type[SimulationEngine]:
    """Look up the engine and reject a scheduler it cannot honor."""
    engine_cls = get_engine(engine)
    if scheduler is not None and not issubclass(engine_cls, AgentSimulation):
        raise ValueError(
            f"engine {engine!r} simulates the uniform random scheduler directly; "
            "pass engine='agent' to use a custom scheduler"
        )
    return engine_cls


def _build_simulation(
    engine_cls: type[SimulationEngine],
    protocol: PopulationProtocol[State],
    colors: Sequence[int],
    configuration: Multiset[State],
    scheduler: Scheduler | None,
    seed: RngLike,
    observers: Sequence[Observer] = (),
) -> tuple[SimulationEngine[State], str]:
    """Construct the selected engine; returns (simulation, scheduler name).

    The agent engine places one agent per color; every other engine starts
    from ``configuration``, the colors' initial configuration.  ``observers``
    are attached in order, after construction.
    """
    if issubclass(engine_cls, AgentSimulation):
        simulation = engine_cls.from_colors(protocol, colors, seed=seed, scheduler=scheduler)
        scheduler_name = simulation.scheduler.name
    else:
        simulation = engine_cls(protocol, configuration, seed)
        scheduler_name = "uniform-random"
    for observer in observers:
        simulation.add_observer(observer)
    return simulation, scheduler_name


def _count_input(
    protocol: PopulationProtocol[State], colors: Sequence[int]
) -> tuple[Multiset[State], int | None, int | None]:
    """Count the input colors once: ``(configuration, majority, energy)``.

    ``configuration`` is the initial configuration (as
    :func:`~repro.simulation.population.initial_configuration` builds it),
    ``majority`` the unique relative-majority color or ``None``, and
    ``energy`` the input's energy on Circles runs (whose runs also count
    ket exchanges), ``None`` for protocols whose states carry no bra-ket
    weights.
    """
    counts = color_counts(colors)
    configuration = configuration_from_counts(protocol, counts)
    energy = (
        configuration_energy(configuration, protocol.num_colors)
        if isinstance(protocol, CirclesProtocol)
        else None
    )
    return configuration, unique_majority(counts), energy


def run_protocol(
    protocol: PopulationProtocol[State],
    colors: Sequence[int],
    scheduler: Scheduler | None = None,
    criterion: ConvergenceCriterion[State] | None = None,
    max_steps: int | None = None,
    seed: RngLike = None,
    check_interval: int | None = None,
    engine: str = "agent",
    observers: Sequence[Observer | str | tuple] | None = None,
) -> RunResult:
    """Run any population protocol on an input color assignment.

    Args:
        protocol: the protocol to run.
        colors: one input color per agent (at least two agents).
        scheduler: defaults to :class:`RandomPermutationScheduler` (weakly
            fair and randomized), seeded with ``seed``; only the ``"agent"``
            engine accepts one.
        criterion: defaults to ``protocol.default_criterion()``.
        max_steps: interaction budget; defaults to
            :func:`default_max_steps`.
        seed: seed for the default scheduler (``"agent"`` engine) or the
            engine's sampler (configuration-level engines).
        check_interval: how often (in interactions) the criterion is checked;
            defaults to :func:`~repro.simulation.base.default_check_interval`.
        engine: engine registry name — ``"agent"``, ``"batch"``,
            ``"vector"``, or the analytical ``"exact"`` (see the module
            docstring for its distribution-level result semantics).
        observers: observers to attach for the run
            (:mod:`repro.simulation.observers`): instances, registry names,
            or ``(name, params)`` pairs.  Their ``summary()`` dictionaries
            are reported as ``RunResult.observer_summaries``.  An observer
            that needs agent indices, such as
            :class:`~repro.simulation.observers.TraceObserver`, needs
            ``engine="agent"``.

    Returns:
        A :class:`RunResult`; ``correct`` is True when the input has a unique
        majority and every agent outputs it.
    """
    colors = tuple(colors)
    _validate_input_colors(colors)
    engine_cls = _resolve_engine(engine, scheduler)
    if criterion is None:
        criterion = protocol.default_criterion()
    k = protocol.num_colors
    budget = max_steps if max_steps is not None else default_max_steps(len(colors), k)

    configuration, majority, initial_energy = _count_input(protocol, colors)
    # The analytical engine simulates no interactions, so a ket-exchange
    # counter would misreport 0; Circles runs on it report None instead.
    exchange_counter = (
        KetExchangeObserver()
        if initial_energy is not None and engine_cls.samples_trajectories
        else None
    )
    resolved = _resolve_observers(observers)
    simulation, scheduler_name = _build_simulation(
        engine_cls, protocol, colors, configuration, scheduler, seed,
        observers=[exchange_counter, *resolved] if exchange_counter else resolved,
    )
    converged = simulation.run(budget, criterion=criterion, check_interval=check_interval)
    final_states = tuple(simulation.states())
    outputs = tuple(simulation.outputs())
    correct = majority is not None and all(output == majority for output in outputs)
    exact_result = getattr(simulation, "distribution_result", None)
    if exact_result is not None:
        # The analytical engine reports distribution-level correctness:
        # "correct" means the chain stabilizes on the majority output with
        # probability one, not just in the modal outcome.
        correct = bool(exact_result.always_correct)
    return RunResult(
        protocol_name=protocol.name,
        num_agents=len(colors),
        num_colors=k,
        input_colors=colors,
        scheduler_name=scheduler_name,
        converged=converged,
        steps=simulation.steps_taken,
        interactions_changed=simulation.interactions_changed,
        outputs=outputs,
        majority=majority,
        correct=correct,
        final_states=final_states,
        ket_exchanges=exchange_counter.exchanges if exchange_counter else None,
        initial_energy=initial_energy,
        final_energy=(
            configuration_energy(final_states, k) if initial_energy is not None else None
        ),
        engine=engine,
        seed=seed if isinstance(seed, int) else None,
        observer_summaries={obs.name: obs.summary() for obs in resolved},
        exact=exact_result.to_dict() if exact_result is not None else None,
    )


def run_circles(
    colors: Sequence[int],
    num_colors: int | None = None,
    scheduler: Scheduler | None = None,
    variant: CirclesVariant | None = None,
    max_steps: int | None = None,
    seed: RngLike = None,
    check_interval: int | None = None,
    engine: str = "agent",
    observers: Sequence[Observer | str | tuple] | None = None,
) -> RunResult:
    """Run the Circles protocol on an input color assignment.

    :func:`run_protocol` on ``CirclesProtocol(num_colors, variant)``, which
    stops on :class:`StableCircles` and reports ket exchanges and energies.

    Args:
        colors: one input color per agent (at least two agents).
        num_colors: the protocol's ``k``; defaults to ``max(colors) + 1``.
        variant: ablation switches; defaults to the paper's protocol.
        scheduler / max_steps / seed / check_interval / engine /
            observers: as in :func:`run_protocol`.
    """
    colors = tuple(colors)
    _validate_input_colors(colors)
    k = num_colors if num_colors is not None else max(colors) + 1
    return run_protocol(
        CirclesProtocol(k, variant=variant),
        colors,
        scheduler=scheduler,
        max_steps=max_steps,
        seed=seed,
        check_interval=check_interval,
        engine=engine,
        observers=observers,
    )
