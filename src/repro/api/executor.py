"""Spec execution: registries, the run function, and pluggable executors.

This module turns a declarative :class:`~repro.api.spec.RunSpec` into a
:class:`~repro.api.records.RunRecord`.  Everything a spec names resolves
here, through registries:

* **criteria** — ``"output-consensus"``, ``"silent"``, ``"stable-circles"``;
* **schedulers** — built by name with the population size, a derived seed
  and (for the adaptive adversaries) the protocol instance in hand, which is
  why scheduler construction is a registry of *builders* rather than bare
  classes;
* **runners** — named run strategies.  The default ``"protocol"`` runner
  resolves the protocol registry and calls
  :func:`~repro.simulation.runner.run_protocol`; a spec without a criterion
  stops on the protocol's ``default_criterion()``.  Every experiment runs on
  it, instrumented through the spec's criterion and observers; the registry
  takes custom strategies (such as fault injectors in tests).

:func:`execute_run` is a module-level function of the spec alone — no shared
state, no ambient RNG — which is what makes the multiprocessing executor's
results identical to the serial executor's, record for record.

:func:`execute_replicate_group` is the many-replicate analogue: a pure
function of a *list* of specs that are identical up to the run seed (a
"replicate group", the shape :meth:`SweepSpec.expand` produces for
``trials > 1``).  It routes the whole group through the vector engine's
lockstep driver (:mod:`repro.simulation.vector_engine`) and assembles the
same :class:`RunRecord` per row that :func:`execute_run` would have
produced — bit-identical seeds, bit-identical trajectories.  It is the one
execution unit of every executor's ``map_groups``: a group of one, or specs
the lockstep driver cannot reproduce, run through :func:`execute_run`.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING

from repro.api import aggregate as _aggregate
from repro.api.records import RunRecord, SweepResult
from repro.api.spec import RunSpec, SweepCell, SweepSpec, canonical_json, derive_seed
from repro.api.stopping import StopDecision, StoppingRule
from repro.core.potential import configuration_energy
from repro.protocols.base import PopulationProtocol
from repro.protocols.registry import DEFAULT_REGISTRY, get_protocol
from repro.scheduling.adversarial import GreedyStallScheduler, IsolationScheduler
from repro.scheduling.base import Scheduler
from repro.scheduling.permutation import RandomPermutationScheduler
from repro.scheduling.random_uniform import UniformRandomScheduler
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.convergence import (
    ConvergenceCriterion,
    OutputConsensus,
    SilentConfiguration,
    StableCircles,
)
from repro.simulation.observers import OBSERVERS
from repro.simulation.registry import ENGINES
from repro.simulation.runner import _count_input, default_max_steps, run_protocol
from repro.simulation.vector_engine import ReplicateOutcome, VectorReplicateSimulation
from repro.utils.errors import unknown_name_error
from repro.utils.multiset import Multiset
from repro.workloads.registry import DEFAULT_WORKLOADS

if TYPE_CHECKING:  # pragma: no cover - the pool module is imported with the first pool
    from multiprocessing.pool import Pool

# --------------------------------------------------------------------------- #
# criteria
# --------------------------------------------------------------------------- #

#: Criterion name -> zero/keyword-argument factory.
CRITERIA: dict[str, Callable[..., ConvergenceCriterion]] = {
    OutputConsensus.name: OutputConsensus,
    SilentConfiguration.name: SilentConfiguration,
    StableCircles.name: StableCircles,
}


def build_criterion(name: str, **params: object) -> ConvergenceCriterion:
    """Instantiate a convergence criterion by registry name."""
    try:
        factory = CRITERIA[name]
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; available: {', '.join(sorted(CRITERIA))}"
        ) from None
    return factory(**params)


# --------------------------------------------------------------------------- #
# schedulers
# --------------------------------------------------------------------------- #

#: ``builder(num_agents, seed, protocol, **params) -> Scheduler``.
SchedulerBuilder = Callable[..., Scheduler]

SCHEDULERS: dict[str, SchedulerBuilder] = {
    UniformRandomScheduler.name: lambda n, seed, protocol, **params: UniformRandomScheduler(
        n, seed=seed, **params
    ),
    RoundRobinScheduler.name: lambda n, seed, protocol, **params: RoundRobinScheduler(
        n, seed=seed, **params
    ),
    RandomPermutationScheduler.name: lambda n, seed, protocol, **params: RandomPermutationScheduler(
        n, seed=seed, **params
    ),
    GreedyStallScheduler.name: lambda n, seed, protocol, **params: GreedyStallScheduler(
        n,
        protocol=protocol,
        seed=seed,
        **params,
    ),
    IsolationScheduler.name: lambda n, seed, protocol, **params: IsolationScheduler(
        n, seed=seed, **params
    ),
}


def build_scheduler(
    name: str,
    num_agents: int,
    seed: int | None = None,
    protocol: PopulationProtocol | None = None,
    **params: object,
) -> Scheduler:
    """Instantiate a scheduler by registry name.

    The adaptive adversaries close over ``protocol`` (e.g. greedy-stall needs
    the transition function), so callers pass the protocol instance the run
    will use.
    """
    try:
        builder = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(SCHEDULERS))}"
        ) from None
    return builder(num_agents, seed, protocol, **params)


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #

#: ``runner(spec) -> RunRecord``; must be a pure function of the spec.
RunnerFn = Callable[[RunSpec], RunRecord]

_RUNNERS: dict[str, RunnerFn] = {}


def register_runner(name: str, runner: RunnerFn, *, overwrite: bool = False) -> None:
    """Register a named run strategy usable as ``RunSpec.runner``."""
    if not overwrite and name in _RUNNERS:
        raise ValueError(f"runner name {name!r} is already registered")
    _RUNNERS[name] = runner


def get_runner(name: str) -> RunnerFn:
    """Resolve a runner name.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
    """
    try:
        return _RUNNERS[name]
    except KeyError:
        raise unknown_name_error("runner", name, _RUNNERS) from None


def check_names(submission: RunSpec | SweepSpec) -> None:
    """Resolve every registry name a run or sweep carries, building nothing.

    A sweep's axes are read as they are, without expanding it.  The sweep
    service calls this before it answers, so an unknown name is a bad
    request instead of a run that fails at execution, after its retries.

    Raises:
        KeyError: for the first unknown name, listing the available ones
            (the shared registry error contract of :mod:`repro.utils.errors`).
    """
    if isinstance(submission, SweepSpec):
        protocols = [name for name, _ in submission.protocols]
        workloads = [name for name, _ in submission.workloads]
        engines = submission.engines
        schedulers = [name for name, _ in submission.schedulers]
    else:
        protocols, workloads = [submission.protocol], [submission.workload]
        engines, schedulers = [submission.engine], [submission.scheduler]
    criteria = [] if submission.criterion is None else [submission.criterion]
    checks = (
        ("protocol", protocols, DEFAULT_REGISTRY),
        ("workload", workloads, DEFAULT_WORKLOADS),
        ("engine", engines, ENGINES),
        ("scheduler", [name for name in schedulers if name is not None], SCHEDULERS),
        ("criterion", criteria, CRITERIA),
        ("observer", [name for name, _ in submission.observers], OBSERVERS),
    )
    for kind, names, registry in checks:
        for name in names:
            if not isinstance(name, str) or name not in registry:
                raise unknown_name_error(kind, name, registry)
    get_runner(submission.runner)


def resolve_workload(spec: RunSpec) -> list[int]:
    """Generate the input colors a spec describes."""
    return DEFAULT_WORKLOADS.generate(
        spec.workload,
        spec.n,
        spec.k,
        seed=spec.effective_workload_seed,
        **dict(spec.workload_params),
    )


def _plan(spec: RunSpec) -> tuple[list[int], PopulationProtocol, ConvergenceCriterion]:
    """The colors, registry protocol and criterion (the spec's own, else the
    protocol's ``default_criterion()``) every ``"protocol"``-runner path uses."""
    colors = resolve_workload(spec)
    protocol = get_protocol(spec.protocol, spec.k, **dict(spec.protocol_params))
    criterion = (
        build_criterion(spec.criterion)
        if spec.criterion is not None
        else protocol.default_criterion()
    )
    return colors, protocol, criterion


def _record(
    spec: RunSpec,
    protocol: PopulationProtocol,
    majority: int | None,
    outcome: ReplicateOutcome,
    initial_energy: int | None,
    scheduler_name: str = "uniform-random",
    correct: bool | None = None,
    extras: dict | None = None,
) -> RunRecord:
    """The one :class:`RunRecord` assembler of the ``"protocol"`` runner and
    of replicate groups, ``O(d)`` from the final configuration's counts.

    ``correct`` overrides the verdict read off the final outputs: the exact
    engine judges correctness on the whole distribution, not its modal outcome.
    """
    support_outputs = {protocol.output(state) for state in outcome.configuration.support()}
    if correct is None:
        correct = majority is not None and support_outputs == {majority}
    return RunRecord(
        spec=spec,
        seed=spec.seed,
        protocol_name=protocol.name,
        num_agents=spec.n,
        num_colors=protocol.num_colors,
        engine=spec.engine,
        scheduler_name=scheduler_name,
        converged=outcome.converged,
        correct=correct,
        steps=outcome.steps,
        interactions_changed=outcome.interactions_changed,
        majority=majority,
        unanimous=len(support_outputs) == 1,
        ket_exchanges=outcome.ket_exchanges,
        initial_energy=initial_energy,
        final_energy=(
            configuration_energy(outcome.configuration, protocol.num_colors)
            if initial_energy is not None
            else None
        ),
        extras=extras or {},
    )


def _protocol_runner(spec: RunSpec) -> RunRecord:
    """The default strategy: the spec's run plan through ``run_protocol``."""
    colors, protocol, criterion = _plan(spec)
    scheduler = None
    if spec.scheduler is not None:
        scheduler_seed = None if spec.seed is None else derive_seed(spec.seed, "scheduler")
        scheduler = build_scheduler(
            spec.scheduler,
            spec.n,
            seed=scheduler_seed,
            protocol=protocol,
            **dict(spec.scheduler_params),
        )
    result = run_protocol(
        protocol,
        colors,
        scheduler=scheduler,
        criterion=criterion,
        max_steps=spec.max_steps,
        seed=spec.seed,
        engine=spec.engine,
        observers=spec.observers,
    )
    extras: dict[str, object] = {}
    if result.observer_summaries:
        extras["observers"] = result.observer_summaries
    if result.exact is not None:
        # The analytical engine's DistributionResult payload; JSON-native by
        # construction, so the record round trip stays lossless.
        extras["exact"] = result.exact
    outcome = ReplicateOutcome(
        converged=result.converged,
        steps=result.steps,
        interactions_changed=result.interactions_changed,
        ket_exchanges=result.ket_exchanges,
        configuration=Multiset(result.final_states),
    )
    return _record(
        spec,
        protocol,
        result.majority,
        outcome,
        result.initial_energy,
        scheduler_name=result.scheduler_name,
        correct=result.correct,
        extras=extras,
    )


register_runner("protocol", _protocol_runner)


def execute_run(spec: RunSpec) -> RunRecord:
    """Execute one spec and return its record.

    A pure function of the spec (all randomness flows from the spec's seeds),
    so it can run in any process in any order.
    """
    return get_runner(spec.runner)(spec)


# --------------------------------------------------------------------------- #
# exact anchors for adaptive stopping
# --------------------------------------------------------------------------- #

#: Configuration-space cap for exact table cells: the stopping-rule anchors
#: here and E6's exact column (:mod:`repro.experiments.e6_convergence`).  It
#: bounds the BFS one cell may attempt, so a large population degrades to "no
#: anchor" or the infeasible sentinel quickly instead of enumerating for
#: minutes.  With the symmetry quotient on by default it counts *orbit
#: representatives*.
EXACT_ANCHOR_MAX_CONFIGURATIONS = 4_000


def exact_anchor_value(spec: RunSpec, metric: str) -> float | None:
    """The exact engine's analytical value of ``metric`` for ``spec``'s cell.

    The anchor a :class:`~repro.api.stopping.StoppingRule` with
    ``exact_anchor=True`` compares its empirical confidence interval against:
    the correctness probability for ``metric="correct"``, the expected
    interactions to convergence for ``metric="steps"`` — both computed on the
    cell's exact workload colors under the uniform-random-scheduler Markov
    chain (:mod:`repro.exact`).

    Returns ``None`` — "no anchor; stop on the half-width rule alone" —
    whenever the analytical value does not exist or does not describe what
    the empirical runs sample: other metrics, custom runners, non-uniform
    schedulers, inputs without a unique majority, criteria not almost surely
    reached, and chains past the exact-analysis caps.

    The exact pipeline quotients the chain by the input's color symmetries
    by default, so the configuration cap counts *orbit representatives*:
    symmetric (tied) cells whose raw configuration count exceeds the cap
    can still anchor as long as their quotient fits.
    """
    if metric not in ("correct", "steps"):
        return None
    if spec.runner != "protocol" or spec.scheduler not in (None, "uniform-random"):
        return None
    from repro.exact import (
        ChainTooLarge,
        SolveTooLarge,
        exact_correctness_probability,
        exact_expected_convergence,
    )

    colors, protocol, criterion = _plan(spec)
    try:
        if metric == "correct":
            return exact_correctness_probability(
                protocol, colors, max_configurations=EXACT_ANCHOR_MAX_CONFIGURATIONS
            )
        return exact_expected_convergence(
            protocol,
            colors,
            criterion,
            max_configurations=EXACT_ANCHOR_MAX_CONFIGURATIONS,
        )
    except (ChainTooLarge, SolveTooLarge):
        return None


# --------------------------------------------------------------------------- #
# replicate groups
# --------------------------------------------------------------------------- #


def replicate_group_key(spec: RunSpec) -> str:
    """The grouping key: the spec's canonical JSON with the run seed blanked.

    Two specs with equal keys describe the same experiment point — same
    workload (the workload seed is part of the key, so the input colors are
    too), same protocol, same engine, same budget — and differ only in the
    per-run seed.  That is exactly the set the vector engine can advance in
    lockstep.
    """
    payload = spec.to_dict()
    payload.pop("seed", None)
    return canonical_json(payload)


def _replicate_groupable(spec: RunSpec) -> bool:
    """Whether a spec may be executed as a row of a replicate group.

    The gate mirrors what the lockstep driver can reproduce bit-for-bit:
    the default ``"protocol"`` runner under the uniform random scheduler
    (configuration-level engines simulate it directly), no observers, a
    concrete run seed, and a pinned workload seed (without one the input
    colors would vary with the run seed, so the rows would not share a
    configuration).  The engine itself opts in via the
    ``supports_replicates`` class flag.
    """
    engine_cls = ENGINES.get(spec.engine)
    return (
        spec.runner == "protocol"
        and spec.scheduler is None
        and not spec.observers
        and spec.seed is not None
        and spec.workload_seed is not None
        and engine_cls is not None
        and engine_cls.supports_replicates
    )


def execute_replicate_group(specs: Sequence[RunSpec]) -> list[RunRecord]:
    """Execute a replicate group in lockstep; records match serial execution.

    A pure function of the specs, picklable for the multiprocessing
    executor.  Groups of one, and specs the lockstep driver cannot
    reproduce, fall back to :func:`execute_run` per spec — callers never
    need to pre-check eligibility.

    Raises:
        ValueError: when the specs disagree on anything but the run seed, or
            when two rows share a seed.  Shared seeds would silently produce
            duplicated trajectories masquerading as independent replicates;
            the SHA-derived seeds of :meth:`SweepSpec.expand` are pairwise
            distinct by construction, so a collision here means hand-built
            specs reused one.
    """
    specs = list(specs)
    if not specs:
        return []
    if len(specs) == 1 or not all(_replicate_groupable(spec) for spec in specs):
        return [execute_run(spec) for spec in specs]
    key = replicate_group_key(specs[0])
    if any(replicate_group_key(spec) != key for spec in specs[1:]):
        raise ValueError(
            "replicate group specs must be identical up to the run seed; "
            "group runs with SweepRunner (or execute each spec with "
            "execute_run) instead of hand-assembling mixed groups"
        )
    seeds = [spec.seed for spec in specs]
    if len(set(seeds)) != len(seeds):
        raise ValueError(
            f"replicate run seeds must be pairwise distinct, got "
            f"{len(seeds) - len(set(seeds))} duplicate(s) among {len(seeds)} rows; "
            "identical seeds replay identical trajectories instead of "
            "independent replicates"
        )
    spec = specs[0]
    colors, protocol, criterion = _plan(spec)
    budget = spec.max_steps
    if budget is None:
        budget = default_max_steps(len(colors), protocol.num_colors)
    configuration, majority, initial_energy = _count_input(protocol, colors)
    group = VectorReplicateSimulation.replicate_group(protocol, configuration, seeds)
    outcomes = group.run(budget, criterion=criterion)
    return [
        _record(row, protocol, majority, outcome, initial_energy)
        for row, outcome in zip(specs, outcomes)
    ]


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #


class SerialExecutor:
    """Run every unit in the calling process, in order."""

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        """Execute units in order (see :func:`execute_replicate_group`)."""
        return [execute_replicate_group(group) for group in groups]


class MultiprocessingExecutor:
    """Fan units out over a ``multiprocessing`` pool, one task per unit.

    Records come back in unit order (``Pool.map`` preserves ordering), and
    because :func:`execute_replicate_group` derives all randomness from the
    specs, the result is record-for-record identical to
    :class:`SerialExecutor`.

    Each :meth:`map_groups` call runs on a pool of its own; the executor a
    :meth:`session` yields runs all its calls on one pool.
    :class:`SweepRunner` takes a session per sweep, so a store-backed
    sweep's rounds share a pool.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        with self.session() as executor:
            return executor.map_groups(groups)

    @contextmanager
    def session(self) -> Iterator[_PoolSession]:
        """An executor whose calls share one pool, terminated and joined on exit.

        Every session has its own pool, so concurrent sweeps on one executor
        (the sweep service's request threads) never share or close another's
        pool, and no child process outlives the block.
        """
        executor = _PoolSession(self.workers)
        try:
            yield executor
        finally:
            executor.close()


class _PoolSession:
    """``map_groups`` on one pool, started by the first call that needs workers.

    The pool is sized for that call, ``min(workers, units)``: a sweep's first
    round is its largest.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool: Pool | None = None

    def map_groups(self, groups: Sequence[Sequence[RunSpec]]) -> list[list[RunRecord]]:
        if self.workers == 1 or len(groups) <= 1:
            return SerialExecutor().map_groups(groups)
        if self._pool is None:
            context = multiprocessing.get_context()
            self._pool = context.Pool(processes=min(self.workers, len(groups)))
        return self._pool.map(execute_replicate_group, [list(group) for group in groups])

    def close(self) -> None:
        """Stop the workers; every map has returned, so no task is lost (as ``with Pool``)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


#: ``builder(workers, **params) -> executor`` (an object with
#: ``map_groups(groups) -> list[list[RunRecord]]``).  ``workers`` may be
#: ``None`` for the builder's own default.
ExecutorBuilder = Callable[..., object]

EXECUTORS: dict[str, ExecutorBuilder] = {
    "serial": lambda workers=None, **params: SerialExecutor(),
    "multiprocessing": lambda workers=None, **params: MultiprocessingExecutor(
        workers if workers is not None else 1
    ),
}


def register_executor(name: str, builder: ExecutorBuilder, *, overwrite: bool = False) -> None:
    """Register a named executor usable as ``SweepRunner(executor=name)``."""
    if not overwrite and name in EXECUTORS:
        raise ValueError(f"executor name {name!r} is already registered")
    EXECUTORS[name] = builder


def available_executors() -> tuple[str, ...]:
    """The names :func:`build_executor` accepts, sorted."""
    _import_service_executors()
    return tuple(sorted(EXECUTORS))


def _import_service_executors() -> None:
    """Import :mod:`repro.service` once so its executors self-register.

    The service package registers the ``"asyncio"`` work-stealing executor
    on import, and importing it *here* (instead of at module top) keeps
    ``repro.api`` free of a circular dependency on the service layer.
    """
    if "asyncio" not in EXECUTORS:
        import repro.service  # noqa: F401  (registers service executors)


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be a positive number of workers, got {workers}; "
            f"omit it (or pass None) for the default (serial for SweepRunner)"
        )


def build_executor(name: str, workers: int | None = None, **params: object):
    """Instantiate an executor by registry name.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
        ValueError: for a non-positive ``workers``, whatever the executor.
    """
    _check_workers(workers)
    _import_service_executors()
    try:
        builder = EXECUTORS[name]
    except KeyError:
        raise unknown_name_error("executor", name, EXECUTORS) from None
    return builder(workers=workers, **params)


class SweepRunner:
    """Execute a :class:`SweepSpec` through a pluggable executor.

    ``workers=None`` (or 1) runs serially; ``workers=N`` uses a
    ``multiprocessing`` pool of N processes, one pool per sweep (see
    :meth:`MultiprocessingExecutor.session`).  Pass ``executor=`` to pick an
    executor from the registry by name (``"serial"``, ``"multiprocessing"``,
    the service layer's ``"asyncio"``) or to supply any object with a
    ``map_groups(groups) -> list[list[RunRecord]]`` method directly.

    Every pending run executes as part of a unit: a replicate group — pending
    runs identical up to the run seed, the shape ``trials > 1`` expands to —
    goes to the vector engine's lockstep driver whole, and any other run is
    a unit of one (see :func:`execute_replicate_group`).  Records are
    identical to executing each spec alone, so the store, the manifest and
    every consumer are oblivious to the routing; a partially cached group
    simply shrinks to its pending rows.

    ``store=`` plugs in a result cache (duck-typed; canonically a
    :class:`repro.service.store.ResultStore`).  With a store attached the
    runner serves every spec whose SHA is already stored instead of
    re-executing it, persists fresh records as they complete, and checkpoints
    progress in the store's sweep manifest after each executor round
    (``executor.workers`` units, else one) — so a killed sweep restarted on
    the same store executes only the remainder.  Without a store every
    pending unit goes to the executor in one call.
    """

    def __init__(
        self,
        workers: int | None = None,
        executor: object | str | None = None,
        store=None,
    ) -> None:
        _check_workers(workers)
        if isinstance(executor, str):
            self.executor = build_executor(executor, workers=workers)
        elif executor is not None:
            self.executor = executor
        elif workers is not None and workers > 1:
            self.executor = MultiprocessingExecutor(workers)
        else:
            self.executor = SerialExecutor()
        self.store = store
        #: Per-cell stopping diagnostics of the most recent adaptive sweep
        #: (cell coordinates + :meth:`StopDecision.to_dict`), in cell order;
        #: empty after fixed sweeps.
        self.last_stopping: list[dict] = []

    def run(self, sweep: SweepSpec) -> SweepResult:
        """Expand the sweep and execute every run (through the cache, if any).

        Adaptive sweeps (``trials="auto"``) return their records in cell
        order (each cell's executed trials in trial order) with the per-cell
        stopping diagnostics under ``result.extras["stopping"]``.
        """
        by_index = {
            index: record
            for batch in self.run_batches(sweep)
            for index, record, _cached in batch
        }
        return SweepResult(
            spec=sweep,
            records=[by_index[index] for index in sorted(by_index)],
            extras={"stopping": list(self.last_stopping)} if sweep.is_adaptive else {},
        )

    def run_iter(self, sweep: SweepSpec):
        """Execute the sweep, yielding ``(index, record, cached)`` as runs finish.

        ``index`` is the run's position in ``sweep.expand()`` and ``cached``
        is True when the record came from the store instead of an execution.
        This is :meth:`run_batches` one run at a time.

        For adaptive sweeps ``index`` is the run's position in the
        ``max_trials`` expansion (``cell_index · max_trials + trial``) and
        only executed trials are yielded; the per-cell stopping diagnostics
        are available as ``runner.last_stopping`` once the generator is
        exhausted.
        """
        for batch in self.run_batches(sweep):
            yield from batch

    def run_batches(self, sweep: SweepSpec):
        """Execute the sweep, yielding lists of ``(index, record, cached)``.

        This is the streaming entry point behind the sweep service.  Each
        list holds the runs that became ready together: with a store, first
        every stored run (``cached`` True), then each executed round
        (``cached`` False), persisted and checkpointed before it is yielded;
        without one, every executed run in one list.  A consumer sees
        results while the sweep is still running, and a crash loses at most
        the round in flight.  Adaptive sweeps yield the same shape per round
        of their stopping rule.
        """
        # One executor session per sweep, when the executor offers one: the
        # multiprocessing executor keeps one pool across the sweep's rounds.
        session = getattr(self.executor, "session", None)
        with session() if session is not None else nullcontext(self.executor) as executor:
            if sweep.is_adaptive:
                yield from self._iter_adaptive(sweep, executor)
            elif self.store is not None:
                yield from self._iter_with_store(sweep, executor)
            else:
                specs = sweep.expand()
                yield from self._execute(executor, specs, list(range(len(specs))))

    # -- adaptive (trials="auto") execution ---------------------------------------

    def _iter_adaptive(self, sweep: SweepSpec, executor):
        """Sequential sampling: run each cell in batches until its rule stops it.

        The schedule is deterministic — every cell is evaluated at the fixed
        checkpoints ``min_trials, +batch_size, …, max_trials`` of the sweep's
        :class:`~repro.api.stopping.StoppingRule`, and
        :meth:`StoppingRule.evaluate` is a pure function of the cell's metric
        values in trial order — so the executed trial set (and therefore the
        result) is identical across executors, re-runs, and kill/resume.

        Everything flows through the same machinery as fixed sweeps: trial
        seeds come from the ``(cell, trial)`` derivation (the first ``B``
        trials of a cell are record-identical to a fixed ``trials=B`` sweep
        and share its store entries), a round's batch of a cell forms a
        replicate group for the vector engine, and the store/manifest
        checkpointing works per round.  The manifest's universe is the full
        ``max_trials`` expansion; early-stopped trials simply stay pending —
        advisory only, the store remains the source of truth on resume.
        """
        rule = sweep.stopping_rule
        assert rule is not None  # SweepSpec.__post_init__ defaults it
        cells = sweep.expand_cells()
        max_trials = rule.max_trials
        specs = [cell.spec(trial) for cell in cells for trial in range(max_trials)]
        manifest = None
        if self.store is not None:
            manifest = self.store.open_manifest(sweep, specs)
        values: list[dict[int, float]] = [{} for _ in cells]
        decisions: list[StopDecision | None] = [None] * len(cells)
        anchors: dict[int, float | None] = {}
        done_trials = [0] * len(cells)
        active = list(range(len(cells)))
        while active:
            batch: list[int] = []
            for cell_index in active:
                target = rule.next_target(done_trials[cell_index])
                batch.extend(
                    cell_index * max_trials + trial
                    for trial in range(done_trials[cell_index], target)
                )
                done_trials[cell_index] = target
            pending: list[int] = []
            hits: list[tuple[int, RunRecord, bool]] = []
            for index in batch:
                record = self.store.get(specs[index]) if self.store is not None else None
                if record is not None:
                    self._note_metric(rule, cells, values, index, max_trials, record)
                    hits.append((index, record, True))
                else:
                    pending.append(index)
            if self.store is not None:
                self.store.save_manifest(manifest, [index for index, _r, _c in hits])
            if hits:
                yield hits
            for executed in self._execute(executor, specs, pending, manifest):
                for index, record, _cached in executed:
                    self._note_metric(rule, cells, values, index, max_trials, record)
                yield executed
            still_active: list[int] = []
            for cell_index in active:
                if rule.exact_anchor and cell_index not in anchors:
                    anchors[cell_index] = exact_anchor_value(
                        cells[cell_index].spec(0), rule.metric
                    )
                ordered = [
                    values[cell_index][trial]
                    for trial in sorted(values[cell_index])
                ]
                decision = rule.evaluate(ordered, anchor=anchors.get(cell_index))
                if decision is None:
                    still_active.append(cell_index)
                else:
                    decisions[cell_index] = decision
            active = still_active
        self.last_stopping = [
            {**cell.describe(), **decision.to_dict()}
            for cell, decision in zip(cells, decisions)
            if decision is not None
        ]

    @staticmethod
    def _note_metric(
        rule: StoppingRule,
        cells: Sequence[SweepCell],
        values: list[dict[int, float]],
        index: int,
        max_trials: int,
        record: RunRecord,
    ) -> None:
        """Record one trial's metric value for its cell's stop evaluation."""
        cell_index, trial = divmod(index, max_trials)
        value = _aggregate.record_value(record, rule.metric)
        if value is None:
            raise ValueError(
                f"stopping metric {rule.metric!r} is None on a record of cell "
                f"{cells[cell_index].describe()}; pick a metric the cell's "
                "runner actually measures"
            )
        values[cell_index][trial] = float(value)

    # -- execution units ----------------------------------------------------------

    def _units(self, specs: Sequence[RunSpec], indices: list[int]) -> list[list[int]]:
        """Partition pending run indices into execution units.

        A unit is a replicate group or a single run.  Groups preserve
        first-seen order, and a seed that repeats within a group is split
        off into its own unit — a duplicated spec is a legitimate sweep
        (with a store it is simply a cache hit), not the hard error
        :func:`execute_replicate_group` reserves for hand-built groups.
        """
        units: list[list[int]] = []
        groups: dict[str, tuple[list[int], set[int | None]]] = {}
        for index in indices:
            spec = specs[index]
            if not _replicate_groupable(spec):
                units.append([index])
                continue
            key = replicate_group_key(spec)
            entry = groups.get(key)
            if entry is not None and spec.seed not in entry[1]:
                entry[0].append(index)
                entry[1].add(spec.seed)
            elif entry is not None:
                units.append([index])
            else:
                unit = [index]
                groups[key] = (unit, {spec.seed})
                units.append(unit)
        return units

    def _execute(self, executor, specs: Sequence[RunSpec], pending: list[int], manifest=None):
        """Execute the pending runs on ``executor``, yielding ``(index, record, False)`` lists.

        With a store, each executor round's records are put and the
        ``manifest`` saved before the round is yielded; without one, every
        unit goes to the executor in one call and one list.
        """
        units = self._units(specs, pending)
        size = len(units) or 1
        if self.store is not None:
            # One executor round per checkpoint: every worker busy once.
            size = getattr(executor, "workers", None) or 1
        for start in range(0, len(units), size):
            chunk = units[start : start + size]
            records = executor.map_groups([[specs[i] for i in unit] for unit in chunk])
            executed = sorted(
                (pair for unit, rows in zip(chunk, records) for pair in zip(unit, rows)),
                key=lambda pair: pair[0],
            )
            if self.store is not None:
                for index, record in executed:
                    self.store.put(specs[index], record)
                self.store.save_manifest(manifest, [index for index, _record in executed])
            yield [(index, record, False) for index, record in executed]

    def _iter_with_store(self, sweep: SweepSpec, executor):
        """Serve the stored runs by their SHAs, then execute the rest.

        A sweep whose manifest the store already holds is walked by the
        manifest's run SHAs; the sweep is expanded only when it is new to
        the store or some run is pending.
        """
        store = self.store
        specs = None
        manifest = store.held_manifest(sweep)
        if manifest is None:
            specs = sweep.expand()
            manifest = store.open_manifest(sweep, specs)
        hits, pending = store.scan(manifest)
        store.save_manifest(manifest)
        if hits:
            yield [(index, record, True) for index, record in hits]
        if not pending:
            return
        if specs is None:
            specs = sweep.expand()
        yield from self._execute(executor, specs, pending, manifest)


def run_sweep(
    sweep: SweepSpec,
    workers: int | None = None,
    store=None,
    executor: object | str | None = None,
) -> SweepResult:
    """Execute a sweep; ``workers`` defaults to the spec's own ``workers`` field.

    ``store=`` enables the content-addressed result cache (runs already in
    the store are served, fresh ones persisted); ``executor=`` picks an
    executor by registry name or instance.
    """
    effective = workers if workers is not None else sweep.workers
    return SweepRunner(workers=effective, executor=executor, store=store).run(sweep)
