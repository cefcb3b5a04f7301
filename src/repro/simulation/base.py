"""The shared engine interface.

The engines simulate the same population-protocol dynamics at different
granularities (per agent, per sampled window of the configuration chain, or
analytically); this module holds what they share:

* :class:`SimulationEngine` — the abstract base class every engine
  implements.  It fixes the public contract (``run``, ``states``,
  ``outputs``, ``output_counts``, the ``steps_taken`` /
  ``interactions_changed`` counters), owns the **observer pipeline**
  (:mod:`repro.simulation.observers`: ``add_observer``, delta emission, and
  the ``on_check``/``on_finish`` run-loop hooks), and provides the
  budget/convergence loop as a template method, so the stopping semantics
  are identical across engines: the criterion is evaluated before the first
  interaction and then every ``check_interval`` interactions.
* :class:`ConfigurationEngine` — the configuration-level half of the batch
  engine (:mod:`repro.simulation.batch_engine`, and through it the vector
  replicate engine): construction and validation, delta emission for
  applied transitions, configuration bookkeeping, count-weighted output
  tallies.  The configuration lives in one integer-indexed count vector
  over state codes from :func:`repro.compile.compile_or_intern`: the
  compiled closure, whose transitions are flat-table lookups, or past the
  compile cap a lazy interner that numbers states on first sight and
  memoizes δ per code pair.  On the compiled path, quiescence checks
  (:class:`~repro.simulation.convergence.SilentConfiguration`) are answered
  by an incrementally maintained
  :class:`~repro.simulation.convergence.ActivePairTracker` instead of a
  periodic ``O(d²)`` rescan.
* :func:`default_check_interval` — the single default policy for how often
  convergence is checked.

Engine *selection* (the ``"agent"`` / ``"batch"`` / ``"vector"`` /
``"exact"`` registry) lives in :mod:`repro.simulation.registry`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Hashable, Iterable
from typing import ClassVar, Generic, TypeVar

import repro.compile

# ``compile_from_states`` stays a name of this module because perfbench's
# compile layer wraps it here; the codes come from ``compile_or_intern``.
from repro.compile import CompiledProtocol, StateCodes, compile_from_states  # noqa: F401
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.simulation.convergence import (
    ActivePairTracker,
    ConvergenceCriterion,
    SilentConfiguration,
)
from repro.simulation.observers import CountDelta, Observer
from repro.simulation.population import initial_configuration
from repro.utils.multiset import Multiset
from repro.utils.rng import RngLike, make_rng

State = TypeVar("State", bound=Hashable)


def default_check_interval(num_agents: int) -> int:
    """How often (in interactions) engines check convergence by default.

    The policy is one unit of *parallel time*: ``n`` interactions.  A
    convergence check costs at most ``O(d²)`` transition evaluations (``d`` =
    number of distinct states present, typically far below ``n``), so checking
    every ``n`` interactions keeps the amortized check cost per interaction
    vanishing as the population grows, while stabilization is still detected
    within one parallel-time unit of when it happens.  Every engine uses
    this one helper.
    """
    return max(1, num_agents)


class SimulationEngine(abc.ABC, Generic[State]):
    """Abstract base class of all simulation engines.

    Concrete engines provide the stepping strategy via :meth:`_advance` (one
    scheduled interaction for the agent engine, a whole window for the
    batched engine) and the criterion hook :meth:`_converged`; the budgeted
    :meth:`run` loop is shared so every engine stops under exactly the same
    rules.
    """

    #: Registry name of the engine (see :mod:`repro.simulation.registry`).
    engine_name: ClassVar[str] = "engine"
    #: Whether the engine tracks individual agents (only the agent engine
    #: does; observers with ``requires_indices`` need it).
    tracks_agents: ClassVar[bool] = False
    #: Whether the engine *samples* trajectories of the interaction chain.
    #: True for all simulation engines; the analytical ``"exact"`` engine
    #: (:mod:`repro.exact`) overrides it, and registry-wide trajectory
    #: suites filter on it.
    samples_trajectories: ClassVar[bool] = True
    #: Whether runs of this engine are bit-reproduced by the vector replicate
    #: engine's per-row streams (see :mod:`repro.simulation.vector_engine`) —
    #: the gate for the sweep runner's replicate-group routing.
    supports_replicates: ClassVar[bool] = False

    protocol: PopulationProtocol[State]
    #: Total interactions simulated so far.
    steps_taken: int
    #: Interactions that changed at least one agent's state.
    interactions_changed: int

    # -- observers ---------------------------------------------------------------

    def _init_observers(self) -> None:
        """Set up the observer pipeline (call once, from ``__init__``)."""
        self._observers: list[Observer] = []
        self._wants_unchanged = False

    def add_observer(self, observer: Observer[State]) -> Observer[State]:
        """Attach an observer and fire its ``on_start`` hook.

        Raises:
            ValueError: when the observer requires per-agent indices
                (``requires_indices``) but this engine is anonymous.
        """
        if observer.requires_indices and not self.tracks_agents:
            raise ValueError(
                f"engine {self.engine_name!r} does not track individual agents; "
                f"observer {observer.name!r} needs engine='agent'"
            )
        self._observers.append(observer)
        self._wants_unchanged = any(o.wants_unchanged for o in self._observers)
        observer.on_start(self)
        return observer

    @property
    def observers(self) -> tuple[Observer[State], ...]:
        """The attached observers, in attachment order."""
        return tuple(self._observers)

    # -- abstract surface -------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_agents(self) -> int:
        """The (constant) population size."""

    @abc.abstractmethod
    def states(self) -> list[State]:
        """A copy of the current agent states.

        Engines that only track the configuration return the multiset
        expanded in an arbitrary (but deterministic) order — agents are
        anonymous, so no meaning attaches to positions.
        """

    @abc.abstractmethod
    def _advance(self, max_interactions: int) -> int:
        """Execute at least one and at most ``max_interactions`` interactions.

        Returns the number of interactions executed.  Called with
        ``max_interactions >= 1``.
        """

    @abc.abstractmethod
    def _converged(self, criterion: ConvergenceCriterion[State]) -> bool:
        """Evaluate the criterion against the current population."""

    # -- shared run loop ---------------------------------------------------------

    def run(
        self,
        max_steps: int,
        criterion: ConvergenceCriterion[State] | None = None,
        check_interval: int | None = None,
    ) -> bool:
        """Run until the criterion holds or ``max_steps`` interactions elapsed.

        Observer hooks (:mod:`repro.simulation.observers`): attached
        observers receive ``on_check`` after every criterion evaluation and
        ``on_finish`` when this call returns (``on_start`` fires at
        attachment, ``on_delta`` as interactions apply).

        Args:
            max_steps: the interaction budget.
            criterion: optional stopping criterion; when omitted the engine
                simply runs the full budget.
            check_interval: how often (in interactions) the criterion is
                evaluated; defaults to :func:`default_check_interval`.  Must
                be at least 1 — in particular 0 is rejected, because it used
                to be silently replaced by the default.

        Returns:
            True when the criterion was satisfied (always False when no
            criterion is given).
        """
        self._validate_run_arguments(max_steps, check_interval)
        if criterion is None:
            # One window spanning the whole budget, with no check at its end.
            interval = max(1, max_steps)
        else:
            interval = (
                check_interval
                if check_interval is not None
                else default_check_interval(self.num_agents)
            )
            if self._check(criterion):
                return self._finish(True)
        executed = 0
        while executed < max_steps:
            # Windows end at multiples of the interval and at the budget.
            executed += self._run_idle_windows(executed, max_steps, interval, criterion)
            if executed == max_steps:
                break
            end = min(executed - executed % interval + interval, max_steps)
            while executed < end:
                executed += self._advance(end - executed)
            if criterion is not None and self._check(criterion):
                return self._finish(True)
        return self._finish(False)

    def _run_idle_windows(
        self,
        executed: int,
        max_steps: int,
        interval: int,
        criterion: ConvergenceCriterion[State] | None,
    ) -> int:
        """Hook of :meth:`run`: advance through windows that change no state.

        Called right after a check boundary (or at the start of a run),
        ``executed`` interactions into a budget of ``max_steps`` whose
        windows end at multiples of ``interval``.  An engine that can prove
        the coming interactions change nothing may execute them here, firing
        the checks at the boundaries it crosses; those verdicts repeat the
        last one, because the configuration has not moved.  Returns how many
        interactions it executed, and may stop inside a window, which
        :meth:`run` then completes through :meth:`_advance`.  The default
        executes none.
        """
        return 0

    @staticmethod
    def _validate_run_arguments(max_steps: int, check_interval: int | None) -> None:
        """The shared argument contract of every engine's ``run``."""
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if check_interval is not None and check_interval < 1:
            raise ValueError(
                f"check_interval must be a positive number of interactions, got "
                f"{check_interval}; omit it (or pass None) for the default policy"
            )

    def _check(self, criterion: ConvergenceCriterion[State]) -> bool:
        """Evaluate the criterion and fire the ``on_check`` boundary hook."""
        verdict = self._converged(criterion)
        for observer in self._observers:
            observer.on_check(self)
        return verdict

    def _finish(self, converged: bool) -> bool:
        """Fire ``on_finish`` and pass the verdict through."""
        for observer in self._observers:
            observer.on_finish(self, converged)
        return converged

    # -- shared inspection -------------------------------------------------------

    @property
    def compiled_protocol(self) -> CompiledProtocol | None:
        """The compiled transition tables backing this engine, if any.

        ``None`` means no compiled tables back the engine: the agent engine
        never uses them, and the configuration-level engines run on lazily
        interned codes when the protocol's δ-closure exceeds the compile cap.
        """
        return getattr(self, "_compiled", None)

    def outputs(self) -> list[int]:
        """Every agent's current output color (order as in :meth:`states`)."""
        output = self.protocol.output
        return [output(state) for state in self.states()]

    def output_counts(self) -> dict[int, int]:
        """How many agents currently output each color."""
        counts: dict[int, int] = {}
        for color in self.outputs():
            counts[color] = counts.get(color, 0) + 1
        return counts


class ConfigurationEngine(SimulationEngine[State]):
    """The configuration-level state of the batch engine.

    Agents are anonymous (Definition 1.1), so under the uniform random
    scheduler only the multiset of states matters.  This class holds that
    multiset and everything that does not depend on how it is sampled:
    construction and validation, delta emission to observers, the
    configuration bookkeeping and the cached convergence verdict.  The
    batch engine (:mod:`repro.simulation.batch_engine`) supplies the
    sampling strategy (:meth:`_advance`).

    State codes
    -----------

    The configuration is one **count vector** over state codes on every
    path, and every transition is index arithmetic on it.  The codes come
    from :func:`repro.compile.compile_or_intern`: the compiled δ-closure
    (:class:`repro.compile.CompiledProtocol`, whose flat tables also back the
    sparse regime, the position kernel, the quiescence tracker and code
    hooks), or, when the closure exceeds the compile cap, a
    :class:`repro.compile.LazyInterner` that numbers states in the initial
    configuration's order and then on first sight, and evaluates δ through
    Python dispatch once per code pair.
    """

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seed: RngLike = None,
    ) -> None:
        self.protocol = protocol
        configuration = initial if isinstance(initial, Multiset) else Multiset(initial)
        if len(configuration) < 2:
            raise ValueError("a population needs at least two agents")
        self._num_agents = len(configuration)
        self._rng = make_rng(seed)
        self.steps_taken = 0
        self.interactions_changed = 0
        #: The state codes, and the compiled tables when they are those codes.
        self._codes: StateCodes[State] = repro.compile.compile_or_intern(
            protocol, configuration.counts()
        )
        self._compiled: CompiledProtocol[State] | None = (
            self._codes if isinstance(self._codes, CompiledProtocol) else None
        )
        self._counts: list[int] = self._codes.multiset_to_counts(configuration)
        #: Lazily created incremental quiescence tracker (compiled path only).
        self._active_pairs: ActivePairTracker | None = None
        #: ``(criterion, interactions_changed, verdict)`` of the last check.
        self._verdict: tuple | None = None
        #: The attached observers, split by what they consume on the compiled
        #: path: ``(code, count)`` hooks, or decoded :class:`CountDelta`\ s.
        self._code_hooks: list[Callable[[int, int], None]] = []
        self._delta_observers: list[Observer[State]] = []
        self._init_observers()

    def add_observer(self, observer: Observer[State]) -> Observer[State]:
        super().add_observer(observer)
        hook = None if self._compiled is None else observer.code_hook(self._compiled)
        if hook is None:
            self._delta_observers.append(observer)
        else:
            self._code_hooks.append(hook)
        return observer

    @classmethod
    def from_colors(
        cls,
        protocol: PopulationProtocol[State],
        colors: Iterable[int],
        seed: RngLike = None,
    ):
        """Create the initial configuration from input colors."""
        return cls(protocol, initial_configuration(protocol, colors), seed)

    def _record_changed_codes(self, p: int, q: int, a: int, b: int, count: int) -> None:
        """Book a changed transition on codes: counter, code hooks, decoded delta.

        States are decoded only when an attached observer needs a
        :class:`CountDelta`.  Count-vector bookkeeping stays with the caller —
        the engines update counts differently (per interaction, or wholesale
        per kernel round).
        """
        self.interactions_changed += count
        if self._code_hooks:
            code = p * self._compiled.num_states + q
            for hook in self._code_hooks:
                hook(code, count)
        if self._delta_observers:
            decode = self._codes.decode
            delta = CountDelta(
                step=self.steps_taken,
                initiator=decode(p),
                responder=decode(q),
                result=TransitionResult(decode(a), decode(b), True),
                count=count,
            )
            for observer in self._delta_observers:
                observer.on_delta(delta)

    def _book_changed_codes(self, p: int, q: int, a: int, b: int, count: int) -> None:
        """Apply one changed pair type to the count vector and book it."""
        counts = self._counts
        counts[p] -= count
        counts[q] -= count
        counts[a] += count
        counts[b] += count
        tracker = self._active_pairs
        if tracker is not None:
            tracker.update(p)
            tracker.update(q)
            tracker.update(a)
            tracker.update(b)
        self._record_changed_codes(p, q, a, b, count)

    def _quiescence(self) -> ActivePairTracker:
        """The incremental quiescence tracker (created on first use)."""
        if self._active_pairs is None:
            self._active_pairs = ActivePairTracker(self._compiled, self._counts)
        return self._active_pairs

    def _converged(self, criterion: ConvergenceCriterion[State]) -> bool:
        """The criterion's verdict, re-evaluated only after a changed interaction.

        Criteria are pure functions of the configuration, and the
        configuration moves only through changed interactions, so the verdict
        is cached per ``(criterion, interactions_changed)``: on a quiet tail
        most checks cost one comparison.
        """
        cached = self._verdict
        if (
            cached is not None
            and cached[0] is criterion
            and cached[1] == self.interactions_changed
        ):
            return cached[2]
        verdict = self._evaluate(criterion)
        self._verdict = (criterion, self.interactions_changed, verdict)
        return verdict

    def _evaluate(self, criterion: ConvergenceCriterion[State]) -> bool:
        if self._compiled is not None and isinstance(criterion, SilentConfiguration):
            return self._quiescence().is_silent()
        return criterion.is_converged_counts(self.protocol, self._codes, self._counts)

    # -- inspection -------------------------------------------------------------

    @property
    def num_agents(self) -> int:
        """The (constant) population size."""
        return self._num_agents

    def states(self) -> list[State]:
        """The current agent states (anonymous, so order carries no meaning)."""
        states: list[State] = []
        decode = self._codes.decode
        for code, count in enumerate(self._counts):
            if count:
                states.extend([decode(code)] * int(count))
        return states

    def configuration(self) -> Multiset[State]:
        """A copy of the current configuration."""
        return self._codes.counts_to_multiset(self._counts)

    def count_vector(self):
        """The live count vector over the engine's state codes.

        Index-aligned with ``compiled_protocol.states`` when the protocol
        compiled.  The vector is the engine's working state — treat it as
        read-only.
        """
        return self._counts

    def output_counts(self) -> dict[int, int]:
        """How many agents currently output each color."""
        counts: dict[int, int] = {}
        outputs = self._codes.outputs
        for code, count in enumerate(self._counts):
            if count:
                color = outputs[code]
                counts[color] = counts.get(color, 0) + int(count)
        return counts

    def unanimous_output(self) -> int | None:
        """The common output color if all agents agree, else ``None``."""
        counts = self.output_counts()
        if len(counts) == 1:
            return next(iter(counts))
        return None
