"""The unified observer pipeline: streaming observation of any engine.

The paper's experiments are observations of executions — potential drops per
exchange (E2), energy trajectories (E5), convergence-time tails (E6) — and
each engine exposes its execution at a different granularity.  This module
gives all of them one streaming contract:

* :class:`Observer` — the hook interface.  ``on_start`` fires when the
  observer is attached to an engine, ``on_delta`` for every applied state
  change, ``on_check`` at every convergence-check boundary of
  :meth:`~repro.simulation.base.SimulationEngine.run`, and ``on_finish`` when
  a ``run`` invocation returns.  ``summary()`` reports JSON-native metrics so
  declarative sweeps (``RunSpec.observers``) can persist what an observer
  measured.
* :class:`CountDelta` — the event payload.  The **agent engine** emits one
  delta per interaction (``count == 1``, with agent indices, and — for
  observers that ask via ``wants_unchanged`` — including interactions that
  changed nothing).  The **batch engine** emits one delta per changed
  interaction in its dense and sparse regimes (``count == 1``); its
  position kernel emits one *exact aggregate*
  per changed ordered pair type per round (``count`` = how many identical
  interactions the delta covers).  Aggregation never approximates: summing
  ``count`` over deltas equals the engine's ``interactions_changed`` on every
  engine.
* **code hooks** (:meth:`Observer.code_hook`) — on a compiled configuration
  engine an observer may follow changed interactions by their ordered pair
  code instead, so the engine decodes no state for it.
  :class:`KetExchangeObserver` counts this way through
  :func:`ket_exchange_mask`.
* a **registry** (:func:`register_observer` / :func:`build_observer`)
  mirroring the protocol, engine, workload and runner registries, so
  observers travel through declarative specs by name.

Built-in observers: :class:`TraceObserver` (the :class:`~repro.simulation.trace.Trace`
recorder, agent engine only), :class:`EnergyObserver` and
:class:`PotentialObserver` (count-level incremental energy/potential for
Circles-shaped states, exact on every engine), and
:class:`KetExchangeObserver` (the exchange counter behind
every Circles run and E2).  Incremental *convergence* detection — the quiescence
tracker that replaces the periodic ``O(d²)`` silence rescan — lives with the
criteria in :mod:`repro.simulation.convergence`; it is the same streaming
idea applied to the stopping rule.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, Generic, TypeVar

from repro.core.braket import braket_weight
from repro.core.potential import (
    compare_weight_histograms,
    ordinal_potential_from_histogram,
    state_weights,
)
from repro.core.state import CirclesState
from repro.protocols.base import TransitionResult
from repro.utils.errors import unknown_name_error
from repro.utils.ordinal import Ordinal

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class CountDelta(Generic[State]):
    """One observed (aggregate of) interaction(s) of a single ordered pair type.

    ``count`` interactions took the ordered state pair ``(initiator,
    responder)`` to ``result``.  ``step`` is the engine's ``steps_taken`` at
    the start of the interaction that produced the delta, or of the kernel
    round on the batch engine's position kernel — deltas within one round
    share it, because they aggregate interactions over the whole round.  The
    agent indices are only set by the agent engine (``count == 1``); the
    configuration-level engines are anonymous.
    """

    step: int
    initiator: State
    responder: State
    result: TransitionResult[State]
    count: int
    initiator_index: int | None = None
    responder_index: int | None = None

    @property
    def changed(self) -> bool:
        """Whether the covered interactions changed any state, read off the states."""
        result = self.result
        return result.initiator != self.initiator or result.responder != self.responder


class Observer(Generic[State]):
    """Base class of execution observers; every hook defaults to a no-op.

    Class attributes declare what an observer needs from the engine:
    ``wants_unchanged`` asks for deltas of non-changing interactions (only
    the agent engine evaluates interactions individually, so only it can
    honor this — the configuration-level engines deliver changed deltas
    only), and ``requires_indices`` asks for agent indices (attaching such an
    observer to an anonymous engine raises).
    """

    #: Registry name of the observer (see :func:`register_observer`).
    name: ClassVar[str] = "observer"
    #: Ask for deltas of interactions that changed nothing (agent engine only).
    wants_unchanged: bool = False
    #: Require per-agent indices on deltas (agent engine only).
    requires_indices: ClassVar[bool] = False

    def on_start(self, engine) -> None:
        """Called once, when the observer is attached to ``engine``."""

    def code_hook(self, compiled) -> Callable[[int, int], None] | None:
        """A callable that follows changed interactions on pair codes, or None.

        Compiled configuration engines ask once, right after :meth:`on_start`.
        When the observer returns a callable, the engine calls it with
        ``(code, count)`` — the ordered pair code ``p·d + q`` of ``count``
        changed interactions — *instead of* :meth:`on_delta`, and decodes no
        state for it.  The default keeps decoded deltas.
        """
        return None

    def on_delta(self, delta: CountDelta[State]) -> None:
        """Called for every emitted delta (see :class:`CountDelta`)."""

    def on_check(self, engine) -> None:
        """Called at every convergence-check boundary of ``engine.run``."""

    def on_finish(self, engine, converged: bool) -> None:
        """Called when an ``engine.run`` invocation returns."""

    def summary(self) -> dict[str, Any]:
        """JSON-native metrics for sweep records (``RunSpec.observers``)."""
        return {}


class CallbackObserver(Observer[State]):
    """Adapts a plain callable to the pipeline.

    The callable receives ``(initiator_before, responder_before, result,
    count)`` for every *changed* delta; ``count`` is how many interactions
    of that pair type the delta covers.
    """

    name = "callback"

    def __init__(self, fn: Callable[..., None]) -> None:
        self.fn = fn

    def on_delta(self, delta: CountDelta[State]) -> None:
        if delta.changed:
            self.fn(delta.initiator, delta.responder, delta.result, delta.count)


class TraceObserver(Observer[State]):
    """Records a :class:`~repro.simulation.trace.Trace` of every interaction.

    Needs per-agent indices and per-interaction granularity, so it attaches
    to the agent engine only.  Optional ``metrics`` are evaluated on the
    post-interaction state list at every recorded step.
    """

    name = "trace"
    wants_unchanged = True
    requires_indices = True

    def __init__(self, trace=None, metrics: Mapping[str, Callable] | None = None) -> None:
        from repro.simulation.trace import Trace

        self.trace = trace if trace is not None else Trace()
        self.metrics = dict(metrics or {})
        self._engine = None

    def on_start(self, engine) -> None:
        self._engine = engine

    def on_delta(self, delta: CountDelta[State]) -> None:
        from repro.simulation.trace import TraceEvent

        metric_values = {
            name: metric(self._engine.states()) for name, metric in self.metrics.items()
        }
        self.trace.record(
            TraceEvent(
                step=delta.step,
                initiator=delta.initiator_index,
                responder=delta.responder_index,
                changed=delta.changed,
                metrics=metric_values,
            )
        )

    def summary(self) -> dict[str, Any]:
        return {"events": len(self.trace), "changed_events": len(self.trace.changed_steps())}


def ket_exchange_occurred(
    before: tuple[CirclesState, CirclesState], after: tuple[CirclesState, CirclesState]
) -> bool:
    """Whether an interaction exchanged kets, judged from both sides.

    :meth:`CirclesProtocol.transition` swaps *both* kets whenever it swaps
    any, so for the paper's protocol the two sides always agree; counting
    either side keeps the statistic correct for transition variants in which
    only the responder's ket moves (a responder-side-only change used to be
    silently dropped by an initiator-only check).  One interaction counts as
    at most one exchange even though it touches two kets.
    """
    return (
        before[0].braket.ket != after[0].braket.ket
        or before[1].braket.ket != after[1].braket.ket
    )


def ket_exchange_mask(compiled) -> list[bool]:
    """Per-pair-code mask: does this changed transition exchange a ket?

    Entry ``p·d + q`` applies :func:`ket_exchange_occurred` to the compiled
    transition of ``(p, q)`` (False for unchanged pairs), so counting through
    the mask reaches the same verdicts as counting decoded deltas.  A plain
    list, built once per compiled protocol.
    """
    return compiled.derived("ket-exchange", _ket_exchange_mask)


def _ket_exchange_mask(compiled) -> list[bool]:
    d = compiled.num_states
    states = compiled.states
    table = compiled.table
    mask = [False] * (d * d)
    for code, changed in enumerate(compiled.changed):
        if changed:
            p, q = divmod(code, d)
            a, b = divmod(table[code], d)
            mask[code] = ket_exchange_occurred((states[p], states[q]), (states[a], states[b]))
    return mask


class KetExchangeObserver(Observer[CirclesState]):
    """Counts ket exchanges exactly, on any engine (Circles-shaped states).

    On a compiled configuration engine it counts on pair codes through
    :func:`ket_exchange_mask`; elsewhere it judges each decoded delta.
    """

    name = "ket-exchanges"

    def __init__(self) -> None:
        self.exchanges = 0

    def code_hook(self, compiled) -> Callable[[int, int], None]:
        mask = ket_exchange_mask(compiled)

        def count(code: int, interactions: int) -> None:
            if mask[code]:
                self.exchanges += interactions

        return count

    def on_delta(self, delta: CountDelta[CirclesState]) -> None:
        result = delta.result
        if ket_exchange_occurred(
            (delta.initiator, delta.responder), (result.initiator, result.responder)
        ):
            self.exchanges += delta.count

    def summary(self) -> dict[str, Any]:
        return {"ket_exchanges": self.exchanges}


class _WeightedObserver(Observer[CirclesState]):
    """Shared plumbing of the energy/potential observers: per-state weights.

    On attachment the observer snapshots the configuration — through the
    compiled count vector when the engine has one (``O(d)``), else through
    the configuration multiset or the state list — and thereafter maintains
    its statistic incrementally from deltas: ``O(1)`` per delta, independent
    of both the population size and the delta's ``count``.
    """

    def __init__(self) -> None:
        self._num_colors: int | None = None
        self._weights: dict[CirclesState, int] = {}

    def _weight(self, state: CirclesState) -> int:
        weight = self._weights.get(state)
        if weight is None:
            try:
                braket = state.braket
            except AttributeError:
                raise TypeError(
                    f"{type(self).__name__} needs Circles-shaped states (with a "
                    f"``braket``); got {state!r}"
                ) from None
            weight = braket_weight(braket, self._num_colors)
            self._weights[state] = weight
        return weight

    def _weight_table(self, states) -> list[int]:
        """Per-state weights for a compiled enumeration, with a clear error."""
        try:
            return state_weights(states, self._num_colors)
        except AttributeError:
            raise TypeError(
                f"{type(self).__name__} needs Circles-shaped states (with a "
                f"``braket``); protocol states look like {states[0]!r}"
            ) from None

    def _iter_configuration(self, engine):
        """Yield ``(state, count, weight)`` over the current configuration."""
        self._num_colors = engine.protocol.num_colors
        compiled = engine.compiled_protocol
        counts = engine.count_vector() if hasattr(engine, "count_vector") else None
        if compiled is not None and counts is not None:
            weights = self._weight_table(compiled.states)
            for code, count in enumerate(counts):
                if count:
                    yield compiled.states[code], int(count), weights[code]
        elif hasattr(engine, "configuration"):
            for state, count in engine.configuration().items():
                yield state, count, self._weight(state)
        else:
            for state in engine.states():
                yield state, 1, self._weight(state)


class EnergyObserver(_WeightedObserver):
    """Streams the scalar energy (sum of bra-ket weights) of the execution.

    The energy is computed once from the configuration at attachment —
    ``O(d)`` over the distinct states, through the count vector on the
    compiled engines — and then updated in ``O(1)`` per delta.  Samples are
    ``(step, energy)`` pairs, where ``step`` counts the interactions
    completed once the sample's delta has applied (exact per interaction,
    except on the batch engine's position kernel, whose per-round aggregates
    carry no internal order):

    * ``record="delta"`` (default) appends one sample per delta (plus the
      initial configuration) — the exact per-step trajectory on the agent
      engine, one sample per changed interaction in the batch engine's pool
      regimes, one per changed pair type per
      round on the position kernel;
    * ``record="check"`` samples only at convergence-check boundaries and at
      the end of each run — the cheap setting for long sweeps.

    ``record_unchanged=True`` additionally samples at non-changing
    interactions (agent engine only), reproducing the classic dense
    one-entry-per-interaction energy trajectory of experiment E5.
    """

    name = "energy"

    def __init__(self, record: str = "delta", record_unchanged: bool = False) -> None:
        super().__init__()
        if record not in ("delta", "check"):
            raise ValueError(f"record must be 'delta' or 'check', got {record!r}")
        self.record = record
        self.wants_unchanged = record_unchanged
        self.energy: int = 0
        self.samples: list[tuple[int, int]] = []

    def on_start(self, engine) -> None:
        self.energy = sum(
            count * weight for _, count, weight in self._iter_configuration(engine)
        )
        self.samples.append((engine.steps_taken, self.energy))

    def on_delta(self, delta: CountDelta[CirclesState]) -> None:
        if delta.changed:
            result = delta.result
            weight = self._weight
            self.energy += delta.count * (
                weight(result.initiator)
                + weight(result.responder)
                - weight(delta.initiator)
                - weight(delta.responder)
            )
        if self.record == "delta":
            # delta.step counts interactions *before* the delta; label the
            # post-delta energy with the post-delta interaction count so the
            # series is single-valued and ends at the budget.
            self.samples.append((delta.step + delta.count, self.energy))

    def _sample_boundary(self, engine) -> None:
        sample = (engine.steps_taken, self.energy)
        if not self.samples or self.samples[-1] != sample:
            self.samples.append(sample)

    def on_check(self, engine) -> None:
        if self.record == "check":
            self._sample_boundary(engine)

    def on_finish(self, engine, converged: bool) -> None:
        if self.record == "check":
            self._sample_boundary(engine)

    def series(self) -> list[tuple[int, int]]:
        """The recorded ``(step, energy)`` samples."""
        return list(self.samples)

    def summary(self) -> dict[str, Any]:
        energies = [energy for _, energy in self.samples]
        return {
            "initial_energy": energies[0] if energies else None,
            "final_energy": energies[-1] if energies else None,
            "min_energy": min(energies) if energies else None,
            "samples": len(self.samples),
            "monotone_nonincreasing": all(
                later <= earlier for earlier, later in zip(energies, energies[1:])
            ),
        }


class PotentialObserver(_WeightedObserver):
    """Streams the ordinal potential ``g(C)`` via its weight histogram.

    The histogram is maintained in ``O(1)`` per delta; whenever a delta
    changes it (exactly the ket exchanges — output copies move no weight),
    the observer verifies that the potential *strictly decreased*, comparing
    histograms run-length-lexicographically
    (:func:`repro.core.potential.compare_weight_histograms`) in ``O(k)``
    without materializing the ``n``-term ordinal.  This is the per-exchange
    strictness of Theorem 3.4, now checkable at identical cost on every
    engine — the measurement behind experiment E2.
    """

    name = "potential"

    def __init__(self) -> None:
        super().__init__()
        self.histogram: dict[int, int] = {}
        self.strictly_decreasing = True
        self.weight_changes = 0

    def on_start(self, engine) -> None:
        histogram: dict[int, int] = {}
        for _, count, weight in self._iter_configuration(engine):
            histogram[weight] = histogram.get(weight, 0) + count
        self.histogram = histogram

    def on_delta(self, delta: CountDelta[CirclesState]) -> None:
        if not delta.changed:
            return
        result = delta.result
        weight = self._weight
        before = (weight(delta.initiator), weight(delta.responder))
        after = (weight(result.initiator), weight(result.responder))
        if before == after or (before[0] == after[1] and before[1] == after[0]):
            return  # no weight moved (e.g. an output copy): g(C) is unchanged
        histogram = self.histogram
        previous = dict(histogram)
        count = delta.count
        for value in before:
            remaining = histogram[value] - count
            if remaining:
                histogram[value] = remaining
            else:
                del histogram[value]
        for value in after:
            histogram[value] = histogram.get(value, 0) + count
        self.weight_changes += 1
        if compare_weight_histograms(histogram, previous) >= 0:
            self.strictly_decreasing = False

    def potential(self) -> Ordinal:
        """The current ordinal potential ``g(C)`` (materialized on demand)."""
        return ordinal_potential_from_histogram(self.histogram)

    def summary(self) -> dict[str, Any]:
        return {
            "potential_strictly_decreased": self.strictly_decreasing,
            "weight_changes": self.weight_changes,
        }


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

#: Observer name -> zero/keyword-argument factory.
OBSERVERS: dict[str, Callable[..., Observer]] = {
    TraceObserver.name: TraceObserver,
    EnergyObserver.name: EnergyObserver,
    PotentialObserver.name: PotentialObserver,
    KetExchangeObserver.name: KetExchangeObserver,
}


def register_observer(
    name: str, factory: Callable[..., Observer], *, overwrite: bool = False
) -> None:
    """Register an observer factory usable by name (``RunSpec.observers``)."""
    if not overwrite and name in OBSERVERS:
        raise ValueError(f"observer name {name!r} is already registered")
    OBSERVERS[name] = factory


def available_observers() -> tuple[str, ...]:
    """The names :func:`build_observer` accepts, sorted."""
    return tuple(sorted(OBSERVERS))


def build_observer(name: str, **params: object) -> Observer:
    """Instantiate an observer by registry name.

    Raises:
        KeyError: for unknown names, listing the available ones (the shared
            registry error contract of :mod:`repro.utils.errors`).
    """
    try:
        factory = OBSERVERS[name]
    except KeyError:
        raise unknown_name_error("observer", name, OBSERVERS) from None
    return factory(**params)
