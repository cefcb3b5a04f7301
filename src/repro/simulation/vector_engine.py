"""The vector replicate engine: many replicates of one protocol in lockstep.

The paper's tables are Monte-Carlo estimates over many replicates of the same
``(protocol, k, n)`` point, yet a classical engine advances one trajectory at
a time.  This module simulates the *fleet*: ``R`` independent replicates of
one compiled protocol share a ``(R × n)`` state matrix and advance together
through the position kernel of :mod:`repro.simulation.vector_kernel`, with

* **per-row RNG streams** — row ``r`` draws from its own
  ``numpy.random.Generator``, derived from the row's seed exactly the way
  :class:`~repro.simulation.batch_engine.BatchConfigurationSimulation`
  derives its stream, so every row is *bit-identical* to the looped batch
  engine under the same seed (``tests/simulation/test_vector_engine`` pins
  this, and the replicate-group routing in :mod:`repro.api.executor` relies
  on it for record-identical sweep results);
* **booking in the kernel** — each row's counts, changed interactions and
  (for Circles) ket exchanges are booked by the kernel's worker threads, so
  the group hands the kernel one call per check window and reads the
  booked counts at each check;
* **per-row incremental quiescence** — silence checks are answered for all
  active rows at once by a
  :class:`~repro.simulation.convergence.RowwiseActivePairTracker`;
* **row retirement** — rows whose criterion holds leave the active set at
  their check boundary, so late stragglers don't drag the whole matrix.

Two entry points:

* :class:`VectorReplicateSimulation` — the registered ``"vector"`` engine.
  A single replicate *is* a batch run, so the class inherits the batch
  engine wholesale (``R = 1`` degenerate case) and thereby every registry
  suite (conformance matrix, exact-golden agreement) by registration alone.
* :meth:`VectorReplicateSimulation.replicate_group` — the many-replicate
  driver, returning a :class:`ReplicateGroup` whose :meth:`ReplicateGroup.run`
  mirrors the shared engine run loop row-wise (same check schedule, same
  criterion semantics, checks consume no randomness) and reports one
  :class:`ReplicateOutcome` per row.  Without numpy (or past the compile
  cap, or below the kernel's population gate) the group falls back to
  looping batch engines — trivially bit-identical, just not vectorized.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Hashable, Iterable, Sequence
from typing import Generic, TypeVar

from repro.core.circles import CirclesProtocol
from repro.protocols.base import PopulationProtocol
from repro.simulation.base import SimulationEngine, default_check_interval
from repro.simulation.batch_engine import BatchConfigurationSimulation
from repro.simulation.convergence import (
    ConvergenceCriterion,
    RowwiseActivePairTracker,
    SilentConfiguration,
)
from repro.simulation.observers import KetExchangeObserver, ket_exchange_mask
from repro.simulation.population import initial_configuration
from repro.utils.multiset import Multiset
from repro.utils.rng import make_rng

try:  # numpy powers the kernel path; the fallback loops batch engines.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    _np = None

State = TypeVar("State", bound=Hashable)


@dataclasses.dataclass(frozen=True)
class ReplicateOutcome(Generic[State]):
    """One replicate row's result, in the vocabulary of a serial run."""

    #: Whether the row's criterion held at some check boundary.
    converged: bool
    #: Interactions simulated when the row retired (or the full budget).
    steps: int
    #: Interactions that changed at least one agent's state.
    interactions_changed: int
    #: Ket exchanges counted along the row (None unless the protocol is Circles).
    ket_exchanges: int | None
    #: The row's final configuration.
    configuration: Multiset[State]


class VectorReplicateSimulation(BatchConfigurationSimulation[State], Generic[State]):
    """The registered ``"vector"`` engine: batch semantics, replicate driver.

    Constructed directly it *is* a batch run — the ``R = 1`` degenerate case,
    which keeps the whole registry test surface (conformance, exact-golden
    agreement, quiescence soundness) meaningful for the vector engine by
    registration alone.  The many-replicate form lives behind
    :meth:`replicate_group`.
    """

    engine_name = "vector"

    @classmethod
    def replicate_group(
        cls,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seeds: Sequence[object],
    ) -> ReplicateGroup[State]:
        """``len(seeds)`` replicates of one initial configuration, in lockstep."""
        return ReplicateGroup(protocol, initial, seeds)

    @classmethod
    def replicate_group_from_colors(
        cls,
        protocol: PopulationProtocol[State],
        colors: Iterable[int],
        seeds: Sequence[object],
    ) -> ReplicateGroup[State]:
        """Like :meth:`replicate_group`, starting from input colors."""
        return cls.replicate_group(protocol, initial_configuration(protocol, colors), seeds)


class ReplicateGroup(Generic[State]):
    """``R`` replicates advanced in lockstep, each bit-identical to a batch run.

    Every row starts from the same initial configuration and owns one seed;
    :meth:`run` mirrors :meth:`SimulationEngine.run` row by row — the same
    argument validation, the same check schedule (an initial check before any
    interaction, then every ``check_interval`` interactions), the same
    criterion semantics — and criterion checks consume no randomness, so a
    row's trajectory and retirement step match the serial batch engine's
    exactly.  Circles groups count every row's ket exchanges, as a serial
    Circles run does.
    """

    def __init__(
        self,
        protocol: PopulationProtocol[State],
        initial: Iterable[State] | Multiset[State],
        seeds: Sequence[object],
    ) -> None:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("a replicate group needs at least one seed")
        configuration = initial if isinstance(initial, Multiset) else Multiset(initial)
        # One probe row decides representation exactly like the batch engine
        # would (validation, compilation, the numpy population gate); on the
        # fallback path it is kept as the first row.
        probe: BatchConfigurationSimulation[State] = BatchConfigurationSimulation(
            protocol, configuration, seed=seeds[0]
        )
        self.protocol = protocol
        self.num_agents = probe.num_agents
        self.num_rows = len(seeds)
        self._compiled = probe._compiled
        count_ket = isinstance(protocol, CirclesProtocol)
        self._outcomes: list[ReplicateOutcome[State]] | None = None
        if probe._kernel is None:
            rows = [probe]
            rows.extend(
                BatchConfigurationSimulation(protocol, configuration, seed=seed)
                for seed in seeds[1:]
            )
            self._rows: list[BatchConfigurationSimulation[State]] | None = rows
            self._observers: list[KetExchangeObserver] | None = None
            if count_ket:
                self._observers = [KetExchangeObserver() for _ in rows]
                for row, observer in zip(rows, self._observers):
                    row.add_observer(observer)
            self._kernel = None
        else:
            from repro.simulation.vector_kernel import PairCodeKernel

            self._rows = None
            self._observers = None
            compiled_protocol = probe._compiled
            table_np, _, _ = compiled_protocol.numpy_tables()
            # Per-row generators derived exactly like the batch engine's:
            # seed -> random.Random -> getrandbits(63) -> default_rng.
            generators = [
                _np.random.default_rng(make_rng(seed).getrandbits(63)) for seed in seeds
            ]
            self._kernel = PairCodeKernel(
                table_np,
                compiled_protocol.num_states,
                self.num_agents,
                generators,
                probe._counts,
                tally=ket_exchange_mask(compiled_protocol) if count_ket else None,
            )
            self._row_steps = _np.zeros(self.num_rows, dtype=_np.int64)

    def run(
        self,
        max_steps: int,
        criterion: ConvergenceCriterion[State] | None = None,
        check_interval: int | None = None,
    ) -> list[ReplicateOutcome[State]]:
        """Run every row until its criterion holds or the budget elapses.

        Returns one :class:`ReplicateOutcome` per row, in seed order.  A
        group can only run once — the rows' generator streams are stateful —
        and the kernel's worker threads stop when the run ends.
        """
        if self._outcomes is not None:
            raise RuntimeError("a replicate group can only run once")
        SimulationEngine._validate_run_arguments(max_steps, check_interval)
        if self._rows is not None:
            outcomes = []
            for j, row in enumerate(self._rows):
                converged = row.run(max_steps, criterion=criterion, check_interval=check_interval)
                outcomes.append(
                    ReplicateOutcome(
                        converged=converged,
                        steps=row.steps_taken,
                        interactions_changed=row.interactions_changed,
                        ket_exchanges=self._observers[j].exchanges if self._observers else None,
                        configuration=row.configuration(),
                    )
                )
            self._outcomes = outcomes
            return outcomes
        try:
            self._run_kernel(max_steps, criterion, check_interval)
        finally:
            self._kernel.close()
        return self._outcomes

    def _run_kernel(
        self,
        max_steps: int,
        criterion: ConvergenceCriterion[State] | None,
        check_interval: int | None,
    ) -> None:
        converged = [False] * self.num_rows
        if criterion is None:
            self._kernel.advance(range(self.num_rows), max_steps)
            self._row_steps[:] = max_steps
            self._collect(converged)
            return
        interval = (
            check_interval if check_interval is not None else default_check_interval(self.num_agents)
        )
        tracker = (
            RowwiseActivePairTracker(self._compiled, self.num_rows)
            if isinstance(criterion, SilentConfiguration)
            else None
        )
        active = list(range(self.num_rows))
        active = self._retire(active, converged, criterion, tracker)
        executed = 0
        while executed < max_steps and active:
            window = min(interval, max_steps - executed)
            self._kernel.advance(active, window)
            executed += window
            self._row_steps[active] = executed
            active = self._retire(active, converged, criterion, tracker)
        self._collect(converged)

    def _retire(self, active, converged, criterion, tracker) -> list[int]:
        """Check every active row; mark and drop the rows whose criterion holds."""
        counts = self._kernel.counts[active]
        if tracker is not None:
            verdicts = tracker.silent_rows(active, counts)
        else:
            verdicts = criterion.is_converged_rows(self.protocol, self._compiled, counts)
        still_active = []
        for row, verdict in zip(active, verdicts):
            if verdict:
                converged[row] = True
            else:
                still_active.append(row)
        return still_active

    def _collect(self, converged: list[bool]) -> None:
        kernel = self._kernel
        outcomes = []
        for row in range(self.num_rows):
            counts = kernel.counts[row]
            outcomes.append(
                ReplicateOutcome(
                    converged=converged[row],
                    steps=int(self._row_steps[row]),
                    interactions_changed=int(kernel.changed[row]),
                    ket_exchanges=None if kernel.tallies is None else int(kernel.tallies[row]),
                    configuration=self._compiled.counts_to_multiset(counts.tolist()),
                )
            )
        self._outcomes = outcomes

