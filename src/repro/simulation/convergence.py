"""Convergence and stabilization criteria.

A population-protocol execution never "halts": agents keep interacting
forever.  What the correctness definition requires is that the execution
*stabilizes* — from some point on every agent outputs the correct answer,
forever.  A finite simulation therefore needs a checkable criterion deciding
when to stop.  Three criteria are provided:

* :class:`OutputConsensus` — every agent currently reports the same color
  (optionally a specific color).  Cheap, but a protocol can agree temporarily
  and later change its mind; it is the right criterion for protocols without
  a stronger structural notion of stability.
* :class:`SilentConfiguration` — no interaction between any two present
  states changes anything.  A silent configuration can never change again, so
  this is a *sound* stopping rule for any protocol.  Checked from scratch it
  costs ``O(d²)`` transition evaluations over the distinct states; on the
  compiled engines the check is instead answered **incrementally** by an
  :class:`ActivePairTracker` — the count of δ-active ordered pairs among
  present states, maintained in ``O(affected states)`` per applied delta from
  the compiled ``changed`` bitmask, so each periodic check is ``O(1)``.
* :class:`StableCircles` — the Circles-specific criterion from the paper's
  proof: no ket exchange is possible (Theorem 3.4's stabilization) and all
  agents agree on an output that matches a diagonal agent's color
  (Theorem 3.7's conclusion).  Unlike silence, Circles configurations can be
  stable while output-copying interactions still formally "change" the state
  of out-of-date agents, so this criterion converges earlier than silence
  while still being permanent.

Every criterion has one judge, :meth:`ConvergenceCriterion.is_converged_configuration`,
on the multiset of agent states; the agent engine passes its population's
multiset.  Configuration-level consumers judge a count vector over state
codes (:meth:`ConvergenceCriterion.is_converged_counts`), which by default
decodes the vector and judges the multiset; criteria may override it with a
fast path that reads the codes' tables and decodes nothing.

The row-wise judges of the vector replicate engine
(:meth:`ConvergenceCriterion.is_converged_rows` overrides and
:class:`RowwiseActivePairTracker`) work on numpy count matrices; they import
numpy on first use (:func:`~repro.utils.optional.numpy_module`), so a
process that never reaches the kernel never loads it.
"""

from __future__ import annotations

import abc
from collections.abc import Hashable
from typing import Generic, TypeVar

from repro.compile import CompiledProtocol, StateCodes
from repro.core.circles import CirclesProtocol
from repro.core.invariants import diagonal_colors, is_stable_configuration, outputs_agree
from repro.core.state import CirclesState
from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset
from repro.utils.optional import numpy_module

State = TypeVar("State", bound=Hashable)


class ConvergenceCriterion(abc.ABC, Generic[State]):
    """Decides whether a configuration counts as converged."""

    name: str = "criterion"

    #: Whether the verdict is constant on color-symmetry orbits — i.e. the
    #: criterion cannot distinguish configurations related by a certified
    #: color permutation (:mod:`repro.verify.symmetry`).  The quotiented
    #: exact chain (:class:`repro.exact.quotient.QuotientChain`) evaluates
    #: criteria on orbit representatives, which is only sound under this
    #: flag; the exact engine falls back to the unquotiented chain when a
    #: criterion clears it (e.g. ``OutputConsensus(target=...)``, which names
    #: a specific color).
    symmetry_invariant: bool = True

    @abc.abstractmethod
    def is_converged_configuration(
        self, protocol: PopulationProtocol[State], configuration: Multiset[State]
    ) -> bool:
        """Whether ``configuration`` (the multiset of agent states) has converged."""

    def is_converged_counts(
        self, protocol: PopulationProtocol[State], compiled: StateCodes[State], counts
    ) -> bool:
        """The verdict on a count vector over state codes.

        ``counts`` is index-aligned with ``compiled.states`` (the compiled
        tables, or a lazy interner past the compile cap).  The default judges
        the decoded configuration; overrides are fast paths and must agree
        with :meth:`is_converged_configuration` on it.
        """
        return self.is_converged_configuration(protocol, compiled.counts_to_multiset(counts))

    def is_converged_rows(self, protocol: PopulationProtocol[State], compiled, counts):
        """One verdict per row of an ``(R × d)`` numpy count matrix.

        Returns a sequence of booleans aligned with the rows; the default
        judges each row through :meth:`is_converged_counts`.
        """
        return [bool(self.is_converged_counts(protocol, compiled, row)) for row in counts]


class OutputConsensus(ConvergenceCriterion[State]):
    """All agents currently output the same color (optionally a target color)."""

    name = "output-consensus"

    def __init__(self, target: int | None = None) -> None:
        self.target = target
        # Naming a color breaks orbit-invariance: σ can map a target-colored
        # consensus to a consensus on another color.
        self.symmetry_invariant = target is None

    def is_converged_configuration(
        self, protocol: PopulationProtocol[State], configuration: Multiset[State]
    ) -> bool:
        outputs = {protocol.output(state) for state in configuration.support()}
        if len(outputs) != 1:
            return False
        if self.target is None:
            return True
        return next(iter(outputs)) == self.target

    def is_converged_counts(
        self, protocol: PopulationProtocol[State], compiled: StateCodes[State], counts
    ) -> bool:
        first: int | None = None
        outputs = compiled.outputs
        for code, count in enumerate(counts):
            if count:
                color = outputs[code]
                if first is None:
                    first = color
                elif color != first:
                    return False
        if first is None:
            return False
        return True if self.target is None else first == self.target


class SilentConfiguration(ConvergenceCriterion[State]):
    """No interaction between any two present states changes anything.

    On a compiled engine the check is answered by the engine's
    :class:`ActivePairTracker` in ``O(1)`` per check.  Past the compile cap
    engines judge the decoded configuration through
    :meth:`is_converged_configuration`, the classic from-scratch ``O(d²)``
    rescan through ``protocol.transition`` (also the baseline the
    incremental-detection benchmark measures against).
    """

    name = "silent"

    def is_converged_configuration(
        self, protocol: PopulationProtocol[State], configuration: Multiset[State]
    ) -> bool:
        distinct = sorted(configuration.support(), key=repr)
        for index, first in enumerate(distinct):
            for second in distinct[index:]:
                if first == second and configuration.count(first) < 2:
                    continue
                if protocol.transition(first, second).as_pair() != (first, second):
                    return False
                if protocol.transition(second, first).as_pair() != (second, first):
                    return False
        return True


class StableCircles(ConvergenceCriterion[CirclesState]):
    """The paper's stabilization + output-agreement criterion for Circles.

    Converged means: (1) no pair of present bra-kets would exchange kets
    (Theorem 3.4 stability), and (2) every agent outputs the same color, which
    is the color of a present diagonal bra-ket (the configuration Theorem 3.7
    proves is reached and never left).
    """

    name = "stable-circles"

    def is_converged_configuration(
        self, protocol: PopulationProtocol[CirclesState], configuration: Multiset[CirclesState]
    ) -> bool:
        return self._is_converged_support(protocol, list(configuration.support()))

    def is_converged_counts(
        self,
        protocol: PopulationProtocol[CirclesState],
        compiled: StateCodes[CirclesState],
        counts,
    ) -> bool:
        """The criterion from the present codes alone, through the compiled
        :func:`stable_circles_tables` (no state is decoded).

        Lazily interned codes have no tables; they are judged decoded.
        """
        if not isinstance(compiled, CompiledProtocol):
            return super().is_converged_counts(protocol, compiled, counts)
        _require_circles(protocol)
        unstable, outputs, diagonal = stable_circles_tables(compiled)
        present = [code for code, count in enumerate(counts) if count]
        if not present:
            return False
        color = outputs[present[0]]
        if any(outputs[code] != color for code in present):
            return False
        if not any(diagonal[code] == color for code in present):
            return False
        mask = 0
        for code in present:
            mask |= 1 << code
        return not any(unstable[code] & mask for code in present)

    def is_converged_rows(self, protocol, compiled, counts):
        _require_circles(protocol)
        unstable, outputs, diagonal = compiled.derived("stable-circles-numpy", _numpy_circles_tables)
        np = numpy_module()
        present = counts > 0
        color = np.where(present, outputs, np.iinfo(np.int64).max).min(axis=1)
        agreed = present.any(axis=1) & (np.where(present, outputs, -1).max(axis=1) == color)
        on_diagonal = (present & (diagonal == color[:, None])).any(axis=1)
        exchanging = ((present.astype(np.int32) @ unstable > 0) & present).any(axis=1)
        return agreed & on_diagonal & ~exchanging

    def _is_converged_support(
        self, protocol: PopulationProtocol[CirclesState], support: list[CirclesState]
    ) -> bool:
        """The criterion on the set of present states (counts are irrelevant)."""
        _require_circles(protocol)
        if not support:
            return False
        if not is_stable_configuration(protocol, support):
            return False
        agreed = outputs_agree(support)
        return agreed is not None and agreed in diagonal_colors(support)


def _require_circles(protocol) -> None:
    if not isinstance(protocol, CirclesProtocol):
        raise TypeError("StableCircles only applies to CirclesProtocol runs")


# -- compiled Circles tables ------------------------------------------------------


def stable_circles_tables(compiled) -> tuple[list[int], list[int], list[int]]:
    """``(unstable, outputs, diagonal)`` per code of a compiled Circles protocol.

    ``unstable[p]`` is a bitmask over codes: bit ``q`` is set when the two
    bra-kets would exchange kets, judged by ``protocol.should_exchange`` in
    the same ``first ≤ second`` orientation as
    :func:`~repro.core.invariants.is_stable_configuration` (so the mask is
    symmetric, and bit ``p`` of ``unstable[p]`` is the bra-ket against itself).
    ``outputs[p]`` is the state's ``out`` and ``diagonal[p]`` its bra when
    the bra-ket is diagonal, else -1.  Built once per compiled protocol.
    """
    return compiled.derived("stable-circles", _stable_circles_tables)


def _stable_circles_tables(compiled) -> tuple[list[int], list[int], list[int]]:
    protocol = compiled.protocol
    brakets = [state.braket for state in compiled.states]
    exchanges: dict = {}
    unstable = []
    for first in brakets:
        mask = 0
        for code, second in enumerate(brakets):
            pair = (first, second) if first <= second else (second, first)
            verdict = exchanges.get(pair)
            if verdict is None:
                verdict = exchanges[pair] = protocol.should_exchange(*pair)
            if verdict:
                mask |= 1 << code
        unstable.append(mask)
    outputs = [state.out for state in compiled.states]
    diagonal = [state.bra if state.is_diagonal() else -1 for state in compiled.states]
    return unstable, outputs, diagonal


def _numpy_circles_tables(compiled):
    unstable, outputs, diagonal = stable_circles_tables(compiled)
    d = compiled.num_states
    np = numpy_module()
    matrix = np.array(
        [[(row >> code) & 1 for code in range(d)] for row in unstable], dtype=np.int32
    )
    return matrix, np.array(outputs, dtype=np.int64), np.array(diagonal, dtype=np.int64)


class ActivePairTracker:
    """Incremental quiescence detection over a compiled count vector.

    Silence means no ordered pair of *present* states has the compiled
    ``changed`` bit set (counting a state against itself only when it has
    multiplicity ≥ 2).  The tracker maintains exactly that quantity —
    ``active_pairs`` — as counts change:

    * each state code is classified as absent (count 0), singleton (1) or
      plural (≥ 2);
    * when a code enters or leaves the support, the tracker adjusts
      ``active_pairs`` by scanning that code's row and column of the
      ``changed`` bitmask against the current support — ``O(present
      states)``, and support membership changes are rare on near-quiescent
      runs;
    * singleton/plural flips touch only the code's own diagonal bit,
      ``O(1)``.

    Engines call :meth:`update` (or :meth:`update_codes`) with the codes
    whose counts they just changed; a delta affects at most four codes, so
    maintenance is ``O(affected states)`` per delta and
    :meth:`is_silent` is ``O(1)`` — replacing the periodic ``O(d²)``
    from-scratch rescan of :class:`SilentConfiguration`.
    """

    __slots__ = ("_counts", "_changed", "_d", "_classes", "_support", "active_pairs")

    def __init__(self, compiled, counts) -> None:
        self._counts = counts
        self._changed = compiled.changed
        self._d = compiled.num_states
        self._classes = bytearray(self._d)
        self._support: set[int] = set()
        self.active_pairs = 0
        for code, count in enumerate(counts):
            if count:
                self.update(code)

    def classes_view(self) -> bytearray:
        """The per-code class bytes (0 absent / 1 singleton / 2 plural).

        Exposed so vectorized callers (the position-kernel path) can diff the
        classification against the live counts and call :meth:`update` only
        for codes whose class actually moved.  Treat as read-only.
        """
        return self._classes

    def update_codes(self, codes) -> None:
        """Reclassify every code in ``codes`` against the live count vector."""
        for code in codes:
            self.update(code)

    def update(self, code: int) -> None:
        """Reclassify one code after its count changed (idempotent)."""
        count = self._counts[code]
        new = 2 if count >= 2 else (1 if count == 1 else 0)
        old = self._classes[code]
        if new == old:
            return
        changed = self._changed
        d = self._d
        base = code * d
        if old == 0:
            for other in self._support:
                if changed[base + other]:
                    self.active_pairs += 1
                if changed[other * d + code]:
                    self.active_pairs += 1
            self._support.add(code)
        elif new == 0:
            self._support.discard(code)
            for other in self._support:
                if changed[base + other]:
                    self.active_pairs -= 1
                if changed[other * d + code]:
                    self.active_pairs -= 1
        if changed[base + code]:
            if new == 2 and old < 2:
                self.active_pairs += 1
            elif old == 2 and new < 2:
                self.active_pairs -= 1
        self._classes[code] = new

    def is_silent(self) -> bool:
        """Whether the tracked configuration is silent (no active pair)."""
        return self.active_pairs == 0


class RowwiseActivePairTracker:
    """Row-wise silence verdicts over an ``(R × d)`` replicate count matrix.

    The vector replicate engine checks all active rows at once, so instead of
    one :class:`ActivePairTracker` per row it keeps the compiled ``changed``
    bitmask as a symmetrized ``(d × d)`` matrix and answers every row's
    silence question with one matrix product: row ``r`` is active iff some
    present state can reach another present state through an active ordered
    pair (either role — hence the symmetrization), or some plural state has
    an active diagonal pair.  That is exactly
    :meth:`ActivePairTracker.is_silent` on the row's counts.

    The tracker is incremental at check granularity: it caches each row's
    class vector (``min(count, 2)`` per code) and recomputes the verdict only
    for rows whose classes moved since the last check — on a near-quiescent
    run most rows idle at a fixed support and cost one vector comparison.
    """

    __slots__ = ("_offdiag", "_diag", "_classes", "_silent")

    def __init__(self, compiled, num_rows: int) -> None:
        np = numpy_module()
        if np is None:  # pragma: no cover - the vector kernel path needs numpy anyway
            raise RuntimeError("RowwiseActivePairTracker requires numpy")
        d = compiled.num_states
        changed = np.frombuffer(compiled.changed, dtype=np.uint8).reshape(d, d) != 0
        self._diag = changed.diagonal().copy()
        offdiag = changed.copy()
        np.fill_diagonal(offdiag, False)
        self._offdiag = (offdiag | offdiag.T).astype(np.int32)
        self._classes = np.full((num_rows, d), -1, dtype=np.int8)
        self._silent = np.zeros(num_rows, dtype=bool)

    def silent_rows(self, rows, counts):
        """Silence verdicts for ``rows``, given their current count matrix.

        ``counts`` is the ``(len(rows), d)`` count matrix of exactly those
        rows; the returned boolean vector is aligned with ``rows``.
        """
        np = numpy_module()
        classes = np.minimum(counts, 2).astype(np.int8)
        rows = np.asarray(rows)
        stale = np.nonzero((classes != self._classes[rows]).any(axis=1))[0]
        if stale.size:
            sub = classes[stale]
            present = sub > 0
            hits = present.astype(np.int32) @ self._offdiag
            active = ((hits > 0) & present).any(axis=1)
            active |= ((sub == 2) & self._diag).any(axis=1)
            self._silent[rows[stale]] = ~active
            self._classes[rows[stale]] = sub
        return self._silent[rows]
