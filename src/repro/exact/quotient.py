"""Symmetry-quotiented exact analysis: the configuration chain modulo color symmetry.

The exact engine's reach is capped by configuration-space blowup.  But the
circles-family protocols are *equivariant* under the color permutations
:func:`repro.verify.symmetry.color_symmetries` certifies: a permutation
``π`` of the input colors comes with a state bijection ``σ`` satisfying
``δ(σp, σq) = (σa, σb)`` whenever ``δ(p, q) = (a, b)``.  Lifting ``σ`` to
configurations gives an automorphism of the configuration chain —
``P(C → D) = P(σC → σD)`` — so the orbit partition is a *strong lumping* of
the DTMC and the lumped (quotient) chain is again Markov, with

    P([C] → [D]) = Σ_{D' ∈ [D]} P(C → D')

independent of the representative ``C``.

:class:`QuotientChain` materializes that lumped chain: during the BFS every
discovered configuration is canonicalized to the minimal key of its orbit,
and transition mass is aggregated per orbit.  The group it folds by is the
**stabilizer** of the initial configuration — the subgroup whose elements
fix the input multiset — because that is exactly the subgroup under which
the trajectory measure from the input is invariant: every orbit member is
equally probable at every time, which is what makes the results *liftable*
back to unquotiented semantics:

* expected interactions to absorption (and to any symmetry-invariant
  criterion first holding) are identical to the unquotiented chain's, by
  lumping alone;
* a quotient closed class stands for an orbit of unquotiented closed
  classes, each absorbed into with probability ``p̂ / r`` (``r`` classes in
  the orbit) — :meth:`lift_classes` reconstructs them explicitly;
* the exact distribution over *source* configurations after ``t``
  interactions puts mass ``m/|orbit|`` on every member of an orbit carrying
  lumped mass ``m`` (:meth:`output_distribution_after` applies this lift).

With a trivial stabilizer (the common unique-majority case where no color
counts tie) canonicalization is the identity and the chain is *bit-identical*
to :class:`~repro.exact.chain.ConfigurationChain` — same BFS order, same
rows — so the quotient path is safe to leave on by default
(``ExactMarkovEngine(quotient=True)``).  The win appears exactly where exact
analysis is otherwise most starved: tied inputs (near-tie and
adversarial-two-block workloads), where the stabilizer is nontrivial and the
state space shrinks by up to its order (``k!`` for the fully symmetric
baselines, the cyclic ``k`` for ordered Circles).

Caveat: hitting analyses through a quotient chain are exact only for
predicates constant on orbits.  Every registry criterion is
(:class:`~repro.simulation.convergence.SilentConfiguration` and
:class:`~repro.simulation.convergence.StableCircles` are structural;
:class:`~repro.simulation.convergence.OutputConsensus` without a target
color is color-blind); a criterion that names a specific color sets
``symmetry_invariant = False`` and the engine falls back to the
unquotiented chain for that run.

The symmetry search itself is cached per ``compile_signature()``
(:func:`repro.verify.symmetry.symmetry_actions`), so sweeps and test
matrices pay for it once per protocol.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from typing import TYPE_CHECKING, Generic, TypeVar

from repro.compile import CompiledProtocol
from repro.exact.chain import (
    ConfigKey,
    ConfigurationChain,
    configuration_key,
    key_to_multiset,
)
from repro.protocols.base import PopulationProtocol
from repro.utils.multiset import Multiset

if TYPE_CHECKING:  # pragma: no cover - import cycle avoided at runtime
    from repro.verify.symmetry import SymmetryCertificate

State = TypeVar("State", bound=Hashable)

#: A deterministic total order on configuration keys: the sorted
#: ``(repr(state), count)`` tuple.  ``repr`` ordering is the convention every
#: exact consumer already uses (:func:`repro.exact.chain.expand_multiset`).
KeyRank = tuple[tuple[str, int], ...]


def key_rank(key: ConfigKey) -> KeyRank:
    """The canonical sort rank of a configuration key."""
    return tuple(sorted((repr(state), count) for state, count in key))


def successor_configurations(
    protocol: PopulationProtocol[State],
    configuration: Multiset[State],
    compiled: CompiledProtocol[State] | None = None,
) -> set[ConfigKey]:
    """All configurations reachable in exactly one interaction (excluding self-loops).

    The source transition relation :meth:`QuotientChain.lift_classes` walks.
    When ``compiled`` is given (it must cover every state in the
    configuration), transitions are flat-table lookups instead of Python
    dispatch.
    """
    successors: set[ConfigKey] = set()
    support = list(configuration.support())
    for initiator in support:
        for responder in support:
            if initiator == responder and configuration.count(initiator) < 2:
                continue
            if compiled is not None:
                a, b, changed = compiled.transition_codes(
                    compiled.encode(initiator), compiled.encode(responder)
                )
                if not changed:
                    continue
                new_initiator, new_responder = compiled.decode(a), compiled.decode(b)
            else:
                result = protocol.transition(initiator, responder)
                if not result.changed:
                    continue
                new_initiator, new_responder = result.initiator, result.responder
            next_config = configuration.copy()
            next_config.remove(initiator)
            next_config.remove(responder)
            next_config.add(new_initiator)
            next_config.add(new_responder)
            successors.add(configuration_key(next_config))
    return successors


class QuotientChain(ConfigurationChain[State], Generic[State]):
    """The configuration chain folded by the input's color-symmetry stabilizer.

    A drop-in :class:`~repro.exact.chain.ConfigurationChain`: ``rows`` /
    ``change_probability`` / ``keys`` describe the lumped chain over orbit
    representatives, and every derived analysis
    (:func:`repro.exact.absorption.analyze_absorption`,
    :func:`repro.exact.absorption.hitting_analysis`) runs on it unchanged.
    The lifting surface (:attr:`num_source_configurations`,
    :meth:`source_count`, :meth:`lift_classes`,
    :meth:`output_distribution_after`) restores unquotiented semantics.

    Extra attributes:
        symmetry: the protocol's full :class:`~repro.verify.symmetry.SymmetryCertificate`
            (``None`` when no compiled table was available to search).
        stabilizer_order: order of the subgroup actually folded (including
            the identity); 1 means the chain is bit-identical to the
            unquotiented one.
    """

    def __init__(
        self,
        *args: object,
        max_symmetry_colors: int | None = None,
        **kwargs: object,
    ) -> None:
        self._max_symmetry_colors = max_symmetry_colors
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]

    # -- group derivation ------------------------------------------------------

    def _prepare(self, configuration: Multiset[State]) -> None:
        """Derive the stabilizer of the input before the BFS starts."""
        self.symmetry: SymmetryCertificate | None = None
        #: Nonidentity stabilizer elements as state -> state maps.
        self._stabilizer: list[dict[State, State]] = []
        self._canonical_cache: dict[ConfigKey, ConfigKey] = {}
        self._orbit_sizes: dict[int, int] = {}
        if self.compiled is None:
            return  # no δ-table to certify symmetries against: trivial group
        # Imported lazily: repro.verify pulls the whole verifier package
        # (which itself imports repro.exact.chain); deferring keeps package
        # import order robust and costs one import per chain construction.
        from repro.verify.symmetry import DEFAULT_MAX_SYMMETRY_COLORS, symmetry_actions

        max_colors = (
            DEFAULT_MAX_SYMMETRY_COLORS
            if self._max_symmetry_colors is None
            else self._max_symmetry_colors
        )
        actions = symmetry_actions(self.compiled, max_colors)
        self.symmetry = actions.certificate
        states = self.compiled.states
        initial_key = configuration_key(configuration)
        for action in actions.actions:
            if action.is_identity:
                continue
            mapping = {
                states[code]: states[image]
                for code, image in enumerate(action.state_map)
            }
            if self._apply(mapping, initial_key) == initial_key:
                self._stabilizer.append(mapping)

    @property
    def stabilizer_order(self) -> int:
        """Order of the folded subgroup (identity included)."""
        return len(self._stabilizer) + 1

    @property
    def is_quotiented(self) -> bool:
        """Whether a nontrivial group is actually being folded."""
        return bool(self._stabilizer)

    # -- canonicalization ------------------------------------------------------

    @staticmethod
    def _apply(mapping: dict[State, State], key: ConfigKey) -> ConfigKey:
        """The image of a configuration key under one state bijection."""
        return frozenset((mapping[state], count) for state, count in key)

    def _canonical(self, key: ConfigKey) -> ConfigKey:
        if not self._stabilizer:
            return key
        cached = self._canonical_cache.get(key)
        if cached is not None:
            return cached
        best = key
        best_rank = key_rank(key)
        for mapping in self._stabilizer:
            image = self._apply(mapping, key)
            rank = key_rank(image)
            if rank < best_rank:
                best, best_rank = image, rank
        self._canonical_cache[key] = best
        return best

    # -- orbits ----------------------------------------------------------------

    def orbit_keys(self, index: int) -> list[ConfigKey]:
        """Every source configuration in the orbit of a representative, ranked."""
        key = self.keys[index]
        members = {key}
        for mapping in self._stabilizer:
            members.add(self._apply(mapping, key))
        return sorted(members, key=key_rank)

    def orbit_size(self, index: int) -> int:
        """How many source configurations a representative stands for."""
        cached = self._orbit_sizes.get(index)
        if cached is None:
            cached = len(self.orbit_keys(index))
            self._orbit_sizes[index] = cached
        return cached

    # -- lifting ---------------------------------------------------------------

    @property
    def num_source_configurations(self) -> int:
        return sum(self.orbit_size(index) for index in range(len(self.keys)))

    def source_count(self, indices: Iterable[int]) -> int:
        return sum(self.orbit_size(index) for index in indices)

    def lift_classes(self, members: list[int]) -> list[list[Multiset[State]]]:
        """Expand one quotient closed class into the source classes it covers.

        The preimage of a quotient closed class is a stabilizer-orbit of
        unquotiented closed classes.  Rather than reasoning group-theoretically
        about how orbits split, the classes are reconstructed directly: the
        source class containing a configuration is its forward-reachable set
        under the *source* transition relation (closed classes are strongly
        connected and closed, so the BFS is confined).  Classes come back
        sorted by their minimal member's rank, members ranked within each —
        deterministic, so golden files regenerate identically.  With a
        trivial stabilizer every class is its own preimage, so the base
        chain's lift applies as is.
        """
        if not self._stabilizer:
            return super().lift_classes(members)
        pending: set[ConfigKey] = set()
        for member in members:
            pending.update(self.orbit_keys(member))
        classes: list[list[Multiset[State]]] = []
        while pending:
            seed = min(pending, key=key_rank)
            component = {seed}
            frontier = [seed]
            while frontier:
                key = frontier.pop()
                successors = successor_configurations(
                    self.protocol, key_to_multiset(key), compiled=self.compiled
                )
                for successor in successors:
                    if successor not in component:
                        component.add(successor)
                        frontier.append(successor)
            missing = component - pending
            if missing:  # pragma: no cover - guards lift misuse on non-closed input
                raise ValueError(
                    "lift_classes was given indices that do not form a closed class: "
                    f"{len(missing)} reachable configurations fall outside the preimage"
                )
            pending -= component
            classes.append(
                [key_to_multiset(key) for key in sorted(component, key=key_rank)]
            )
        classes.sort(key=lambda conf_class: key_rank(configuration_key(conf_class[0])))
        return classes

    def output_distribution_after(
        self, interactions: int
    ) -> dict[tuple[tuple[int, int], ...], Fraction | float]:
        """The exact *source-chain* output-histogram distribution after ``t`` steps.

        The stabilizer preserves the trajectory measure from the input, so
        every member of an orbit carries the same probability at every time:
        lumped mass ``m`` on a representative lifts to ``m/|orbit|`` per
        member.  Exact in ``"exact"`` mode (``Fraction`` division), float64
        otherwise.
        """
        if not self._stabilizer:
            return super().output_distribution_after(interactions)
        output = self.protocol.output
        projected: dict[tuple[tuple[int, int], ...], Fraction | float] = {}
        for index, mass in self.distribution_after(interactions).items():
            members = self.orbit_keys(index)
            share = mass / len(members)
            for member in members:
                counts: dict[int, int] = {}
                for state, count in member:
                    color = output(state)
                    counts[color] = counts.get(color, 0) + count
                histogram = tuple(sorted(counts.items()))
                if histogram in projected:
                    projected[histogram] += share
                else:
                    projected[histogram] = share
        return projected
