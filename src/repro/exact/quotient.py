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
discovered configuration is canonicalized to the smallest count tuple of its
orbit, and transition weights (ordered agent pairs) are summed per orbit.  Each stabilizer element
acts as one permutation of the compiled state codes, computed once per chain
and applied to count tuples — no state is decoded while folding.  The group
it folds by is the **stabilizer** of the initial configuration — the subgroup whose elements
fix the input multiset — because that is exactly the subgroup under which
the trajectory measure from the input is invariant: every orbit member is
equally probable at every time, which is what makes the results *liftable*
back to unquotiented semantics:

* expected interactions to absorption (and to any symmetry-invariant
  criterion first holding) are identical to the unquotiented chain's, by
  lumping alone;
* a quotient closed class stands for an orbit of unquotiented closed
  classes, each absorbed into with probability ``p̂ / r`` (``r`` classes in
  the orbit) — :meth:`lift_class_counts` reconstructs them explicitly;
* the exact distribution over *source* configurations after ``t``
  interactions puts mass ``m/|orbit|`` on every member of an orbit carrying
  lumped mass ``m`` (:meth:`output_distribution_after` applies this lift).

With a trivial stabilizer (the common unique-majority case where no color
counts tie) there is nothing to canonicalize and the chain is *bit-identical*
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

from collections.abc import Callable, Hashable, Iterable
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Generic, TypeVar

from repro.exact.chain import ConfigurationChain, Counts

if TYPE_CHECKING:  # pragma: no cover - import cycle avoided at runtime
    from repro.verify.symmetry import SymmetryCertificate

State = TypeVar("State", bound=Hashable)


class QuotientChain(ConfigurationChain[State], Generic[State]):
    """The configuration chain folded by the input's color-symmetry stabilizer.

    A drop-in :class:`~repro.exact.chain.ConfigurationChain`: ``weights`` /
    ``change_weights`` / ``counts`` (and the probability views ``rows`` /
    ``change_probability``) describe the lumped chain over orbit
    representatives, and every derived analysis
    (:func:`repro.exact.absorption.analyze_absorption`,
    :func:`repro.exact.absorption.hitting_analysis`) runs on it unchanged.
    The lifting surface (:attr:`num_source_configurations`,
    :meth:`source_count`, :meth:`lift_class_counts`,
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

    def _prepare(self, initial: Counts) -> None:
        """Derive the stabilizer of the input before the BFS starts."""
        self.symmetry: SymmetryCertificate | None = None
        #: Nonidentity stabilizer elements, each mapping a count tuple to its image.
        self._stabilizer: list[Callable[[Counts], Counts]] = []
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
        identity = tuple(range(len(initial)))
        gathers: set[tuple[int, ...]] = set()
        for action in actions.actions:
            # σ moves the agents of code c to σ(c), so the image tuple reads
            # position σ(c) from position c: a gather by the inverse map.
            inverse = [0] * len(action.state_map)
            for code, image in enumerate(action.state_map):
                inverse[image] = code
            gather = tuple(inverse)
            if gather == identity or gather in gathers:
                continue
            apply = itemgetter(*gather)
            if apply(initial) == initial:
                gathers.add(gather)
                self._stabilizer.append(apply)

    @property
    def stabilizer_order(self) -> int:
        """Order of the folded subgroup (identity included)."""
        return len(self._stabilizer) + 1

    @property
    def is_quotiented(self) -> bool:
        """Whether a nontrivial group is actually being folded."""
        return bool(self._stabilizer)

    # -- canonicalization ------------------------------------------------------

    def _canonical(self) -> Callable[[Counts], Counts] | None:
        stabilizer = self._stabilizer
        if not stabilizer:
            return super()._canonical()

        def orbit_minimum(counts: Counts) -> Counts:
            best = counts
            for apply in stabilizer:
                image = apply(counts)
                if image < best:
                    best = image
            return best

        return orbit_minimum

    # -- orbits ----------------------------------------------------------------

    def orbit_keys(self, index: int) -> set[Counts]:
        """Every source configuration in the orbit of a representative."""
        counts = self.counts[index]
        return {counts, *(apply(counts) for apply in self._stabilizer)}

    @cached_property
    def _orbit_sizes(self) -> list[int]:
        """index -> orbit size, by orbit–stabilizer instead of building orbits.

        An orbit has the group order over the number of elements fixing its
        representative (the stabilizer's gathers are distinct permutations),
        so each size costs one gather and one comparison per element.
        """
        stabilizer = self._stabilizer
        order = len(stabilizer) + 1
        return [
            order // (1 + sum(1 for apply in stabilizer if apply(counts) == counts))
            for counts in self.counts
        ]

    def orbit_size(self, index: int) -> int:
        """How many source configurations a representative stands for."""
        return self._orbit_sizes[index]

    # -- lifting ---------------------------------------------------------------

    @property
    def num_source_configurations(self) -> int:
        return sum(self._orbit_sizes)

    def source_count(self, indices: Iterable[int]) -> int:
        sizes = self._orbit_sizes
        return sum(sizes[index] for index in indices)

    def lift_class_counts(self, members: list[int]) -> list[list[Counts]]:
        """Expand one quotient closed class into the source classes it covers.

        The preimage of a quotient closed class is a union of source closed
        classes that the stabilizer ``G`` permutes transitively, so it is
        ``G·C₀`` for any one of them.  ``C₀`` is taken to be the class of the
        smallest preimage member — the smallest representative, since a
        representative is its orbit's minimum — rebuilt by one BFS under the
        *source* transition relation (:meth:`successors`; a closed class is
        strongly connected and closed, so the walk is confined).  The other
        classes are its distinct images, one gather per group element; two
        images are equal or disjoint, so an image is new exactly when no
        class found so far holds the image of the seed.  Classes come back
        sorted by their minimal member's rank, members ranked within each —
        deterministic, so golden files regenerate identically.  With a
        trivial stabilizer every class is its own preimage, so the base
        chain's lift applies as is.

        Raises:
            ValueError: when ``members`` is not one closed class: the walk
                leaves the preimage, or the images do not cover it.
        """
        stabilizer = self._stabilizer
        if not stabilizer:
            return super().lift_class_counts(members)
        canonical = self._canonical()
        assert canonical is not None
        representatives = {self.counts[member] for member in members}
        seed = min(representatives)
        component = {seed}
        frontier = [seed]
        while frontier:
            for successor in self.successors(frontier.pop()):
                if successor not in component:
                    if canonical(successor) not in representatives:
                        raise ValueError(
                            "lift_class_counts was given indices that do not form a closed "
                            "class: a reachable configuration falls outside the preimage"
                        )
                    component.add(successor)
                    frontier.append(successor)
        found = [component]
        for apply in stabilizer:
            if not any(apply(seed) in known for known in found):
                found.append(set(map(apply, component)))
        if len(component) * len(found) != self.source_count(members):
            raise ValueError(
                "lift_class_counts was given indices that do not form a closed class: "
                "the images of one source class do not cover the preimage"
            )
        classes = [sorted(conf_class, key=self.rank) for conf_class in found]
        classes.sort(key=lambda conf_class: self.rank(conf_class[0]))
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
        projected: dict[tuple[tuple[int, int], ...], Fraction | float] = {}
        for index, mass in self.distribution_after(interactions).items():
            members = sorted(self.orbit_keys(index))
            share = mass / len(members)
            for member in members:
                histogram = self.output_histogram(member)
                if histogram in projected:
                    projected[histogram] += share
                else:
                    projected[histogram] = share
        return projected
