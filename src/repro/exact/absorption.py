"""Stable classes, absorption probabilities and exact expected hitting times.

A finite Markov chain enters one of its **closed communicating classes**
(recurrent classes) with probability one and never leaves it.  For a
population protocol under the uniform random scheduler those classes are
exactly the *stable outcomes* of a run: a silent configuration is a singleton
class, and protocols whose stabilized configurations still shuffle internally
(output copying in Circles, swap-only dynamics) form larger classes.  This
module computes, exactly:

* the closed classes of a :class:`~repro.exact.chain.ConfigurationChain`
  (one iterative Tarjan SCC pass over the sparse rows, whose other
  components the absorption solve reuses);
* the **absorption probability** into each class from the initial
  configuration;
* the **expected number of interactions** until absorption, and the expected
  number of *changing* interactions among them;
* expected **hitting times of arbitrary configuration predicates**
  (:func:`hitting_analysis`) — the exact analogue of running a stochastic
  engine until a :class:`~repro.simulation.convergence.ConvergenceCriterion`
  first holds.

Each analysis solves one system, for the expected visits ``π`` to every
transient configuration from the initial one (the block-triangular solve of
:mod:`repro.exact.solve`, on the chain's integer weights), and reads every
quantity off it as a π-weighted sum: ``Σπ`` interactions, ``Σπ·change``
changed interactions, ``Σπ·w(→c)/D`` for the probability of entering class
(or target) ``c``, where ``w`` are the chain's integer weights over its
denominator ``D = n·(n-1)``.  A chain keeps the systems solved on it
(:attr:`~repro.exact.chain.ConfigurationChain.solved_visits`), so a hitting
analysis whose system is the absorption analysis's transient set — a
criterion that holds exactly on the stable classes — pays no second solve.

All quantities come back in the chain's arithmetic.  In ``"exact"`` mode
each sum is taken on integers — visit numerators times weights, gathered
per visit denominator and brought to one denominator by one ``lcm`` — and
becomes one ``Fraction``; structure (which transitions exist) is read off
the weights directly, so no analysis builds the chain's rational rows.  In
``"float"`` mode each term is ``π·(w / D)``, the float64 product the
probability rows would give.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import cast

from repro.exact.chain import ConfigurationChain
from repro.exact.solve import (
    Number,
    solve_transient_systems,
    strongly_connected_components,
)


def communicating_classes(
    rows: Sequence[Mapping[int, object]],
) -> tuple[list[list[int]], list[list[int]]]:
    """One SCC pass split into ``(closed classes, the other components)``.

    Reads only which entries each sparse row has, so the chain's integer
    :attr:`~repro.exact.chain.ConfigurationChain.weights` serve as well as
    probability rows.  A strongly connected component is closed when no
    member has an edge leaving the component.  Closed classes come back
    sorted by their smallest configuration index, so class numbering is
    deterministic.  The other components keep the reverse topological
    order of :func:`~repro.exact.solve.strongly_connected_components`:
    closed classes have no outgoing edges, so these are exactly the
    components of the transient restriction, in the order a pass over that
    restriction would find them — what
    :func:`~repro.exact.solve.solve_transient_systems` takes as
    ``components`` for the absorption system.
    """
    closed: list[list[int]] = []
    transient: list[list[int]] = []
    for component in strongly_connected_components(rows):
        members = set(component)
        if all(target in members for node in component for target in rows[node]):
            closed.append(component)
        else:
            transient.append(component)
    closed.sort(key=lambda component: component[0])
    return closed, transient


def closed_classes(rows: Sequence[Mapping[int, object]]) -> list[list[int]]:
    """The closed (recurrent) communicating classes of the chain.

    The first half of :func:`communicating_classes`: sorted by smallest
    configuration index.
    """
    return communicating_classes(rows)[0]


def _gather(groups: dict[int, int], visit: Fraction, weight: int) -> None:
    """Add ``visit·weight`` to integer numerators grouped by the visit's denominator."""
    den = visit.denominator
    groups[den] = groups.get(den, 0) + visit.numerator * weight


def _total(groups: dict[int, int], denominator: int = 1) -> Fraction:
    """``Σ numerator/den`` of ``groups``, divided by ``denominator``, as one ``Fraction``."""
    common = lcm(*groups)
    return Fraction(
        sum(numerator * (common // den) for den, numerator in groups.items()),
        common * denominator,
    )


def _mass_into(
    chain: ConfigurationChain,
    system: Sequence[int],
    visits: Sequence[Number],
    targets: Callable[[int], int | None],
    count: int,
) -> list[Number]:
    """``Σπ·w(→t)/D`` per target ``t < count``; ``targets`` maps an index to its target.

    The probability that the chain, from its initial configuration, leaves
    the system into each target.
    """
    denominator = chain.denominator
    weights = chain.weights
    if chain.arithmetic == "exact":
        groups: list[dict[int, int]] = [{} for _ in range(count)]
        for index, visit in zip(system, cast("Sequence[Fraction]", visits)):
            if visit:
                for successor, weight in weights[index].items():
                    target = targets(successor)
                    if target is not None:
                        _gather(groups[target], visit, weight)
        return [_total(group, denominator) for group in groups]
    zero: Number = 0.0
    masses = [zero] * count
    for index, visit in zip(system, visits):
        if visit:
            for successor, weight in weights[index].items():
                target = targets(successor)
                if target is not None:
                    masses[target] += visit * (weight / denominator)
    return masses


def _solved_visits(
    chain: ConfigurationChain,
    system: list[int],
    components: list[list[int]] | None = None,
) -> tuple[list[Number], Number, Number]:
    """``(π, Σπ, Σπ·change)`` over ``system`` from the initial configuration.

    Solved once per chain and system: the result is kept in the chain's
    :attr:`~repro.exact.chain.ConfigurationChain.solved_visits` (a chain-like
    object without that dict solves every time).  ``components``, when
    known, are the system's strongly connected components for the solve
    (see :func:`solve_transient_systems`).  The float sums skip zero
    visits, in ``system`` order, so they are the same floats whichever
    analysis asks first.
    """
    start = chain.initial_index
    key = (tuple(system), start)
    memo = getattr(chain, "solved_visits", {})
    solved = memo.get(key)
    if solved is None:
        exact = chain.arithmetic == "exact"
        denominator = chain.denominator
        changes = chain.change_weights
        visits = solve_transient_systems(
            chain.weights,
            system,
            start,
            denominator=denominator,
            exact=exact,
            components=components,
        )
        expected: Number
        expected_changed: Number
        if exact:
            interactions: dict[int, int] = {}
            changed: dict[int, int] = {}
            for index, visit in zip(system, cast("list[Fraction]", visits)):
                if visit:
                    _gather(interactions, visit, 1)
                    _gather(changed, visit, changes[index])
            expected = _total(interactions)
            expected_changed = _total(changed, denominator)
        else:
            expected = expected_changed = 0.0
            for index, visit in zip(system, visits):
                if visit:
                    expected += visit
                    expected_changed += visit * (changes[index] / denominator)
        solved = memo[key] = (visits, expected, expected_changed)
    return solved


@dataclass(frozen=True)
class AbsorptionAnalysis:
    """Exact absorption behavior of one chain, from its initial configuration.

    Attributes:
        classes: the closed classes (configuration indices, each sorted).
        transient: every configuration outside all closed classes, ascending.
        class_probabilities: absorption probability per class (same order as
            ``classes``); sums to one.
        expected_interactions: exact expected interactions until the chain
            enters a closed class (0 when it starts in one).
        expected_changed_interactions: expected interactions *that change at
            least one agent's state* until absorption.
    """

    classes: list[list[int]]
    transient: list[int]
    class_probabilities: list[Number]
    expected_interactions: Number
    expected_changed_interactions: Number

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_of(self, index: int) -> int | None:
        """Which closed class a configuration index belongs to, if any."""
        for class_index, members in enumerate(self.classes):
            if index in members:
                return class_index
        return None


def analyze_absorption(chain: ConfigurationChain) -> AbsorptionAnalysis:
    """Compute the full absorption picture of a chain.

    One SCC pass over the chain (:func:`communicating_classes`) finds the
    closed classes and hands the other components to the solve; one solve,
    for the expected visits ``π`` from the initial configuration; one pass
    over the transient rows then sums expected interactions (``Σπ``),
    expected changed interactions (``Σπ·change``) and the absorption
    probability of each closed class (``Σπ·Q(→class)``).
    """
    exact = chain.arithmetic == "exact"
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    classes, components = communicating_classes(chain.weights)
    in_class: dict[int, int] = {}
    for class_index, members in enumerate(classes):
        for member in members:
            in_class[member] = class_index
    transient = [
        index for index in range(chain.num_configurations) if index not in in_class
    ]
    initial = chain.initial_index
    if initial in in_class:
        probabilities = [zero] * len(classes)
        probabilities[in_class[initial]] = one
        return AbsorptionAnalysis(
            classes=classes,
            transient=transient,
            class_probabilities=probabilities,
            expected_interactions=zero,
            expected_changed_interactions=zero,
        )
    visits, expected, expected_changed = _solved_visits(chain, transient, components)
    probabilities = _mass_into(chain, transient, visits, in_class.get, len(classes))
    return AbsorptionAnalysis(
        classes=classes,
        transient=transient,
        class_probabilities=probabilities,
        expected_interactions=expected,
        expected_changed_interactions=expected_changed,
    )


@dataclass(frozen=True)
class HittingAnalysis:
    """Exact first-hitting behavior of a configuration predicate.

    Attributes:
        target: the configuration indices satisfying the predicate.
        almost_sure: whether the target is hit with probability one.
            Decided **structurally** (no state reachable from the initial
            configuration, with the target made absorbing, can escape into a
            region that cannot reach the target), so the verdict is exact in
            float mode too — a solver result of ``1 - O(ulp)`` cannot flip
            it.
        probability: the probability the chain ever hits the target set
            (exactly one when ``almost_sure``; ``None`` when the caller asked
            for ``expectation_only`` and the hit is not almost sure, in which
            case no system was solved).
        expected_interactions: exact expected interactions until the first
            hit (0 when the initial configuration already satisfies the
            predicate; ``None`` when the hit is not almost sure, where the
            conditional expectation is not the quantity engines report).
        expected_changed_interactions: expected changing interactions until
            the first hit (``None`` alongside ``expected_interactions``).
    """

    target: list[int]
    almost_sure: bool
    probability: Number | None
    expected_interactions: Number | None
    expected_changed_interactions: Number | None


def hitting_analysis(
    chain: ConfigurationChain,
    predicate: Callable[[int], bool],
    *,
    expectation_only: bool = False,
) -> HittingAnalysis:
    """Exact first-hitting analysis of ``{configurations where predicate holds}``.

    ``predicate`` receives a configuration *index*;
    :func:`repro.exact.engine.criterion_predicate` builds one from a
    :class:`~repro.simulation.convergence.ConvergenceCriterion`.

    ``expectation_only=True`` skips the linear solve when the structural walk
    already shows the hit is *not* almost sure (``probability`` comes back
    ``None``).  The almost-sure verdict and both expectations are unaffected
    — callers that only render "E[interactions] or ∞" (the E6 exact column)
    get their answer without paying, or being size-capped by, a solve whose
    result they would discard.
    """
    exact = chain.arithmetic == "exact"
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    target = [
        index for index in range(chain.num_configurations) if predicate(index)
    ]
    target_set = set(target)
    if chain.initial_index in target_set:
        return HittingAnalysis(
            target=target,
            almost_sure=True,
            probability=one,
            expected_interactions=zero,
            expected_changed_interactions=zero,
        )
    if not target:
        return HittingAnalysis(
            target=target,
            almost_sure=False,
            probability=zero,
            expected_interactions=None,
            expected_changed_interactions=None,
        )
    # Restrict to the non-target configurations that can still reach the
    # target (reverse BFS); from them, leaving the restricted set is almost
    # sure, so (I - Q) is nonsingular.
    predecessors = chain.predecessors
    can_reach: set[int] = set()
    frontier = list(target)
    while frontier:
        node = frontier.pop()
        for predecessor in predecessors[node]:
            if predecessor not in target_set and predecessor not in can_reach:
                can_reach.add(predecessor)
                frontier.append(predecessor)
    if chain.initial_index not in can_reach:
        return HittingAnalysis(
            target=target,
            almost_sure=False,
            probability=zero,
            expected_interactions=None,
            expected_changed_interactions=None,
        )
    # Structural almost-sureness: walk forward from the initial
    # configuration with the target made absorbing.  The hit has probability
    # exactly one iff no walked state steps into the no-return region
    # (outside target ∪ can_reach) — a graph fact, independent of solver
    # rounding, so float mode cannot misclassify an almost-sure hit.
    almost_sure = True
    walked = {chain.initial_index}
    walk = [chain.initial_index]
    while walk and almost_sure:
        node = walk.pop()
        for successor in chain.weights[node]:
            if successor in target_set or successor in walked:
                continue
            if successor not in can_reach:
                almost_sure = False
                break
            walked.add(successor)
            walk.append(successor)
    if expectation_only and not almost_sure:
        return HittingAnalysis(
            target=target,
            almost_sure=False,
            probability=None,
            expected_interactions=None,
            expected_changed_interactions=None,
        )
    system = sorted(can_reach)
    visits, expected, expected_changed = _solved_visits(chain, system)
    if almost_sure:
        return HittingAnalysis(
            target=target,
            almost_sure=True,
            probability=one,
            expected_interactions=expected,
            expected_changed_interactions=expected_changed,
        )
    [probability] = _mass_into(
        chain, system, visits, lambda index: 0 if index in target_set else None, 1
    )
    return HittingAnalysis(
        target=target,
        almost_sure=False,
        probability=probability,
        expected_interactions=None,
        expected_changed_interactions=None,
    )
