"""Potential and energy functions for Circles configurations.

Theorem 3.4 proves stabilization with the ordinal potential

    g(C) = ω^{n-1}·w₁(C) + ω^{n-2}·w₂(C) + ... + ω·w_{n-1}(C) + w_n(C)

where ``w₁ ≤ w₂ ≤ ... ≤ w_n`` are the bra-ket weights of the agents sorted in
increasing order.  Every ket exchange strictly decreases ``g``, and an ordinal
cannot decrease infinitely often, so the number of exchanges is finite.

The module also exposes the *scalar* energy (the plain sum of weights) used by
the chemistry view (the "energy minimization" of the title) and the predicted
minimum energy derived from the greedy-independent-set construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.core.braket import BraKet, braket_weight
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.state import CirclesState
from repro.utils.multiset import Multiset
from repro.utils.ordinal import Ordinal


def _as_braket(item: BraKet | CirclesState) -> BraKet:
    if isinstance(item, BraKet):
        return item
    return item.braket


def sorted_weights(brakets: Iterable[BraKet | CirclesState], num_colors: int) -> list[int]:
    """The bra-ket weights of a configuration, sorted in increasing order."""
    return sorted(braket_weight(_as_braket(item), num_colors) for item in brakets)


def ordinal_potential(brakets: Iterable[BraKet | CirclesState], num_colors: int) -> Ordinal:
    """The ordinal potential ``g(C)`` of Theorem 3.4.

    The smallest weight receives the highest power of ω, so a decrease of the
    minimum weight dominates any increase of larger weights — exactly the
    lexicographic argument of the proof.
    """
    weights = sorted_weights(brakets, num_colors)
    return Ordinal.from_coefficients(weights)


def configuration_energy(brakets: Iterable[BraKet | CirclesState], num_colors: int) -> int:
    """The scalar energy: the sum of all bra-ket weights.

    This is the quantity the chemical analogy minimizes.  Unlike the ordinal
    potential it does not necessarily decrease at every single exchange under
    the MIN_WEIGHT rule, but it is minimized at the stable configurations
    (experiment E5 measures this).  A :class:`Multiset` is summed from its
    counts, in ``O(d)`` for ``d`` distinct states instead of ``O(n)``.
    """
    if isinstance(brakets, Multiset):
        return sum(
            count * braket_weight(_as_braket(item), num_colors)
            for item, count in brakets.items()
        )
    return sum(braket_weight(_as_braket(item), num_colors) for item in brakets)


def minimum_energy(colors: Iterable[int], num_colors: int) -> int:
    """The energy of the stable configuration predicted by Lemma 3.6.

    Computed from the greedy independent sets of the input colors, without
    running the protocol.
    """
    prediction = predicted_stable_brakets(colors)
    return configuration_energy(prediction.elements(), num_colors)


def weight_histogram(
    brakets: Iterable[BraKet | CirclesState], num_colors: int
) -> dict[int, int]:
    """How many agents hold a bra-ket of each weight (diagnostic for E5)."""
    histogram: dict[int, int] = {}
    for item in brakets:
        weight = braket_weight(_as_braket(item), num_colors)
        histogram[weight] = histogram.get(weight, 0) + 1
    return histogram


# -- count-level implementations ------------------------------------------------
#
# The observer pipeline (:mod:`repro.simulation.observers`) tracks energy and
# potential on the configuration-level engines, whose state is an
# index-aligned count vector over a compiled state space.  These helpers make
# both quantities computable from counts alone — one pass over the ``d``
# distinct states instead of one pass over the ``n`` agents — and make the
# *comparison* of two potentials possible without materializing the ``n``-term
# ordinal at all.


def state_weights(
    states: Iterable[BraKet | CirclesState], num_colors: int
) -> list[int]:
    """Per-state weights, aligned with the iteration order of ``states``.

    Pair this with :attr:`repro.compile.CompiledProtocol.states` to obtain a
    weight table indexed by compiled state code.
    """
    return [braket_weight(_as_braket(item), num_colors) for item in states]


def weight_threshold_vectors(
    weights: Sequence[int],
) -> list[tuple[int, tuple[int, ...]]]:
    """Per-threshold indicator vectors of "state weight ``<= w``".

    For each weight value ``w`` occurring in ``weights`` this yields the
    index-aligned indicator vector of the states whose weight is at most
    ``w``.  The dot product with a count vector is ``N_w``, the number of
    agents at weight ``<= w`` — and the ordinal potential ``g(C)`` of
    Theorem 3.4 decreases exactly when the tuple ``(N_1, N_2, ...)``
    increases lexicographically (ascending sorted weight sequences compare
    lexicographically iff their cumulative counts do, with the order
    reversed).  :mod:`repro.verify.ranking` therefore uses the *negated*
    vectors as ranking-function components, turning Theorem 3.4 into a
    one-shot static certificate instead of a per-step runtime check.
    """
    thresholds = sorted(set(weights))
    return [
        (w, tuple(1 if weight <= w else 0 for weight in weights))
        for w in thresholds
    ]


def counts_energy(counts: Iterable[int], weights: Sequence[int]) -> int:
    """The scalar energy of an index-aligned count vector.

    ``counts[i]`` agents hold the state whose weight is ``weights[i]``; the
    energy is the count-weighted sum — ``O(d)`` in the number of distinct
    states instead of ``O(n)`` in the population size.
    """
    total = 0
    for code, count in enumerate(counts):
        if count:
            total += int(count) * weights[code]
    return total


def weight_histogram_from_counts(
    counts: Iterable[int], weights: Sequence[int]
) -> dict[int, int]:
    """The weight histogram of an index-aligned count vector."""
    histogram: dict[int, int] = {}
    for code, count in enumerate(counts):
        if count:
            weight = weights[code]
            histogram[weight] = histogram.get(weight, 0) + int(count)
    return histogram


def ordinal_potential_from_histogram(histogram: Mapping[int, int]) -> Ordinal:
    """The ordinal potential ``g(C)`` from a weight histogram.

    Equivalent to :func:`ordinal_potential` on the expanded weight list: the
    ``i``-th smallest weight becomes the coefficient of ``ω^(n-1-i)``.
    """
    n = sum(histogram.values())
    terms: dict[int, int] = {}
    position = 0
    for weight in sorted(histogram):
        count = histogram[weight]
        if weight:
            for index in range(position, position + count):
                terms[n - 1 - index] = weight
        position += count
    return Ordinal(terms)


def compare_weight_histograms(
    first: Mapping[int, int], second: Mapping[int, int]
) -> int:
    """Compare ``g(C)`` of two equal-size configurations from histograms alone.

    The potential orders configurations lexicographically by their ascending
    sorted weight sequences (the smallest weight carries the highest power of
    ω), so two histograms compare by run-length lexicographic order — ``O(k)``
    work, never expanding the ``n`` coefficients.  Returns -1, 0 or 1.

    Raises:
        ValueError: when the histograms describe different population sizes
            (the potentials of different-size populations are incomparable in
            the paper's setting).
    """
    if sum(first.values()) != sum(second.values()):
        raise ValueError("weight histograms describe different population sizes")
    first_runs = [(weight, count) for weight, count in sorted(first.items()) if count]
    second_runs = [(weight, count) for weight, count in sorted(second.items()) if count]
    i = j = 0
    first_left = second_left = 0
    first_value = second_value = 0
    while True:
        if first_left == 0:
            if i == len(first_runs):
                return 0  # equal totals: both run lists exhaust together
            first_value, first_left = first_runs[i]
            i += 1
        if second_left == 0:
            second_value, second_left = second_runs[j]
            j += 1
        if first_value != second_value:
            return -1 if first_value < second_value else 1
        overlap = min(first_left, second_left)
        first_left -= overlap
        second_left -= overlap
