"""Greedy independent sets and the predicted stable configuration.

The correctness proof of the paper builds on a purely combinatorial
construction over the *input colors*:

* **Greedy independent sets** (Definition 3.1): partition the multiset of
  input colors into sets ``G_1, G_2, ..., G_q`` by repeatedly taking one copy
  of every color that still has copies left.  Equivalently, ``G_p`` is the set
  of colors whose input count is at least ``p``, and ``q`` is the largest
  input count.
* **Lemma 3.2**: when a unique relative-majority color ``μ`` exists,
  ``G_q = {μ}`` and no other color forms a singleton set.
* **Circle bra-ket sets** (Definition 3.5): for ``G_p`` with sorted elements
  ``g_0 < g_1 < ... < g_m``, ``f(G_p) = {⟨g_0|g_1⟩, ⟨g_1|g_2⟩, ..., ⟨g_m|g_0⟩}``
  — the "circle" that gives the protocol its name.
* **Lemma 3.6**: after stabilization, the multiset of bra-kets held by the
  agents is exactly ``∪_p f(G_p)``.

These functions compute the construction directly from the inputs, which
lets the tests and experiment E4 check the simulated stable configurations
against the proof's prediction.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from repro.core.braket import BraKet
from repro.utils.multiset import Multiset


def color_counts(colors: Iterable[int]) -> Counter[int]:
    """Count how many agents start with each input color."""
    counts = Counter(colors)
    for color in counts:
        if color < 0:
            raise ValueError(f"input colors must be non-negative, got {color}")
    return counts


def greedy_independent_sets(colors: Iterable[int]) -> list[set[int]]:
    """The greedy independent sets ``G_1, ..., G_q`` of Definition 3.1.

    ``G_p`` contains every color whose input multiplicity is at least ``p``;
    ``q`` equals the largest multiplicity.  The empty input yields an empty
    list.
    """
    counts = color_counts(colors)
    if not counts:
        return []
    largest = max(counts.values())
    return [
        {color for color, count in counts.items() if count >= level}
        for level in range(1, largest + 1)
    ]


def circle_braket_set(group: Iterable[int]) -> Multiset[BraKet]:
    """The circle bra-ket set ``f(G_p)`` of Definition 3.5.

    The sorted elements ``g_0 < ... < g_m`` are chained into a cycle of
    bra-kets; a singleton ``{i}`` yields the diagonal ``{⟨i|i⟩}``.
    """
    ordered: Sequence[int] = sorted(set(group))
    result: Multiset[BraKet] = Multiset()
    if not ordered:
        return result
    size = len(ordered)
    for index, color in enumerate(ordered):
        successor = ordered[(index + 1) % size]
        result.add(BraKet(color, successor))
    return result


def predicted_stable_brakets(colors: Iterable[int]) -> Multiset[BraKet]:
    """The multiset ``∪_p f(G_p)`` that Lemma 3.6 proves the protocol reaches."""
    prediction: Multiset[BraKet] = Multiset()
    for group in greedy_independent_sets(colors):
        prediction = prediction.union(circle_braket_set(group))
    return prediction


def predicted_majority(colors: Iterable[int]) -> int:
    """The unique relative-majority color of the input.

    Raises:
        ValueError: if the input is empty or the maximum count is shared by
            two or more colors (the paper assumes no ties; the tie-handling
            extensions deal with that case).
    """
    counts = color_counts(colors)
    if not counts:
        raise ValueError("cannot compute the majority of an empty input")
    best_count = max(counts.values())
    winners = [color for color, count in counts.items() if count == best_count]
    if len(winners) > 1:
        raise ValueError(f"no unique relative majority: colors {sorted(winners)} are tied")
    return winners[0]


def unique_majority(counts: Mapping[int, int]) -> int | None:
    """The unique relative-majority color of ``color -> agents`` counts, else ``None``.

    ``None`` for no agents or a tied maximum; the counts-level form of
    :func:`predicted_majority` for callers that already counted the input.
    """
    if not counts:
        return None
    best_count = max(counts.values())
    winners = [color for color, count in counts.items() if count == best_count]
    return winners[0] if len(winners) == 1 else None


def has_unique_majority(colors: Iterable[int]) -> bool:
    """Whether the input has a unique relative-majority color."""
    return unique_majority(color_counts(colors)) is not None


def singleton_groups(colors: Iterable[int]) -> list[set[int]]:
    """The greedy independent sets that are singletons.

    Lemma 3.2 states that, with a unique majority ``μ``, the only singleton
    group is ``{μ}`` (and it is the last one).  Exposed separately so the
    property tests can check the lemma directly.
    """
    return [group for group in greedy_independent_sets(colors) if len(group) == 1]
