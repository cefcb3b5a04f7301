"""A naive always-correct plurality comparator ("tournament" protocol).

The paper improves the state complexity of *always-correct* relative majority
from ``O(k^7)`` (Gąsieniec, Hamilton, Martin, Spirakis, Stachowiak — OPODIS
2016, reference [10]) down to ``k^3``.  The published ``O(k^7)`` construction
is intricate; re-deriving it faithfully from scratch is out of scope for this
reproduction, so the comparator implemented here is the *naive* always-correct
design that the literature's careful constructions exist to avoid: a full
pairwise tournament.

Every agent of input color ``i`` initially carries one cancellation token for
each pair ``{i, j}`` (on side ``i``) and a belief table over all color pairs.
When agents of colors ``i ≠ j`` meet and both still carry their ``{i, j}``
tokens, the tokens cancel; agents that still carry a token advertise their
side of that pair to whoever they meet.  An agent outputs the color that,
according to its belief table, beats every other color; if no color qualifies
yet, it outputs its own input color.

*Correctness* (always, under weak fairness): for every pair ``{μ, d}`` where
``μ`` is the unique plurality color, the difference between surviving
``μ``-side and ``d``-side tokens equals ``count(μ) − count(d) > 0`` and is
invariant, so ``μ``-side tokens survive forever while all ``d``-side tokens
are eventually cancelled; afterwards every agent's belief about ``{μ, d}`` can
only ever be (re)written to ``μ``, so eventually every agent outputs ``μ``
forever.

*State complexity*: ``k · 2^(k-1) · 3^(k(k-1)/2)`` declared states — already
astronomically larger than ``k^3`` for small ``k``, which is exactly the
comparison axis of experiment E1 (whose table additionally quotes the
published ``O(k^7)`` bound as the literature's best prior upper bound).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

from repro.protocols.base import PopulationProtocol, TransitionResult

#: Belief value meaning "I have not yet heard a verdict for this pair".
UNKNOWN = -1


def pair_index(first: int, second: int, num_colors: int) -> int:
    """The canonical index of the unordered color pair ``{first, second}``.

    Pairs ``(x, y)`` with ``x < y`` are numbered lexicographically.
    """
    if first == second:
        raise ValueError("a pair needs two distinct colors")
    low, high = (first, second) if first < second else (second, first)
    if not 0 <= low or not high < num_colors:
        raise ValueError(f"colors {first}, {second} out of range for k={num_colors}")
    # Number of pairs with smaller first element, plus the offset inside the row.
    preceding = low * (num_colors - 1) - low * (low - 1) // 2
    return preceding + (high - low - 1)


def num_pairs(num_colors: int) -> int:
    """The number of unordered color pairs, ``k·(k-1)/2``."""
    return num_colors * (num_colors - 1) // 2


class TournamentState(NamedTuple):
    """Input color, surviving cancellation tokens, and the belief table."""

    color: int
    tokens: frozenset[int]
    beliefs: tuple[int, ...]

    def __str__(self) -> str:
        return f"color={self.color} tokens={sorted(self.tokens)} beliefs={self.beliefs}"


class TournamentPluralityProtocol(PopulationProtocol[TournamentState]):
    """Always-correct plurality via a full pairwise tournament (huge state count)."""

    name = "tournament-plurality"

    def compile_signature(self):
        """Pure function of ``(class, k)``: compiled tables shared across instances."""
        return (type(self), self.num_colors)

    def __init__(self, num_colors: int) -> None:
        super().__init__(num_colors)
        self._num_pairs = num_pairs(num_colors)

    # -- protocol maps ----------------------------------------------------------

    def states(self) -> Iterator[TournamentState]:
        """Enumerate all declared states (only feasible for very small ``k``)."""
        k = self.num_colors
        for color in range(k):
            other_colors = [c for c in range(k) if c != color]
            token_subsets = itertools.chain.from_iterable(
                itertools.combinations(other_colors, size)
                for size in range(len(other_colors) + 1)
            )
            for subset in token_subsets:
                belief_choices = []
                for low in range(k):
                    for high in range(low + 1, k):
                        belief_choices.append((UNKNOWN, low, high))
                for beliefs in itertools.product(*belief_choices):
                    yield TournamentState(color, frozenset(subset), tuple(beliefs))

    def state_count(self) -> int:
        """``k · 2^(k-1) · 3^(k(k-1)/2)``, computed without enumeration."""
        k = self.num_colors
        return k * 2 ** (k - 1) * 3 ** self._num_pairs

    def initial_state(self, color: int) -> TournamentState:
        self.validate_color(color)
        tokens = frozenset(other for other in range(self.num_colors) if other != color)
        beliefs = [UNKNOWN] * self._num_pairs
        for other in tokens:
            beliefs[pair_index(color, other, self.num_colors)] = color
        return TournamentState(color, tokens, tuple(beliefs))

    def output(self, state: TournamentState) -> int:
        """The color that beats every other color per the belief table, else the input color."""
        for candidate in range(self.num_colors):
            if self._beats_all(state.beliefs, candidate):
                return candidate
        return state.color

    def _beats_all(self, beliefs: tuple[int, ...], candidate: int) -> bool:
        for other in range(self.num_colors):
            if other == candidate:
                continue
            if beliefs[pair_index(candidate, other, self.num_colors)] != candidate:
                return False
        return True

    # -- transition ----------------------------------------------------------------

    def transition(
        self, initiator: TournamentState, responder: TournamentState
    ) -> TransitionResult[TournamentState]:
        init_tokens = set(initiator.tokens)
        resp_tokens = set(responder.tokens)

        # Step 1: cancellation for the pair of the two input colors.
        if (
            initiator.color != responder.color
            and responder.color in init_tokens
            and initiator.color in resp_tokens
        ):
            init_tokens.remove(responder.color)
            resp_tokens.remove(initiator.color)

        # Step 2: both agents learn the verdicts advertised by surviving tokens.
        updates: dict[int, int] = {}
        for color, tokens in ((initiator.color, init_tokens), (responder.color, resp_tokens)):
            for other in tokens:
                updates[pair_index(color, other, self.num_colors)] = color

        def apply(beliefs: tuple[int, ...]) -> tuple[int, ...]:
            if not updates:
                return beliefs
            new = list(beliefs)
            for index, winner in updates.items():
                new[index] = winner
            return tuple(new)

        new_initiator = TournamentState(
            initiator.color, frozenset(init_tokens), apply(initiator.beliefs)
        )
        new_responder = TournamentState(
            responder.color, frozenset(resp_tokens), apply(responder.beliefs)
        )
        return TransitionResult(new_initiator, new_responder)

    def is_symmetric(self) -> bool:
        """The tournament rules never use the initiator/responder asymmetry."""
        return True
