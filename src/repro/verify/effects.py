"""Transition effect vectors of a compiled protocol.

On the configuration view a population is an index-aligned count vector over
the compiled state space, and an interaction ``δ(p, q) = (a, b)`` moves the
count vector by a fixed *effect vector*: ``-1`` at ``p`` and ``q``, ``+1`` at
``a`` and ``b`` (entries combine when codes coincide).  Everything the static
verifier proves — conservation laws, ranking certificates — is a statement
about these finitely many vectors, not about executions, which is what makes
the proofs one-shot and schedule-oblivious.

Distinct ordered pairs often share one effect (all of Circles' output
broadcasts, say, differ only in the broadcast color written into the agents,
but many share the same count delta).  Effects are therefore deduplicated,
each remembering the ordered pairs that realize it, in first-occurrence
order so downstream certificates are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compile.compiled import CompiledProtocol


@dataclass(frozen=True)
class TransitionEffect:
    """One distinct count-vector delta and the ordered pairs realizing it.

    Attributes:
        dimension: the compiled state-space size ``d``.
        sparse: ``(state code, net change)`` entries with nonzero change,
            in ascending code order.  At most four entries.
        pairs: the ordered state-code pairs ``(p, q)`` whose interaction
            produces this delta, in first-occurrence order.
    """

    dimension: int
    sparse: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def is_zero(self) -> bool:
        """True for changed transitions that preserve the count vector.

        A pair swap ``δ(p, q) = (q, p)`` with ``p ≠ q`` alters the
        two agents' states but not the configuration multiset; no linear
        function of counts can strictly decrease on it.
        """
        return not self.sparse

    def dense(self) -> list[int]:
        """The effect as a dense length-``d`` integer vector."""
        vector = [0] * self.dimension
        for code, change in self.sparse:
            vector[code] = change
        return vector


def effect_dot(coefficients, effect: TransitionEffect):
    """``coefficients · effect`` via the sparse entries (``O(1)`` per effect)."""
    return sum(coefficients[code] * change for code, change in effect.sparse)


def transition_effects(compiled: "CompiledProtocol") -> list[TransitionEffect]:
    """All distinct effect vectors of the ``changed`` transitions.

    Deterministic: effects are ordered by the first ordered pair (row-major
    over the transition table) that realizes them.
    """
    d = compiled.num_states
    table = compiled.table
    changed = compiled.changed
    grouped: dict[tuple[tuple[int, int], ...], list[tuple[int, int]]] = {}
    for p in range(d):
        base = p * d
        for q in range(d):
            code = base + q
            if not changed[code]:
                continue
            a, b = divmod(table[code], d)
            delta: dict[int, int] = {}
            for state, change in ((p, -1), (q, -1), (a, 1), (b, 1)):
                delta[state] = delta.get(state, 0) + change
            sparse = tuple(
                (state, change) for state, change in sorted(delta.items()) if change
            )
            grouped.setdefault(sparse, []).append((p, q))
    return [
        TransitionEffect(d, sparse, tuple(pairs))
        for sparse, pairs in grouped.items()
    ]
