"""A test-only reference for :class:`repro.exact.chain.ConfigurationChain`.

The straightforward breadth-first search the chain is checked against: every
configuration is a ``frozenset`` of decoded ``(state, count)`` pairs, every
successor a ``Multiset`` copy, and ``δ`` is always ``protocol.transition``.
Present states are expanded in ``repr`` order, initiator outer and responder
inner, so its discovery order is the one the chain documents.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from repro.utils.multiset import Multiset


def reference_chain(protocol, initial: Multiset):
    """``(keys, rows, change_probability)`` in ``Fraction`` arithmetic."""
    n = len(initial)
    denominator = n * (n - 1)
    keys = [initial.frozen()]
    index = {keys[0]: 0}
    rows: list[dict[int, Fraction]] = []
    change_probability: list[Fraction] = []
    frontier = deque([0])
    while frontier:
        current = frontier.popleft()
        configuration = Multiset(dict(keys[current]))
        support = sorted(configuration.support(), key=repr)
        weights: dict[int, int] = {}
        change_weight = 0
        for initiator in support:
            for responder in support:
                count = configuration.count(initiator)
                weight = (
                    count * (count - 1)
                    if initiator == responder
                    else count * configuration.count(responder)
                )
                if weight == 0:
                    continue
                result = protocol.transition(initiator, responder)
                if result.as_pair() == (initiator, responder):
                    weights[current] = weights.get(current, 0) + weight
                    continue
                change_weight += weight
                successor = configuration.copy()
                successor.remove(initiator)
                successor.remove(responder)
                successor.add(result.initiator)
                successor.add(result.responder)
                key = successor.frozen()
                target = index.get(key)
                if target is None:
                    target = index[key] = len(keys)
                    keys.append(key)
                    frontier.append(target)
                weights[target] = weights.get(target, 0) + weight
        rows.append({target: Fraction(w, denominator) for target, w in weights.items()})
        change_probability.append(Fraction(change_weight, denominator))
    return keys, rows, change_probability
