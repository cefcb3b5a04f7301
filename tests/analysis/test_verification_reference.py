"""``verify_always_correct`` against a definition-literal reference checker.

The checker answers E3's question as a closed-class query on
:class:`~repro.exact.chain.ConfigurationChain`, with the same
:func:`~repro.exact.absorption.closed_classes` the exact engine uses, so the
engine-vs-checker suite (``test_verification_exact.py``) no longer compares
two independent methods.  This suite keeps an independent oracle: its own
breadth-first exploration through Python ``transition`` dispatch, one
``reachable_from`` walk per configuration, and the greatest fixed point of
correct-closed configurations — the stabilization definition read
literally, quadratic and slow, but sharing no code with the checker.

The verdicts must agree field for field on every registry protocol,
k ∈ {2, 3}, and every unique-majority input of at most five agents.  Where
the graph exceeds the cap, only the truncation contract is compared: the
reference then judges a partial graph (its unexplored frontier looks
terminal), so its flags mean nothing, while the checker reports neither
stabilization nor a trap.
"""

from collections import deque
from itertools import combinations_with_replacement

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.analysis.verification import VerificationResult, verify_always_correct
from repro.core.greedy_sets import has_unique_majority, predicted_majority
from repro.protocols.registry import DEFAULT_REGISTRY
from repro.utils.multiset import Multiset

#: Small enough for the quadratic reference, large enough for every input
#: but circles-unordered's larger ones (n >= 4; 926 to 25136 configurations
#: at k = 2, 2310 and up at k = 3), which check truncation only.
MAX_CONFIGURATIONS = 500


def _supports(name: str, k: int) -> bool:
    try:
        DEFAULT_REGISTRY.create(name, k)
    except ValueError:
        return False  # e.g. the two-color baselines at k = 3
    return True


CASES = [
    (name, k) for name in DEFAULT_REGISTRY.names() for k in (2, 3) if _supports(name, k)
]


def _inputs(k: int) -> list[tuple[int, ...]]:
    return [
        colors
        for n in range(2, 6)
        for colors in combinations_with_replacement(range(k), n)
        if has_unique_majority(colors)
    ]


def _successors(protocol, key: frozenset) -> set[frozenset]:
    configuration = Multiset(dict(key))
    support = list(configuration.support())
    successors = set()
    for initiator in support:
        for responder in support:
            if initiator == responder and configuration.count(initiator) < 2:
                continue
            result = protocol.transition(initiator, responder)
            if result.as_pair() == (initiator, responder):
                continue
            successor = configuration.copy()
            successor.remove(initiator)
            successor.remove(responder)
            successor.add(result.initiator)
            successor.add(result.responder)
            successors.add(successor.frozen())
    return successors


def _explore(protocol, colors, cap):
    """BFS of the configuration graph; stops on discovering configuration cap+1."""
    initial = Multiset(protocol.initial_state(color) for color in colors).frozen()
    configurations = {initial}
    edges: dict[frozenset, set[frozenset]] = {}
    frontier = deque([initial])
    while frontier:
        current = frontier.popleft()
        edges[current] = _successors(protocol, current)
        for successor in edges[current]:
            if successor not in configurations:
                if len(configurations) >= cap:
                    return configurations, edges, True
                configurations.add(successor)
                frontier.append(successor)
    return configurations, edges, False


def _reachable_from(edges, key) -> set[frozenset]:
    seen = {key}
    frontier = deque([key])
    while frontier:
        for successor in edges.get(frontier.popleft(), ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


def _reference_verify(protocol, colors, cap) -> VerificationResult:
    majority = predicted_majority(colors)
    configurations, edges, truncated = _explore(protocol, colors, cap)

    def correct(key) -> bool:
        return all(protocol.output(state) == majority for state, _ in key)

    # Correct-closed: the greatest set of correct configurations whose
    # successors all stay inside the set.
    closed = {key for key in configurations if correct(key)}
    changed = True
    while changed:
        changed = False
        for key in list(closed):
            if any(successor not in closed for successor in edges.get(key, ())):
                closed.discard(key)
                changed = True

    always_reaches_closed = True
    has_trap = False
    for key in configurations:
        reachable = _reachable_from(edges, key)
        if not reachable & closed:
            always_reaches_closed = False
            if not any(correct(other) for other in reachable):
                has_trap = True
    return VerificationResult(
        protocol_name=protocol.name,
        colors=tuple(colors),
        majority=majority,
        num_configurations=len(configurations),
        always_stabilizes_correctly=always_reaches_closed,
        has_incorrect_trap=has_trap,
        truncated=truncated,
    )


@pytest.mark.parametrize("protocol_name,k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_checker_equals_the_reference(protocol_name, k):
    protocol = DEFAULT_REGISTRY.create(protocol_name, k)
    complete = 0
    for colors in _inputs(k):
        verdict = verify_always_correct(
            protocol, colors, max_configurations=MAX_CONFIGURATIONS
        )
        reference = _reference_verify(protocol, colors, MAX_CONFIGURATIONS)
        if reference.truncated:
            assert verdict.truncated, colors
            assert verdict.num_configurations == reference.num_configurations
            assert not verdict.always_stabilizes_correctly
            assert not verdict.has_incorrect_trap
            continue
        assert verdict == reference, colors
        complete += 1
    assert complete > 0
