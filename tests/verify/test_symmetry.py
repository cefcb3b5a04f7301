"""Symmetry detection: cyclic groups, full symmetric groups, permuted copies."""

from collections.abc import Iterator
from itertools import permutations
from typing import NamedTuple

import pytest

import repro  # noqa: F401  (populates the default protocol registry)
from repro.compile import compile_protocol
from repro.core.circles import CirclesProtocol
from repro.protocols.base import PopulationProtocol, TransitionResult
from repro.protocols.cancellation_plurality import CancellationPluralityProtocol
from repro.protocols.leader_election import PerColorLeaderElection
from repro.verify.symmetry import SymmetryCertificate, color_symmetries


def detect(protocol, **kwargs) -> SymmetryCertificate:
    return color_symmetries(compile_protocol(protocol), **kwargs)


def test_circles_k3_symmetry_is_the_cyclic_group():
    """Weights are differences mod k, so rotations commute but reflections
    do not (a reflection flips (j-i) mod k to (i-j) mod k)."""
    certificate = detect(CirclesProtocol(3))
    assert certificate.searched
    assert certificate.order == 3
    assert certificate.permutations == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert certificate.generators == ((1, 2, 0),)


def test_circles_k2_symmetry_swaps_colors():
    certificate = detect(CirclesProtocol(2))
    assert certificate.order == 2
    assert (1, 0) in certificate.permutations


@pytest.mark.parametrize(
    "factory", [PerColorLeaderElection, CancellationPluralityProtocol]
)
def test_color_blind_protocols_report_the_full_symmetric_group(factory):
    """Protocols made of identical per-color copies admit every permutation."""
    certificate = detect(factory(3))
    assert certificate.order == 6
    assert len(certificate.permutations) == 6
    # Two generators suffice for S_3 and the greedy selection finds exactly
    # a minimal set.
    assert 1 <= len(certificate.generators) <= 2
    closure = {tuple(range(3))}
    frontier = list(closure)
    while frontier:
        element = frontier.pop()
        for generator in certificate.generators:
            product = tuple(generator[value] for value in element)
            if product not in closure:
                closure.add(product)
                frontier.append(product)
    assert len(closure) == 6


class _PermutedCopy(PopulationProtocol):
    """The base protocol with its colors relabeled by a fixed permutation.

    Inputs are mapped through ``perm`` on the way in and outputs through
    ``perm⁻¹`` on the way out, so this is genuinely "the same protocol with
    the colors renamed" — its symmetry group must be the conjugate
    ``perm · G · perm⁻¹`` of the base group ``G`` (same order).  Sentinel
    outputs outside ``[0, k)`` pass through unchanged.
    """

    name = "permuted-copy"

    def __init__(self, base: PopulationProtocol, perm: tuple[int, ...]):
        super().__init__(base.num_colors)
        self._base = base
        self._perm = perm
        self._inverse = tuple(perm.index(color) for color in range(len(perm)))

    def compile_signature(self):
        return (type(self), self._base.compile_signature(), self._perm)

    def states(self) -> Iterator:
        return self._base.states()

    def initial_state(self, color: int):
        self.validate_color(color)
        return self._base.initial_state(self._perm[color])

    def output(self, state) -> int:
        out = self._base.output(state)
        return self._inverse[out] if out < self.num_colors else out

    def transition(self, initiator, responder) -> TransitionResult:
        return self._base.transition(initiator, responder)


@pytest.mark.parametrize("perm", sorted(permutations(range(3))))
def test_permuted_copies_report_the_full_symmetric_group(perm):
    """Relabeling the colors of a fully symmetric protocol conjugates the
    group — which for the full symmetric group changes nothing."""
    certificate = detect(_PermutedCopy(CancellationPluralityProtocol(3), perm))
    assert certificate.order == 6


def test_permuted_copies_of_circles_conjugate_the_cyclic_group():
    base_order = detect(CirclesProtocol(3)).order
    for perm in sorted(permutations(range(3))):
        certificate = detect(_PermutedCopy(CirclesProtocol(3), perm))
        assert certificate.order == base_order


class _SentinelOutputs(NamedTuple):
    color: int
    active: bool


class _SentinelProtocol(PopulationProtocol):
    """Cancellation with a *sentinel* output ``k`` for cancelled agents.

    Exercises the rule that permutations act as the identity on output
    values outside ``[0, k)`` (like the tie-report's tie sentinel).
    """

    name = "sentinel-cancellation"

    def compile_signature(self):
        return (type(self), self.num_colors)

    def states(self) -> Iterator:
        for color in range(self.num_colors):
            for active in (True, False):
                yield _SentinelOutputs(color, active)

    def initial_state(self, color: int):
        self.validate_color(color)
        return _SentinelOutputs(color, True)

    def output(self, state) -> int:
        return state.color if state.active else self.num_colors

    def transition(self, initiator, responder) -> TransitionResult:
        if (
            initiator.active
            and responder.active
            and initiator.color != responder.color
        ):
            return TransitionResult(
                _SentinelOutputs(initiator.color, False),
                _SentinelOutputs(responder.color, False),
            )
        return TransitionResult(initiator, responder)


def test_sentinel_outputs_stay_fixed_under_permutations():
    certificate = detect(_SentinelProtocol(3))
    assert certificate.order == 6


def test_asymmetric_outputs_break_the_symmetry():
    """Approximate majority's blank outputs color 0, so swapping 0 and 1 is
    *not* output-equivariant even though δ treats the opinions alike."""
    from repro.protocols.approximate_majority import ApproximateMajorityProtocol

    certificate = detect(ApproximateMajorityProtocol(2))
    assert certificate.is_trivial


def test_search_cap_reports_honestly():
    certificate = detect(CirclesProtocol(3), max_colors=2)
    assert not certificate.searched
    assert certificate.order == 1
    assert certificate.generators == ()
