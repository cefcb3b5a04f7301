"""Tests for the exhaustive always-correctness checker (experiment E3)."""

import pytest

from repro.analysis.verification import verify_always_correct
from repro.core.circles import CirclesProtocol
from repro.protocols.cancellation_plurality import CancellationPluralityProtocol
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.protocols.tournament_plurality import TournamentPluralityProtocol


class TestCirclesVerification:
    @pytest.mark.parametrize(
        "colors",
        [
            (0, 0, 1),
            (0, 1, 1, 1),
            (0, 1, 1, 2),
            (0, 0, 1, 2, 2, 2),
            (0, 1, 2, 2),
        ],
    )
    def test_circles_verifies_on_small_inputs(self, colors):
        k = max(colors) + 1
        verdict = verify_always_correct(CirclesProtocol(k), colors)
        assert verdict.verified
        assert verdict.majority == max(set(colors), key=list(colors).count)
        assert verdict.num_configurations > 0

    def test_requires_unique_majority(self):
        with pytest.raises(ValueError):
            verify_always_correct(CirclesProtocol(2), (0, 0, 1, 1))

    def test_truncated_exploration_is_not_verified(self):
        verdict = verify_always_correct(
            CirclesProtocol(3), (0, 0, 1, 2), max_configurations=2
        )
        assert verdict.truncated
        assert not verdict.verified
        # A partial graph proves nothing either way: its unexplored frontier
        # must not pass for a trap (Theorem 3.7 says none exists).
        assert not verdict.always_stabilizes_correctly
        assert not verdict.has_incorrect_trap
        assert verdict.num_configurations == 2


class TestBaselineVerification:
    def test_exact_majority_verifies(self):
        verdict = verify_always_correct(ExactMajorityProtocol(), (0, 0, 0, 1, 1))
        assert verdict.verified

    def test_tournament_comparator_verifies(self):
        verdict = verify_always_correct(TournamentPluralityProtocol(3), (0, 0, 1, 2))
        assert verdict.verified

    def test_cancellation_heuristic_fails_on_spoiler_input(self):
        """Counts 3/2/2: the naive heuristic has reachable incorrect traps."""
        verdict = verify_always_correct(
            CancellationPluralityProtocol(3), (0, 0, 0, 1, 1, 2, 2)
        )
        assert not verdict.verified
        assert not verdict.always_stabilizes_correctly
