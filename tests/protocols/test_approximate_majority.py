"""Tests for the 3-state approximate majority baseline."""

import pytest

from repro.protocols.approximate_majority import ApproximateMajorityProtocol, OpinionState
from repro.simulation.convergence import OutputConsensus
from repro.simulation.runner import run_protocol


class TestDefinition:
    def test_only_two_colors(self):
        with pytest.raises(ValueError):
            ApproximateMajorityProtocol(3)

    def test_three_states(self):
        assert ApproximateMajorityProtocol().state_count() == 3

    def test_blank_outputs_zero_by_convention(self):
        assert ApproximateMajorityProtocol().output(OpinionState(None)) == 0


class TestTransitions:
    def test_conflict_blanks_responder(self):
        protocol = ApproximateMajorityProtocol()
        result = protocol.transition(OpinionState(0), OpinionState(1))
        assert result.initiator == OpinionState(0)
        assert result.responder == OpinionState(None)

    def test_supporter_recruits_blank(self):
        protocol = ApproximateMajorityProtocol()
        assert protocol.transition(OpinionState(1), OpinionState(None)).responder == OpinionState(1)
        assert protocol.transition(OpinionState(None), OpinionState(1)).initiator == OpinionState(1)

    def test_two_blanks_change_nothing(self):
        protocol = ApproximateMajorityProtocol()
        pair = (OpinionState(None), OpinionState(None))
        assert protocol.transition(*pair).as_pair() == pair

    def test_agreeing_supporters_change_nothing(self):
        protocol = ApproximateMajorityProtocol()
        pair = (OpinionState(0), OpinionState(0))
        assert protocol.transition(*pair).as_pair() == pair


class TestBehaviour:
    def test_converges_with_large_margin(self):
        colors = [0] * 18 + [1] * 2
        outcome = run_protocol(
            ApproximateMajorityProtocol(),
            colors,
            criterion=OutputConsensus(),
            seed=123,
        )
        assert outcome.converged
        assert outcome.correct

    def test_is_fast_compared_to_population_size(self):
        colors = [0] * 24 + [1] * 6
        outcome = run_protocol(
            ApproximateMajorityProtocol(),
            colors,
            criterion=OutputConsensus(),
            seed=7,
            check_interval=len(colors),
        )
        assert outcome.converged
        # O(n log n) expected interactions; give a generous constant.
        assert outcome.steps <= 60 * len(colors)
