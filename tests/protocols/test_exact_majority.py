"""Tests for the 4-state exact majority baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.exact_majority import ExactMajorityProtocol, MajorityState
from repro.simulation.convergence import OutputConsensus
from repro.simulation.runner import run_protocol


class TestDefinition:
    def test_only_two_colors(self):
        with pytest.raises(ValueError):
            ExactMajorityProtocol(3)

    def test_four_states(self):
        assert ExactMajorityProtocol().state_count() == 4

    def test_initial_state_is_strong(self):
        assert ExactMajorityProtocol().initial_state(1) == MajorityState(1, True)

    def test_output_is_opinion(self):
        protocol = ExactMajorityProtocol()
        assert protocol.output(MajorityState(0, False)) == 0
        assert protocol.output(MajorityState(1, True)) == 1


class TestTransitions:
    def test_opposite_strong_agents_cancel(self):
        protocol = ExactMajorityProtocol()
        result = protocol.transition(MajorityState(0, True), MajorityState(1, True))
        assert result.initiator == MajorityState(0, False)
        assert result.responder == MajorityState(1, False)

    def test_strong_converts_weak(self):
        protocol = ExactMajorityProtocol()
        result = protocol.transition(MajorityState(0, True), MajorityState(1, False))
        assert result.responder == MajorityState(0, False)
        assert result.initiator == MajorityState(0, True)

    def test_weak_pair_changes_nothing(self):
        protocol = ExactMajorityProtocol()
        pair = (MajorityState(0, False), MajorityState(1, False))
        assert protocol.transition(*pair).as_pair() == pair

    def test_same_opinion_strong_pair_changes_nothing(self):
        protocol = ExactMajorityProtocol()
        pair = (MajorityState(1, True), MajorityState(1, True))
        assert protocol.transition(*pair).as_pair() == pair

    def test_strong_count_difference_is_invariant(self):
        protocol = ExactMajorityProtocol()
        states = [protocol.initial_state(c) for c in (0, 0, 0, 1, 1)]

        def difference(population):
            strong0 = sum(1 for s in population if s.strong and s.opinion == 0)
            strong1 = sum(1 for s in population if s.strong and s.opinion == 1)
            return strong0 - strong1

        base = difference(states)
        result = protocol.transition(states[0], states[3])
        states[0], states[3] = result.initiator, result.responder
        assert difference(states) == base


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=14).filter(
        lambda colors: colors.count(0) != colors.count(1)
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_always_correct_for_two_colors(colors, seed):
    """Exact majority must converge to the true majority under a fair scheduler."""
    outcome = run_protocol(
        ExactMajorityProtocol(),
        colors,
        criterion=OutputConsensus(),
        seed=seed,
    )
    assert outcome.converged
    assert outcome.correct
