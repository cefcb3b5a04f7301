"""Tests for reachable-state-space enumeration (the shared δ-closure)."""

import pytest

from repro.compile import StateSpaceCapExceeded, enumerate_states, reachable_state_count
from repro.core.circles import CirclesProtocol
from repro.protocols.approximate_majority import ApproximateMajorityProtocol
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.protocols.leader_election import LeaderElectionProtocol


class TestEnumeration:
    def test_approximate_majority_closure(self):
        protocol = ApproximateMajorityProtocol()
        states = enumerate_states(protocol)
        # 0-supporter, 1-supporter, blank.
        assert len(states) == 3
        assert len(set(states)) == 3

    def test_exact_majority_closure(self):
        assert reachable_state_count(ExactMajorityProtocol()) == 4

    def test_closure_is_closed_under_delta(self):
        protocol = CirclesProtocol(3)
        states = enumerate_states(protocol)
        space = set(states)
        for initiator in states:
            for responder in states:
                result = protocol.transition(initiator, responder)
                assert result.initiator in space
                assert result.responder in space

    def test_closure_never_exceeds_declared_count(self):
        for k in (2, 3, 4):
            protocol = CirclesProtocol(k)
            assert reachable_state_count(protocol) <= protocol.state_count()

    def test_seeds_come_first_and_order_is_deterministic(self):
        protocol = CirclesProtocol(3)
        first = enumerate_states(protocol, [0, 1])
        second = enumerate_states(protocol, [0, 1])
        assert first == second
        assert first[0] == protocol.initial_state(0)
        assert first[1] == protocol.initial_state(1)

    def test_repeated_colors_are_deduplicated(self):
        protocol = CirclesProtocol(2)
        assert enumerate_states(protocol, [0, 0, 0, 1, 1]) == enumerate_states(
            protocol, [0, 1]
        )

    def test_restricting_colors_shrinks_the_closure(self):
        protocol = CirclesProtocol(3)
        partial = enumerate_states(protocol, [0])
        full = enumerate_states(protocol)
        assert len(partial) < len(full)

    def test_seed_states_entry_point(self):
        protocol = LeaderElectionProtocol()
        states = enumerate_states(protocol, seed_states={protocol.initial_state(0)})
        assert len(states) == 2  # leader + demoted follower

    def test_seed_states_and_colors_are_mutually_exclusive(self):
        protocol = CirclesProtocol(2)
        with pytest.raises(ValueError, match="not both"):
            enumerate_states(protocol, [0], seed_states=[protocol.initial_state(0)])

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            enumerate_states(CirclesProtocol(2), [])


class TestCap:
    def test_cap_raises_when_closure_grows_past_it(self):
        protocol = CirclesProtocol(4)
        with pytest.raises(StateSpaceCapExceeded):
            enumerate_states(protocol, max_states=4)

    def test_seeds_never_count_against_the_cap(self):
        # Three seed states with a cap of 1: the seeds themselves must not
        # raise — only states *discovered* past the cap do.
        protocol = ApproximateMajorityProtocol()
        states = enumerate_states(protocol, seed_states=list(protocol.states()), max_states=1)
        assert len(states) == 3
