"""Tests for the global and per-color leader election protocols."""

from repro.protocols.leader_election import (
    ColorLeaderState,
    LeaderElectionProtocol,
    LeaderState,
    PerColorLeaderElection,
)
from repro.scheduling.round_robin import RoundRobinScheduler
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population


class TestGlobalLeaderElection:
    def test_two_states(self):
        assert LeaderElectionProtocol().state_count() == 2

    def test_everyone_starts_as_leader(self):
        assert LeaderElectionProtocol().initial_state(0) == LeaderState(True)

    def test_responder_leader_is_demoted(self):
        protocol = LeaderElectionProtocol()
        result = protocol.transition(LeaderState(True), LeaderState(True))
        assert result.initiator.leader
        assert not result.responder.leader

    def test_follower_pairs_change_nothing(self):
        protocol = LeaderElectionProtocol()
        pair = (LeaderState(False), LeaderState(False))
        assert protocol.transition(*pair).as_pair() == pair
        pair = (LeaderState(True), LeaderState(False))
        assert protocol.transition(*pair).as_pair() == pair

    def test_protocol_is_asymmetric(self):
        assert not LeaderElectionProtocol().is_symmetric()

    def test_exactly_one_leader_survives_under_fair_scheduling(self):
        protocol = LeaderElectionProtocol()
        n = 9
        population = Population.from_colors(protocol, [0] * n)
        scheduler = RoundRobinScheduler(n)
        simulation = AgentSimulation(protocol, population, scheduler)
        simulation.run(4 * n * n)
        leaders = sum(1 for state in simulation.states() if state.leader)
        assert leaders == 1


class TestPerColorLeaderElection:
    def test_two_k_states(self):
        assert PerColorLeaderElection(4).state_count() == 8

    def test_demotion_only_within_a_color(self):
        protocol = PerColorLeaderElection(3)
        same = protocol.transition(ColorLeaderState(1, True), ColorLeaderState(1, True))
        assert not same.responder.leader
        different = (ColorLeaderState(1, True), ColorLeaderState(2, True))
        assert protocol.transition(*different).as_pair() == different

    def test_output_is_color(self):
        assert PerColorLeaderElection(3).output(ColorLeaderState(2, False)) == 2

    def test_each_color_keeps_exactly_one_leader(self):
        protocol = PerColorLeaderElection(3)
        colors = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        population = Population.from_colors(protocol, colors)
        scheduler = RoundRobinScheduler(len(colors))
        simulation = AgentSimulation(protocol, population, scheduler)
        simulation.run(6 * len(colors) * len(colors))
        leaders_per_color = {color: 0 for color in set(colors)}
        for state in simulation.states():
            if state.leader:
                leaders_per_color[state.color] += 1
        assert all(count == 1 for count in leaders_per_color.values())
