"""Tests for the tie-report layer over Circles (§4, Handling ties)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy_sets import has_unique_majority, predicted_majority
from repro.protocols.circles_ties import TieAwareState, TieReportCircles
from repro.scheduling.permutation import RandomPermutationScheduler
from repro.simulation.engine import AgentSimulation
from repro.simulation.population import Population


class TestDefinition:
    def test_state_count_stays_cubic(self):
        for k in (2, 3, 4):
            protocol = TieReportCircles(k)
            assert protocol.state_count() == 2 * k**3
            assert sum(1 for _ in protocol.states()) == 2 * k**3

    def test_tie_sentinel_is_outside_color_range(self):
        protocol = TieReportCircles(3)
        assert protocol.tie_output == 3

    def test_initial_state_is_fresh_diagonal(self):
        protocol = TieReportCircles(3)
        assert protocol.initial_state(1) == TieAwareState(1, 1, 1, True)

    def test_output_rules(self):
        protocol = TieReportCircles(3)
        assert protocol.output(TieAwareState(1, 1, 2, False)) == 1  # diagonal wins
        assert protocol.output(TieAwareState(0, 1, 2, True)) == 2   # fresh non-diagonal
        assert protocol.output(TieAwareState(0, 1, 2, False)) == 3  # stale -> TIE


class TestTransitions:
    def test_exchange_matches_circles_and_marks_stale(self):
        protocol = TieReportCircles(3)
        result = protocol.transition(TieAwareState(0, 0, 0, True), TieAwareState(1, 1, 1, True))
        assert result.initiator.ket == 1
        assert result.responder.ket == 0
        assert not result.initiator.fresh
        assert not result.responder.fresh

    def test_diagonal_broadcast_refreshes_both(self):
        protocol = TieReportCircles(3)
        # ⟨2|2⟩ meets stale ⟨0|1⟩: weights 3 and 1; swap would give ⟨2|1⟩ (2) and ⟨0|2⟩ (2)
        # so no exchange happens, and the diagonal broadcasts color 2.
        result = protocol.transition(TieAwareState(2, 2, 2, True), TieAwareState(0, 1, 0, False))
        assert result.initiator.fresh and result.responder.fresh
        assert result.initiator.out == result.responder.out == 2

    def test_non_diagonal_meeting_changes_nothing(self):
        protocol = TieReportCircles(4)
        pair = (TieAwareState(0, 1, 0, True), TieAwareState(2, 3, 2, True))
        assert protocol.transition(*pair).as_pair() == pair


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=9).filter(
        has_unique_majority
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_behaves_exactly_like_circles_on_unique_majority_inputs(colors, seed):
    """With a unique majority, the tie layer must still converge to the majority."""
    k = 3
    protocol = TieReportCircles(k)
    population = Population.from_colors(protocol, colors)
    scheduler = RandomPermutationScheduler(len(colors), seed=seed)
    simulation = AgentSimulation(protocol, population, scheduler)
    simulation.run(60 * len(colors) * len(colors))
    majority = predicted_majority(colors)
    assert set(simulation.outputs()) == {majority}


def test_exact_tie_leaves_no_diagonal_and_some_tie_reports():
    """On a 2-2 tie the stable bra-kets form a circle; stale agents report TIE."""
    k = 2
    protocol = TieReportCircles(k)
    colors = [0, 0, 1, 1]
    population = Population.from_colors(protocol, colors)
    scheduler = RandomPermutationScheduler(len(colors), seed=9)
    simulation = AgentSimulation(protocol, population, scheduler)
    simulation.run(400)
    states = simulation.states()
    assert all(not state.is_diagonal() for state in states)
    # At least the agents whose last event was an exchange report the tie.
    assert protocol.tie_output in set(simulation.outputs())
