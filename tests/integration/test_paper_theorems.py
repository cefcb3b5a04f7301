"""Integration tests phrased directly as the paper's numbered statements.

These tests are the executable record of §3: each test name cites the
statement it checks, and the assertions follow the statement as literally as
the simulation allows.
"""

from collections import deque

import pytest

from repro.analysis.verification import verify_always_correct
from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import (
    greedy_independent_sets,
    predicted_majority,
    predicted_stable_brakets,
)
from repro.core.invariants import (
    braket_invariant_holds,
    diagonal_colors,
    is_stable_configuration,
)
from repro.core.potential import ordinal_potential
from repro.exact.chain import ConfigurationChain
from repro.simulation.runner import run_circles
from repro.utils.multiset import Multiset
from repro.workloads.distributions import planted_majority


class TestLemma32MajorityColor:
    @pytest.mark.parametrize("colors", [(0, 0, 1), (2, 2, 2, 0, 1, 1), (0, 1, 1, 1, 2, 2)])
    def test_last_greedy_set_is_exactly_the_majority(self, colors):
        groups = greedy_independent_sets(colors)
        majority = predicted_majority(colors)
        assert groups[-1] == {majority}
        assert all(group == {majority} for group in groups if len(group) == 1)


class TestLemma33GlobalBraketInvariant:
    def test_invariant_holds_in_every_reachable_configuration(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(3), (0, 0, 1, 2))
        for index in range(chain.num_configurations):
            assert braket_invariant_holds(chain.states_of(index))


def _reachable_from(chain: ConfigurationChain, start: int) -> set[int]:
    """Every configuration index reachable from ``start`` along the chain's edges."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        for successor in chain.rows[frontier.popleft()]:
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


class TestTheorem34Stabilization:
    def test_every_reachable_configuration_can_reach_stability(self):
        """Exchanges cannot go on forever: exchange-free configurations are reachable everywhere."""
        protocol = CirclesProtocol(3)
        chain = ConfigurationChain.from_colors(protocol, (0, 0, 1, 2))
        stable = {
            index
            for index in range(chain.num_configurations)
            if is_stable_configuration(protocol, chain.states_of(index))
        }
        for index in range(chain.num_configurations):
            assert _reachable_from(chain, index) & stable

    def test_potential_bounds_the_number_of_exchanges(self):
        colors = planted_majority(20, 5, seed=3)
        outcome = run_circles(colors, num_colors=5, seed=4)
        assert outcome.converged
        assert outcome.ket_exchanges is not None
        # Each exchange strictly decreases g(C); a crude numeric consequence is
        # that exchanges are far fewer than the interaction budget.
        assert outcome.ket_exchanges < outcome.steps
        assert outcome.ket_exchanges <= 20 * 5

    def test_initial_potential_dominates_stable_potential(self):
        colors = [0, 0, 1, 1, 1, 2]
        k = 3
        initial = [CirclesProtocol(k).initial_state(color) for color in colors]
        stable = list(predicted_stable_brakets(colors).elements())
        assert ordinal_potential(stable, k) < ordinal_potential(initial, k)


class TestLemma36StableStructure:
    def test_every_exchange_free_reachable_configuration_matches_the_prediction(self):
        protocol = CirclesProtocol(3)
        colors = (0, 0, 1, 2)
        prediction = predicted_stable_brakets(colors)
        chain = ConfigurationChain.from_colors(protocol, colors)
        stable_configurations = [
            chain.states_of(index)
            for index in range(chain.num_configurations)
            if is_stable_configuration(protocol, chain.states_of(index))
        ]
        assert stable_configurations, "stability must be reachable"
        for states in stable_configurations:
            assert Multiset(state.braket for state in states) == prediction


class TestTheorem37Correctness:
    @pytest.mark.parametrize(
        "colors",
        [(0, 0, 1), (0, 1, 1, 1), (0, 0, 1, 2, 2, 2), (0, 1, 2, 2)],
    )
    def test_model_checked_always_correct(self, colors):
        verdict = verify_always_correct(CirclesProtocol(max(colors) + 1), colors)
        assert verdict.verified

    def test_stable_configuration_has_only_majority_diagonals(self):
        colors = planted_majority(15, 4, seed=8)
        outcome = run_circles(colors, num_colors=4, seed=9)
        assert outcome.converged
        assert diagonal_colors(outcome.final_states) == {predicted_majority(colors)}

    def test_simulated_runs_output_the_majority(self):
        for seed in range(5):
            colors = planted_majority(12, 3, seed=seed)
            outcome = run_circles(colors, num_colors=3, seed=seed)
            assert outcome.correct
