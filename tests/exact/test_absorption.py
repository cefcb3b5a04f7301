"""Unit tests for SCCs, absorption and hitting analyses, and the solvers."""

import math
import random
from fractions import Fraction

import pytest

from repro.core.circles import CirclesProtocol
from repro.exact import (
    ConfigurationChain,
    SolveTooLarge,
    analyze_absorption,
    closed_classes,
    hitting_analysis,
    strongly_connected_components,
)
import repro.exact.absorption as absorption_module
from repro.exact import solve as solve_module
from repro.exact.absorption import communicating_classes
from repro.exact.golden import GOLDEN_CASES
from repro.exact.solve import gaussian_solve, solve_transient_systems
from repro.protocols.approximate_majority import ApproximateMajorityProtocol
from repro.protocols.registry import get_protocol
from repro.simulation.convergence import OutputConsensus, StableCircles


class TestGraphAlgorithms:
    def test_sccs_of_a_simple_cycle_plus_tail(self):
        # 0 -> 1 -> 2 -> 1 (cycle {1,2} reached from 0)
        rows = [{1: 1.0}, {2: 1.0}, {1: 1.0}]
        components = strongly_connected_components(rows)
        assert sorted(map(tuple, components)) == [(0,), (1, 2)]
        assert closed_classes(rows) == [[1, 2]]

    def test_two_absorbing_states(self):
        rows = [{1: 0.5, 2: 0.5}, {1: 1.0}, {2: 1.0}]
        assert closed_classes(rows) == [[1], [2]]

    def test_self_loop_on_transient_state_is_not_closed(self):
        rows = [{0: 0.5, 1: 0.5}, {1: 1.0}]
        assert closed_classes(rows) == [[1]]

    def test_deep_chain_does_not_recurse(self):
        # A 5000-node path would blow the recursion limit in a recursive Tarjan.
        size = 5000
        rows = [{i + 1: 1.0} for i in range(size - 1)] + [{size - 1: 1.0}]
        components = strongly_connected_components(rows)
        assert len(components) == size


class TestOneSccPass:
    """An absorption analysis runs Tarjan once; its solve reuses the components."""

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_one_tarjan_call_per_absorption_analysis(self, monkeypatch, arithmetic):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return tarjan(rows)

        tarjan = solve_module.strongly_connected_components
        monkeypatch.setattr(solve_module, "strongly_connected_components", counting)
        monkeypatch.setattr(absorption_module, "strongly_connected_components", counting)
        for name, k, colors in GOLDEN_CASES:
            chain = ConfigurationChain.from_colors(
                get_protocol(name, k), colors, arithmetic=arithmetic
            )
            calls.clear()
            absorbed = analyze_absorption(chain)
            assert calls == [chain.num_configurations], (name, k, colors)
            assert absorbed.transient, (name, k, colors)

    def test_non_closed_components_are_the_transient_restrictions_components(self):
        for name, k, colors in GOLDEN_CASES:
            chain = ConfigurationChain.from_colors(get_protocol(name, k), colors)
            classes, components = communicating_classes(chain.weights)
            closed = {member for members in classes for member in members}
            transient = [i for i in range(chain.num_configurations) if i not in closed]
            local = {index: i for i, index in enumerate(transient)}
            restricted = [
                {local[j]: w for j, w in chain.weights[index].items() if j in local}
                for index in transient
            ]
            assert strongly_connected_components(restricted) == [
                [local[member] for member in component] for component in components
            ]


class TestSolvers:
    def test_gaussian_solve_matches_hand_solution(self):
        solution = gaussian_solve(
            [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
            [Fraction(5), Fraction(10)],
        )
        assert solution == [Fraction(1), Fraction(3)]

    def test_gaussian_solve_pivots(self):
        # Leading zero forces a row swap.
        solution = gaussian_solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])
        assert solution == [3.0, 2.0]

    def test_pure_python_and_numpy_backends_agree(self):
        pytest.importorskip("numpy")
        # Probabilities (1/4, 1/2, 1/4), (1/10, 9/10) and 1 over 20.
        weights = [{0: 5, 1: 10, 2: 5}, {1: 2, 2: 18}, {2: 20}]
        via_numpy = solve_transient_systems(weights, [0, 1], 0, denominator=20, exact=False)
        via_python = solve_transient_systems(weights, [0, 1], 0, denominator=20, exact=True)
        for a, b in zip(via_numpy, via_python, strict=True):
            assert math.isclose(a, float(b), rel_tol=1e-12)

    def test_solve_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(solve_module, "NUMPY_MAX_COMPONENT", 1)
        monkeypatch.setattr(solve_module, "PURE_PYTHON_MAX_COMPONENT", 1)
        # States 0 and 1 form one two-state component.
        weights = [{1: 1, 2: 1}, {0: 1, 2: 1}, {2: 2}]
        with pytest.raises(SolveTooLarge):
            solve_transient_systems(weights, [0, 1], 0, denominator=2, exact=False)

    def test_components_without_mass_are_zero(self):
        # State 1 leads into state 0 but is never reached from it.
        weights = [{0: 2, 2: 2}, {0: 2, 1: 1, 2: 1}, {2: 4}]
        assert solve_transient_systems(weights, [0, 1], 0, denominator=4, exact=False) == [
            2.0,
            0.0,
        ]
        assert solve_transient_systems(weights, [0, 1], 0, denominator=4, exact=True) == [2, 0]


class TestAbsorption:
    def test_gambler_ruin_textbook_values(self):
        """Approximate majority at n=2 is a 2-step gambler's-ruin sanity case;
        the generic small chain below pins the solver against hand math."""
        # Hand-built chain: 0 -> {0 w.p. 1/2, absorbing 1 w.p. 1/4, absorbing 2 w.p. 1/4}
        from repro.exact.chain import ConfigurationChain  # noqa: F401  (type only)

        weights = [{0: 2, 1: 1, 2: 1}, {1: 4}, {2: 4}]  # over 4
        classes = closed_classes(weights)
        assert classes == [[1], [2]]
        [visits] = solve_transient_systems(weights, [0], 0, denominator=4, exact=True)
        assert visits == 2  # E[steps] = 1 / (1/2)
        assert visits * Fraction(weights[0][1], 4) == Fraction(1, 2)
        assert visits * Fraction(weights[0][2], 4) == Fraction(1, 2)

    def test_circles_absorbs_almost_surely_into_one_correct_class(self):
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 0, 1, 1), arithmetic="exact"
        )
        analysis = analyze_absorption(chain)
        assert analysis.num_classes == 1
        assert analysis.class_probabilities == [Fraction(1)]
        assert analysis.expected_interactions == Fraction(41, 2)
        assert sum(analysis.class_probabilities) == 1
        assert analysis.class_of(analysis.classes[0][0]) == 0

    def test_approximate_majority_splits_mass_between_consensus_classes(self):
        chain = ConfigurationChain.from_colors(
            ApproximateMajorityProtocol(2), (0, 0, 0, 1, 1), arithmetic="exact"
        )
        analysis = analyze_absorption(chain)
        assert analysis.num_classes == 2
        total = sum(analysis.class_probabilities)
        assert total == 1
        assert all(0 < p < 1 for p in analysis.class_probabilities)

    def test_initial_configuration_inside_a_closed_class(self):
        # All agents already agree: the chain starts absorbed.
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 0), arithmetic="exact"
        )
        analysis = analyze_absorption(chain)
        assert analysis.expected_interactions == 0
        assert analysis.class_probabilities.count(Fraction(1)) == 1


class TestHitting:
    def test_hitting_an_unreachable_predicate(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        analysis = hitting_analysis(chain, lambda index: False)
        assert analysis.probability == 0.0
        assert analysis.expected_interactions is None

    def test_hitting_the_initial_configuration_is_free(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        analysis = hitting_analysis(chain, lambda index: index == 0)
        assert analysis.probability == 1.0
        assert analysis.expected_interactions == 0.0

    def test_criterion_hitting_matches_absorption_for_circles(self):
        protocol = CirclesProtocol(2)
        chain = ConfigurationChain.from_colors(protocol, (0, 0, 0, 1, 1), arithmetic="exact")
        criterion = StableCircles()
        analysis = hitting_analysis(
            chain,
            lambda index: criterion.is_converged_configuration(
                protocol, chain.configuration(index)
            ),
        )
        # For this input the stable configurations are exactly the absorbing
        # ones, so both analyses must produce the same exact expectation.
        assert analysis.almost_sure
        assert analysis.expected_interactions == Fraction(41, 2)

    def test_consensus_can_be_hit_before_absorption(self):
        protocol = ApproximateMajorityProtocol(2)
        chain = ConfigurationChain.from_colors(protocol, (0, 0, 0, 1, 1), arithmetic="exact")
        criterion = OutputConsensus()
        hit = hitting_analysis(
            chain,
            lambda index: criterion.is_converged_configuration(
                protocol, chain.configuration(index)
            ),
        )
        absorbed = analyze_absorption(chain)
        assert hit.almost_sure
        assert hit.expected_interactions < absorbed.expected_interactions

    def test_almost_sure_verdict_is_structural_in_float_mode(self):
        """Float-solver rounding (1 - O(ulp)) must not blur an a.s. hit:
        the verdict comes from the graph, and the probability is exactly 1."""
        protocol = CirclesProtocol(2)
        chain = ConfigurationChain.from_colors(protocol, (0, 0, 0, 1, 1))
        criterion = StableCircles()
        analysis = hitting_analysis(
            chain,
            lambda index: criterion.is_converged_configuration(
                protocol, chain.configuration(index)
            ),
        )
        assert analysis.almost_sure is True
        assert analysis.probability == 1.0  # exactly, not within tolerance
        assert analysis.expected_interactions is not None

    def test_tie_input_never_satisfies_stable_circles(self):
        protocol = CirclesProtocol(2)
        chain = ConfigurationChain.from_colors(protocol, (0, 1), arithmetic="exact")
        criterion = StableCircles()
        analysis = hitting_analysis(
            chain,
            lambda index: criterion.is_converged_configuration(
                protocol, chain.configuration(index)
            ),
        )
        assert analysis.probability == 0
        assert analysis.expected_interactions is None


class TestSharedSolves:
    """A chain solves each system once; sharing never changes an analysis."""

    CASES = [
        (CirclesProtocol(2), (0, 0, 0, 1, 1)),
        (CirclesProtocol(3), (0, 1, 1, 2, 2)),
        (ApproximateMajorityProtocol(2), (0, 0, 0, 1, 1)),
    ]

    @staticmethod
    def _targets(protocol, chain):
        criterion = StableCircles() if isinstance(protocol, CirclesProtocol) else OutputConsensus()
        stable = {
            index
            for index in range(chain.num_configurations)
            if criterion.is_converged_configuration(protocol, chain.configuration(index))
        }
        rng = random.Random(chain.num_configurations)
        drawn = [
            {index for index in range(1, chain.num_configurations) if rng.random() < 0.3}
            for _ in range(6)
        ]
        return [stable, *drawn]

    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_either_order_equals_fresh_chains(self, case, arithmetic):
        protocol, colors = self.CASES[case]

        def chain():
            return ConfigurationChain.from_colors(protocol, colors, arithmetic=arithmetic)

        reference = chain()
        absorption = analyze_absorption(reference)
        for target in self._targets(protocol, reference):
            fresh_hit = hitting_analysis(chain(), target.__contains__)
            shared = chain()
            assert analyze_absorption(shared) == absorption
            assert hitting_analysis(shared, target.__contains__) == fresh_hit
            reversed_order = chain()
            assert hitting_analysis(reversed_order, target.__contains__) == fresh_hit
            assert analyze_absorption(reversed_order) == absorption
            assert len(shared.solved_visits) <= 2

    def test_matching_systems_share_one_solve(self, monkeypatch):
        protocol, colors = self.CASES[0]
        chain = ConfigurationChain.from_colors(protocol, colors, arithmetic="exact")
        stable = self._targets(protocol, chain)[0]
        solves = []
        solve = absorption_module.solve_transient_systems

        def counting(rows, system, start, **kwargs):
            solves.append(tuple(system))
            return solve(rows, system, start, **kwargs)

        monkeypatch.setattr(absorption_module, "solve_transient_systems", counting)
        absorbed = analyze_absorption(chain)
        hit = hitting_analysis(chain, stable.__contains__)
        assert solves == [tuple(absorbed.transient)]
        assert hit.expected_interactions == absorbed.expected_interactions
        other = {index for index in range(1, chain.num_configurations) if index % 2}
        hitting_analysis(chain, other.__contains__)
        assert len(solves) == len(chain.solved_visits) == 2
