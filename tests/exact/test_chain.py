"""Unit tests for the exact configuration chain."""

import math
from fractions import Fraction
from operator import truediv

import pytest

import repro  # noqa: F401  (populates the protocol registry)
from repro.core.circles import CirclesProtocol
from repro.core.greedy_sets import predicted_stable_brakets
from repro.core.invariants import braket_invariant_holds
from repro.exact import ChainTooLarge, ConfigurationChain, ExactMarkovEngine
from repro.exact.golden import GOLDEN_CASES
from repro.protocols.registry import get_protocol
from repro.protocols.exact_majority import ExactMajorityProtocol
from repro.utils.multiset import Multiset


class TestKeys:
    def test_counts_decode_to_the_frozen_keys(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert len(chain.counts) == len(chain.keys) == chain.num_configurations
        for counts, key in zip(chain.counts, chain.keys):
            assert sum(counts) == 3
            assert chain.decode(counts).frozen() == key

    def test_counts_index_the_compiled_codes(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert chain.states == chain.compiled.states
        assert all(len(counts) == chain.compiled.num_states for counts in chain.counts)

    def test_uncompiled_counts_carry_no_trailing_zeros(self, force_uncompiled):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        assert chain.compiled is None
        assert all(counts[-1] for counts in chain.counts)
        assert set(chain.states) == {
            state for key in chain.keys for state, _ in key
        }


class TestConstruction:
    def test_rows_are_probability_distributions_exact(self):
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 0, 1, 1), arithmetic="exact"
        )
        for row in chain.rows:
            assert sum(row.values()) == 1
            assert all(isinstance(p, Fraction) and p > 0 for p in row.values())

    def test_rows_are_probability_distributions_float(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        for row in chain.rows:
            assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-12)

    def test_initial_index_is_zero_and_keys_invert(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert chain.initial_index == 0
        for index, key in enumerate(chain.keys):
            assert chain.index[key] == index
        assert len(chain.states_of(0)) == 3

    def test_exact_and_float_modes_agree(self):
        exact = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 1), arithmetic="exact"
        )
        approx = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert exact.keys == approx.keys
        for exact_row, float_row in zip(exact.rows, approx.rows):
            assert set(exact_row) == set(float_row)
            for target in exact_row:
                assert math.isclose(float(exact_row[target]), float_row[target])

    def test_uncompiled_fallback_builds_the_same_chain(self, request):
        compiled = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        request.getfixturevalue("force_uncompiled")
        fallback = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        assert fallback.compiled is None and compiled.compiled is not None
        assert compiled.keys == fallback.keys
        assert compiled.rows == fallback.rows

    def test_cap_raises_instead_of_truncating(self):
        with pytest.raises(ChainTooLarge):
            ConfigurationChain.from_colors(
                CirclesProtocol(3), (0, 1, 1, 2, 2, 2), max_configurations=10
            )

    def test_reachable_space_of_exactly_the_cap_succeeds(self):
        # Cap-edge regression: the guard must only fire on configuration
        # cap+1, so a space of exactly ``cap`` states builds — even though
        # the BFS keeps re-encountering (re-interning) existing keys after
        # the cap is reached.
        probe = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2),
            (0, 0, 0, 1, 1),
            max_configurations=probe.num_configurations,
        )
        assert chain.num_configurations == probe.num_configurations
        assert chain.rows == probe.rows

    def test_one_below_the_reachable_count_raises(self):
        probe = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 0, 1, 1))
        with pytest.raises(ChainTooLarge):
            ConfigurationChain.from_colors(
                CirclesProtocol(2),
                (0, 0, 0, 1, 1),
                max_configurations=probe.num_configurations - 1,
            )

    def test_reinterning_a_present_key_at_the_cap_returns_its_index(self):
        probe = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        cap = probe.num_configurations
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 1), max_configurations=cap
        )
        # The chain is full: every key is interned.  Re-interning any of
        # them must return the existing index, never consult the cap.
        for index, counts in enumerate(chain.counts):
            assert chain._intern(counts, cap) == index
        assert chain.num_configurations == cap

    def test_too_small_population_rejected(self):
        with pytest.raises(ValueError, match="two agents"):
            ConfigurationChain.from_colors(CirclesProtocol(2), (0,))

    def test_unknown_arithmetic_rejected(self):
        with pytest.raises(ValueError, match="arithmetic"):
            ConfigurationChain.from_colors(CirclesProtocol(2), (0, 1), arithmetic="decimal")


class TestConfigurationGraph:
    def test_every_configuration_keeps_the_braket_invariant(self):
        """Lemma 3.3's conservation law holds across the whole reachable space."""
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert chain.num_configurations >= 2
        for index in range(chain.num_configurations):
            assert braket_invariant_holds(chain.states_of(index))

    def test_terminal_configurations_are_silent(self):
        chain = ConfigurationChain.from_colors(ExactMajorityProtocol(), (0, 0, 1))
        terminals = [index for index, row in enumerate(chain.rows) if set(row) == {index}]
        assert terminals
        for index in terminals:
            assert chain.change_probability[index] == 0

    def test_stable_prediction_is_reachable(self):
        colors = (0, 0, 1, 2)
        chain = ConfigurationChain.from_colors(CirclesProtocol(3), colors)
        predicted = predicted_stable_brakets(colors)
        assert any(
            Multiset(state.braket for state in chain.states_of(index)) == predicted
            for index in range(chain.num_configurations)
        ), "some reachable configuration realizes the Lemma 3.6 multiset"


class TestDistributions:
    def test_distribution_after_zero_is_the_initial_point_mass(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 0, 1))
        assert chain.distribution_after(0) == {0: 1.0}

    def test_distribution_stays_normalized_exactly(self):
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 0, 1, 1), arithmetic="exact"
        )
        for t in (1, 5, 20):
            assert sum(chain.distribution_after(t).values()) == 1

    def test_mass_concentrates_on_the_stable_outcome(self):
        chain = ConfigurationChain.from_colors(
            CirclesProtocol(2), (0, 0, 1), arithmetic="exact"
        )
        late = chain.output_distribution_after(200)
        assert late[((0, 3),)] > Fraction(999, 1000)

    def test_two_agent_chain(self):
        chain = ConfigurationChain.from_colors(ExactMajorityProtocol(2), (0, 1))
        distribution = chain.distribution_after(3)
        assert math.isclose(sum(distribution.values()), 1.0, abs_tol=1e-12)

    def test_negative_horizon_rejected(self):
        chain = ConfigurationChain.from_colors(CirclesProtocol(2), (0, 1))
        with pytest.raises(ValueError):
            chain.distribution_after(-1)

    def test_output_keys_match_configuration_outputs(self):
        protocol = CirclesProtocol(2)
        chain = ConfigurationChain.from_colors(protocol, (0, 0, 1))
        for index in range(chain.num_configurations):
            histogram: dict[int, int] = {}
            for state in chain.states_of(index):
                color = protocol.output(state)
                histogram[color] = histogram.get(color, 0) + 1
            assert chain.output_key(index) == tuple(sorted(histogram.items()))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: f"{case[0]}-{case[1]}-{case[2]}")
def test_probability_views_are_the_weights_over_the_denominator(case):
    """``rows`` / ``change_probability`` are ``Fraction(w, D)`` or ``w / D``, entry for entry."""
    name, k, colors = case
    n = len(colors)
    for arithmetic, view, kind in (("exact", Fraction, Fraction), ("float", truediv, float)):
        chain = ExactMarkovEngine.from_colors(
            get_protocol(name, k), colors, arithmetic=arithmetic
        ).chain
        denominator = chain.denominator
        assert denominator == n * (n - 1)
        for row, weights in zip(chain.rows, chain.weights, strict=True):
            assert sum(weights.values()) == denominator
            assert row == {target: view(w, denominator) for target, w in weights.items()}
            assert all(type(value) is kind for value in row.values())
        assert chain.change_probability == [view(w, denominator) for w in chain.change_weights]
